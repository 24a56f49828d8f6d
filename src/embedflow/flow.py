"""The exact flow of an embedding field, one route of the time-one check.

An embedding field X = By + v has its nonlinear support on the resonance
lattice, so every coefficient of component j of its flow is e^(mu_j t)
(:class:`FlowJet`) times a polynomial in t and e^(+-2*pi*i*t)
(:class:`TrigPoly`, keyed by integers (k, l)), with the witnesses of
:mod:`embedflow.resonance` as frequencies.  :func:`flow_jet` builds it
degree by degree from closed-form integrals, whose divisors 2*pi*i*l,
l != 0, stay in the PiPoly ring in exact arithmetic.  Coefficients are
QQi/PiPoly (exact) or complex, never mixed.  The flow checks the solve of
:mod:`embedflow.embedding` and is checked by the ODE oracle of
:mod:`embedflow.oracle`; it imports and shares no code with either.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .jets import MODE_EXACT, MODE_FLOAT, MultiIndex, PolyJet, _OnlineComposition, _one
from .resonance import _lattice_witnesses
from .scalars import PiPoly, QQi
from .spectral import TriangularLinear

__all__ = ["TrigPoly", "FlowJet", "flow_jet"]

_TWO_PI = 2.0 * math.pi


# -- the coefficient ring -------------------------------------------------------


def _fact_ratio(k: int, j: int) -> int:
    """k! / j! for j <= k."""
    out = 1
    for v in range(j + 1, k + 1):
        out *= v
    return out


@cache
def _weights(k: int, l: int, exact: bool):
    """``(w, w0)`` with integral_0^t s^k e^(as) ds = sum_j w[j] t^j e^(at) + w0
    for a = 2*pi*i*l, l != 0: w[j] = (-1)^(k-j) k!/j! a^-(k-j+1) and
    w0 = (-1)^(k+1) k! a^-(k+1)."""
    if exact:
        # a^-1 = -i/(2*pi*l)
        inv = [PiPoly.monomial(QQi(0, Fraction(-1, 2 * l)) ** p, -p) for p in range(k + 2)]
    else:
        a = complex(0.0, _TWO_PI * l)
        inv = [a**-p for p in range(k + 2)]
    w = tuple(inv[k - j + 1] * ((-1) ** (k - j) * _fact_ratio(k, j)) for j in range(k + 1))
    return w, inv[k + 1] * ((-1) ** (k + 1) * _fact_ratio(k, 0))


class TrigPoly:
    """Finite sum of terms c * t^k * e^(2*pi*i*l*t), as ``{(k, l): c}``.

    ``terms`` holds no zero coefficient; every operation keeps it so.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            if s is None:
                out[key] = c
            elif s := s + c:
                out[key] = s
            else:
                del out[key]
        return TrigPoly(out)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out = {}
        get = out.get
        terms = other.terms.items()
        for (k1, l1), c1 in self.terms.items():
            for (k2, l2), c2 in terms:
                key = (k1 + k2, l1 + l2)
                s = get(key)
                out[key] = c1 * c2 if s is None else s + c1 * c2
        return TrigPoly({key: c for key, c in out.items() if c})

    def __rmul__(self, c) -> "TrigPoly":
        """The scalar multiple c * self."""
        if not c:
            return TrigPoly({})
        return TrigPoly({key: c * cc for key, cc in self.terms.items()})

    def integrate_to_t(self) -> "TrigPoly":
        """The integral of p = self from 0 to t.

        A term c s^k integrates to c t^(k+1)/(k+1); a term
        c s^k e^(2*pi*i*l*s), l != 0, to the terms of :func:`_weights` at
        frequency l and a constant.
        """
        out: dict = {}
        get = out.get
        for (k, l), c in self.terms.items():
            exact = c.__class__ is not complex
            if not l:
                pieces = [((k + 1, 0), c * Fraction(1, k + 1) if exact else c / (k + 1))]
            else:
                w, w0 = _weights(k, l, exact)
                pieces = [((j, l), c * wj) for j, wj in enumerate(w)]
                pieces.append(((0, 0), c * w0))
            for key, v in pieces:
                s = get(key)
                out[key] = v if s is None else s + v
        return TrigPoly({key: c for key, c in out.items() if c})

    def eval_at(self, t: float) -> complex:
        total = 0j
        for (k, l), c in self.terms.items():
            total += complex(c) * t**k * cmath.exp(complex(0.0, _TWO_PI * l * t))
        return total

    def __repr__(self):
        bits = [f"({c!r})*t^{k}*e^(2*pi*i*{l}*t)" for (k, l), c in sorted(self.terms.items())]
        return "TrigPoly[" + " + ".join(bits) + "]" if bits else "TrigPoly(0)"


# -- jets with TrigPoly coefficients ------------------------------------------


@dataclass(frozen=True)
class FlowJet:
    """Jet of a flow phi(t, y): every coefficient of component j is
    e^(mu_j t) times the :class:`TrigPoly` held under (j, m).

    ``mu`` holds the complex logs of the eigenvalues.
    """

    dim: int
    degree: int
    coeffs: dict
    mu: tuple

    def at_time(self, t: float) -> PolyJet:
        """Specialize t; float-mode jet."""
        growth = [cmath.exp(z * t) for z in self.mu]
        terms = [(j, m, growth[j] * p.eval_at(t)) for (j, m), p in self.coeffs.items()]
        return PolyJet.build(self.dim, self.degree, MODE_FLOAT, terms)


def _lattice_terms(coeffs: dict, eigen, tol: float) -> dict:
    """The terms c y^m of component j on the resonance lattice, as
    c e^(-2*pi*i*l*t), l their witness: along a flow phi = e^(mu t) psi
    the term is c e^(<m, mu> t) psi^m = e^(mu_j t) c e^(-2*pi*i*l*t) psi^m.
    """
    on, _ = _lattice_witnesses(coeffs, eigen, tol)
    return {k: TrigPoly({(0, -l): coeffs[k]}) for k, l in on.items()}


# -- the nilpotent part ----------------------------------------------------------


def _nil_powers(tri: TriangularLinear, exact_ring: bool):
    """Powers N^p as sparse dicts {(i,k): scalar}, p >= 1, until N^p = 0:
    N is strictly lower triangular, so within ``tri.dim`` powers."""
    first = {(i, k): (c if exact_ring else complex(c)) for i, k, c in tri.nil}
    out = []
    cur = first
    while cur:
        out.append(cur)
        nxt: dict = {}
        for (i, k), c in first.items():
            for (i2, k2), c2 in cur.items():
                if i2 != k:
                    continue
                key = (i, k2)
                v = c * c2
                if key in nxt:
                    v = nxt[key] + v
                if v:
                    nxt[key] = v
                else:
                    nxt.pop(key, None)
        cur = nxt
    return out


def _nil_flow(tri: TriangularLinear, sign: int, exact_ring: bool) -> dict:
    """The entries of e^(sign*t*N) off its unit diagonal, as {(i, k): TrigPoly}:
    sum_p (sign*t)^p N^p / p!, polynomials in t."""
    out: dict = {}
    fact = 1
    for p, npow in enumerate(_nil_powers(tri, exact_ring), start=1):
        fact *= p
        for (i, k), c in npow.items():
            if exact_ring:
                w = c * QQi(Fraction(sign**p, fact))
            else:
                w = c * (sign**p / fact)
            term = TrigPoly({(p, 0): w})
            out[(i, k)] = term if (i, k) not in out else out[(i, k)] + term
    return out


def _nil_apply(nil: dict, coeffs: dict) -> dict:
    """``{(i, m): p}`` times the matrix with unit diagonal and the entries
    ``nil`` below it, componentwise in m."""
    if not nil:
        return coeffs
    by_m: dict = {}
    for (k, m), p in coeffs.items():
        by_m.setdefault(m, {})[k] = p
    out = dict(coeffs)
    for (i, k), e in nil.items():
        for m, col in by_m.items():
            p = col.get(k)
            if p is None:
                continue
            s = out.get((i, m))
            s = e * p if s is None else s + e * p
            if s:
                out[(i, m)] = s
            else:
                out.pop((i, m), None)
    return out


def _flow_step(slice_r: dict, push: dict, pull: dict) -> dict:
    """e^(tB) integral_0^t e^(-sB) slice_r(s) ds: the degree-r part of the
    flow, as ``{(j, m): TrigPoly}``.

    ``slice_r`` is the degree-r part of the field's nonlinearity along the
    flow known below degree r; ``push`` and ``pull`` are the couplings of
    e^(tN) and e^(-tN) (:func:`_nil_flow`).  B = S + N with S diagonal and
    N coupling only coordinates of equal mu, so e^(-sS) cancels each
    component's factor e^(mu_j s) and e^(tS) restores it: only the
    nilpotent factors act on the TrigPoly coefficients.
    """
    inner = {}
    for k, p in _nil_apply(pull, slice_r).items():
        if q := p.integrate_to_t():
            inner[k] = q
    return _nil_apply(push, inner)


def flow_jet(X, degree=None) -> FlowJet:
    """Flow of the field X = By + v (an :class:`embedflow.embedding.FieldGerm`)
    as a jet with TrigPoly coefficients; phi(0, y) = y.

    The linear flow is e^(tB) y = e^(tS) e^(tN) y; each degree above it
    is one :func:`_flow_step`, with v's terms taken as
    :func:`_lattice_terms` gives them at ``X.tol``, the tolerance that
    decided X's support.  v is composed with the flow online
    (:class:`embedflow.jets._OnlineComposition` over the TrigPoly ring):
    the degree-r slice of v along the flow reads the flow below degree r
    only, and each degree of the flow is appended as it is found.
    """
    N = X.degree if degree is None else degree
    tri = X.linear.triangular()
    exact_ring = tri.exact_ring(X.mode)
    unit = TrigPoly({(0, 0): _one(MODE_EXACT if exact_ring else MODE_FLOAT)})
    push, pull = _nil_flow(tri, 1, exact_ring), _nil_flow(tri, -1, exact_ring)
    n = tri.dim
    coeffs = _nil_apply(push, {(i, MultiIndex.unit(n, i)): unit for i in range(n)})
    phi = _OnlineComposition(
        [{m: p for (j, m), p in coeffs.items() if j == i} for i in range(n)], N
    )
    v = X.nonlinear if exact_ring else X.nonlinear.to_float()
    terms = _lattice_terms(v.coeffs, tri.eigen, X.tol)
    for r in range(2, N + 1):
        # terms of v above degree r add nothing to the degree-r slice
        part = _flow_step(phi.degree_slice(terms, r), push, pull)
        phi.extend(part)
        coeffs.update(part)
    return FlowJet(n, N, coeffs, tuple(tri.eigen.mu_complex()))
