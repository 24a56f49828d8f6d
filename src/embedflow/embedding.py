"""Embedding vector fields for normal-form germs.

Given G(y) = Ay + g(y) in distinguished normal form and a real logarithm
B = S + N of A (S diagonal, N nilpotent, commuting), a field X(y) =
By + v(y) embeds G when its time-one map equals G.  When v is
field-resonant it commutes with the linear field Sy, so e^X = e^S o e^Y
with Y = Ny + v, and Y is the logarithm of the unipotent map

    U = e^(-S) o G,        Y = log U = sum_k (-1)^(k+1)/k D_k,

with D_0 = id and D_k = D_(k-1) o U - D_(k-1) (Takens 1974; Ilyashenko &
Yakovenko, Lectures on Analytic Differential Equations, 2008).  U's
linear part is unipotent, so the series ends: D_k vanishes after finitely
many rounds, and the solve needs nothing but jet composition.  The
nonlinear part of Y is field-resonant or weakly resonant; a nonzero weakly
resonant coefficient is a certificate that no field supported on these
monomials embeds G with this logarithm branch.  Coefficient arithmetic is
exact whenever the eigenvalues are Gaussian rational and the input jet
carries exact coefficients.

The flow of a field (:func:`flow_jet`) is built degree by degree from
closed-form integrals over the ring :class:`embedflow.exppoly.TrigPoly`
of polynomials in t and e^(2*pi*i*t), with integer frequencies read from
the one lattice rule of :mod:`embedflow.resonance`; it checks the solve,
shares no step with it, and is checked in turn by an ODE oracle that uses
neither.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

from .exppoly import TrigPoly
from .jets import (
    MODE_EXACT,
    MODE_FLOAT,
    MultiIndex,
    PolyJet,
    _composer,
    _OnlineComposition,
    _one,
    compose,
    jacobian_apply,
    jet_distance,
)
from .normal_form import GermSpec
from .resonance import ResonanceReport, _classify, _delta, _mu, field_resonances
from .scalars import EigenScalar, ExactnessError, QQi
from .spectral import BlockMatrix, SpectralError, TriangularLinear, log_residual
from .tolerances import (
    DEFAULT_TOL,
    LOG_RESIDUAL,
    ODE_ROUNDOFF,
    ODE_STEPS_PER_RATE,
    STRAY_DEMAND,
)

__all__ = [
    "FieldGerm",
    "Obstruction",
    "FlowJet",
    "solve_embedding",
    "flow_jet",
    "embedding_residual",
    "time_one",
    "time_one_residuals",
    "time_one_steps",
    "appendix_identity_check",
]


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


def _flow_unit(exact_ring: bool) -> TrigPoly:
    """The constant 1 of the flow-coefficient ring."""
    return TrigPoly({(0, 0): _one(MODE_EXACT if exact_ring else MODE_FLOAT)})


def _lattice_terms(coeffs: dict, eigen, tol: float):
    """``(terms, off)``: the terms c y^m of component j whose (j, m) lies on
    the resonance lattice, as c e^(-2*pi*i*l*t), l their witness
    (:func:`embedflow.resonance._classify`), and the (j, m) off it.

    Along a flow phi = e^(mu t) psi, componentwise, the term gives
    c e^(<m, mu> t) psi^m = e^(mu_j t) c e^(-2*pi*i*l*t) psi^m, so in the
    TrigPoly ring it carries the second factor.
    """
    support = list(coeffs)
    M = np.array([m for _, m in support], dtype=np.int64).reshape(len(support), len(eigen))
    hit, l, _ = _classify(_mu(eigen), M, tol)
    terms, off = {}, []
    for t, ((j, m), c) in enumerate(coeffs.items()):
        if hit[j, t]:
            terms[(j, m)] = TrigPoly({(0, -int(l[j, t])): c})
        else:
            off.append((j, tuple(m)))
    return terms, off


# -- the nilpotent part ----------------------------------------------------------


def _nil_powers(tri: TriangularLinear, exact_ring: bool):
    """Powers N^p as sparse dicts {(i,k): scalar}, p >= 1, until nilpotent."""
    n = tri.dim
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
        if len(out) > n:
            raise SpectralError("nilpotent part fails to terminate")
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


def _exact_ring(tri: TriangularLinear, mode: str) -> bool:
    """Whether flow coefficients stay exact (QQi/PiPoly): an exact-mode
    jet over exact eigen data with Gaussian-rational couplings."""
    return (
        mode == MODE_EXACT
        and tri.eigen.exact
        and all(isinstance(c, QQi) for _, _, c in tri.nil)
    )


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


# -- public types ---------------------------------------------------------------


@dataclass(frozen=True)
class FieldGerm:
    """Vector field jet X(y) = By + v(y) with resonant/weak support.

    ``linear`` must be a logarithm block matrix (see
    :func:`embedflow.spectral.real_log`); its eigen data fixes the
    resonance classes that constrain the support of ``v``, decided at
    ``tol``: the tolerance of the solve that built the field.
    """

    linear: BlockMatrix
    nonlinear: PolyJet
    degree: int
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.linear.is_log:
            raise ValueError(
                "field linear part must be a logarithm (LogBlock matrix)"
            )
        if self.nonlinear.dim != self.linear.dim:
            raise ValueError("linear and nonlinear dimensions differ")
        if self.nonlinear.degree != self.degree:
            raise ValueError("nonlinear jet truncation must match degree")
        if self.nonlinear.coeffs and self.nonlinear.min_degree() < 2:
            raise ValueError("nonlinear part must vanish to second order")
        _, bad = _lattice_terms(self.nonlinear.coeffs, self.linear.triangular().eigen, self.tol)
        if bad:
            raise ValueError(
                f"field support must be resonant or weakly resonant; got {bad}"
            )

    @property
    def dim(self) -> int:
        return self.linear.dim

    @property
    def mode(self) -> str:
        return self.nonlinear.mode

    def field_jet(self) -> PolyJet:
        tri = self.linear.triangular()
        mode = self.mode
        if mode == MODE_EXACT:
            # The diagonal of B is transcendental; only the nonlinear part
            # stays exact.  Callers needing one jet get the float view.
            mode = MODE_FLOAT
        return tri.linear_jet(self.degree, mode) + self.nonlinear.to_float()


@dataclass(frozen=True)
class Obstruction:
    """Certificate that an embedding field would need weak directions.

    ``entries`` lists (j, m, l, demand): the weakly resonant monomials of
    the lowest degree on which log(e^(-S) G) has a nonzero coefficient,
    the demand.  The degree-r averaging operator T^r is 0 on these rows,
    so no field term meets it.  The certificate is branch-specific: it
    rules out embedding fields with resonant+weak support for this
    logarithm only.
    """

    entries: tuple
    degree: int
    cause: str

    def blocked_set(self) -> frozenset:
        return frozenset((j, tuple(m), l) for j, m, l, _ in self.entries)


# -- the solve ------------------------------------------------------------------


def _ring_flags(tri: TriangularLinear, mode: str) -> bool:
    exact_ring = _exact_ring(tri, mode) and tri.eigen.lambda_exact() is not None
    if mode == MODE_EXACT and not exact_ring:
        raise ExactnessError(
            "exact solve needs exact eigen data and Gaussian-rational "
            "eigenvalues; rerun in float mode"
        )
    return exact_ring


def _is_zero(c, exact_ring: bool, tol: float) -> bool:
    if exact_ring or isinstance(c, (QQi, int, Fraction)):
        return not bool(c)
    return abs(complex(c)) <= tol


def _validate_normal_form(G: GermSpec, report: ResonanceReport, tol: float):
    allowed = report.field_set() | report.weak_set()
    bad = []
    for (j, m), c in G.nonlinear.coeffs.items():
        if (j, m) not in allowed:
            if G.mode == MODE_EXACT or abs(complex(c)) > tol:
                bad.append((j, tuple(m)))
    if bad:
        raise ValueError(
            "germ is not in distinguished normal form for this logarithm: "
            f"nonresonant monomials {bad}"
        )


def solve_embedding(G: GermSpec, B: BlockMatrix, tol: float = DEFAULT_TOL):
    """Construct the embedding field jet for a normal-form germ, or refuse.

    Computes Y = log U for the unipotent map U = e^(-S) G, S the diagonal
    of B, by the series ``Y = sum_k (-1)^(k+1)/k D_k`` with ``D_0 = id``
    and ``D_k = D_(k-1) o U - D_(k-1)``.  Returns a :class:`FieldGerm`
    ``B + v`` with v the nonlinear part of Y on field-resonant monomials,
    or, at the lowest degree where Y has a nonzero weakly resonant
    coefficient, an :class:`Obstruction` naming those coefficients.
    Raises :class:`SpectralError` when exp(B) != A.
    """
    if not B.is_log:
        raise ValueError("B must be a logarithm block matrix")
    N = G.degree
    scale = float(np.max(np.abs(G.linear.to_dense())))
    res = log_residual(G.linear, B)
    if res > LOG_RESIDUAL * max(1.0, scale):
        raise SpectralError(
            f"exp(B) differs from the germ's linear part by {res:.2e}"
        )
    tri = B.triangular()
    exact_ring = _ring_flags(tri, G.mode)
    report = field_resonances(tri.eigen, max(N, 2), tol)  # N = 1 solves nothing
    _validate_normal_form(G, report, tol)
    n = tri.dim
    jet_mode = MODE_EXACT if exact_ring else MODE_FLOAT
    one = _one(jet_mode)
    lam = tri.eigen.lambda_exact() if exact_ring else tri.eigen.lambda_complex()
    inv = [one / x for x in lam]
    # U = e^(-S) G.  Its linear diagonal is set to exactly 1, so that a
    # round keeps only terms that a coupling or a nonlinear term moved.
    U = PolyJet(
        n,
        N,
        jet_mode,
        {
            (j, m): one if m == MultiIndex.unit(n, j) else inv[j] * c
            for (j, m), c in G.map_jet().coeffs.items()
        },
    )
    # Give y_i the weight 2s - 1 - c_i, where c_i < s counts the couplings
    # from coordinate i up to the head of its Jordan chain.  A coupling
    # term of U trades y_i for a heavier coordinate and a nonlinear term
    # for a monomial of weight at least 2s, so every round raises the
    # lowest weight in D_k, which is s in D_0.  No monomial of degree <= N
    # weighs more than N(2s - 1), so D_k = 0 for k > N(2s - 1) - s.
    s = len(_nil_powers(tri, exact_ring)) + 1
    D = PolyJet.identity(n, N, jet_mode)
    Y = PolyJet.zero(n, N, jet_mode)
    compose_u = _composer(U, N)  # U's powers serve every round
    for k in range(1, N * (2 * s - 1) - s + 1):
        D = compose_u(D) - D
        if not D.coeffs:
            break
        w = Fraction((-1) ** (k + 1), k)
        Y = Y + D.scale(w if exact_ring else complex(w))

    field = report.field_set()
    weak = {(j, m): l for j, m, l in report.weak}
    for r in range(2, N + 1):
        y_r = Y.degree_slice(r).coeffs
        stray = sorted(
            k
            for k, c in y_r.items()
            if k not in field
            and k not in weak
            and not _is_zero(c, exact_ring, STRAY_DEMAND)
        )
        if stray:
            raise ArithmeticError(
                f"nonresonant coefficient appeared at degree {r}: {stray}"
            )
        blocked = [
            (j, m, weak[(j, m)], complex(c))
            for (j, m), c in sorted(y_r.items())  # the order of report.basis(r)
            if (j, m) in weak and not _is_zero(c, exact_ring, tol)
        ]
        if blocked:
            return Obstruction(
                tuple(blocked),
                r,
                "weakly resonant demand outside the range of the degree-"
                f"{r} averaging operator (branch-specific certificate)",
            )
    v = PolyJet(n, N, jet_mode, {k: c for k, c in Y.coeffs.items() if k in field})
    return FieldGerm(B, v, N, tol)


def flow_jet(X: FieldGerm, degree=None) -> FlowJet:
    """Flow of X as a jet with TrigPoly coefficients; phi(0, y) = y.

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
    exact_ring = _exact_ring(tri, X.mode)
    unit = _flow_unit(exact_ring)
    push, pull = _nil_flow(tri, 1, exact_ring), _nil_flow(tri, -1, exact_ring)
    n = tri.dim
    coeffs = _nil_apply(push, {(i, MultiIndex.unit(n, i)): unit for i in range(n)})
    phi = _OnlineComposition(
        [{m: p for (j, m), p in coeffs.items() if j == i} for i in range(n)], N
    )
    v = X.nonlinear if exact_ring else X.nonlinear.to_float()
    terms, _ = _lattice_terms(v.coeffs, tri.eigen, X.tol)
    for r in range(2, N + 1):
        # terms of v above degree r add nothing to the degree-r slice
        part = _flow_step(phi.degree_slice(terms, r), push, pull)
        phi.extend(part)
        coeffs.update(part)
    return FlowJet(n, N, coeffs, tuple(tri.eigen.mu_complex()))


# -- residuals and oracles -------------------------------------------------------


def embedding_residual(G: GermSpec, X: FieldGerm) -> PolyJet:
    """Jet of X(G(y)) - DG(y) X(y); zero is necessary for X to embed G."""
    if G.dim != X.dim:
        raise ValueError("dimension mismatch")
    N = min(G.degree, X.degree)
    Gjet = G.map_jet().to_float().truncate(N)
    Xjet = X.field_jet().truncate(N)
    left = compose(Xjet, Gjet, degree=N)
    right = jacobian_apply(Gjet, Xjet, degree=N)
    return left - right


def _reachable(tri: TriangularLinear, v: PolyJet, degree: int):
    """The columns (j, m) of the jet-coefficient equations that can become
    nonzero between the identity and time one, sorted by degree, then
    component, then monomial.

    The closure, from supports only, of the identity columns (k, e_k) under
    B's couplings, which copy (k, m) to (i, m) for each coupling (i, k),
    and under v's terms: a term y^p of component j reaches (j, sum of the
    picks) for every pick of p_i columns of component i.  The picks of a
    term of degree at least 2 lie below the degree they reach, so one pass
    up the degrees closes the set.
    """
    n = tri.dim
    # levels[i][d]: the monomials of degree d reached in component i
    levels = [[set() for _ in range(degree + 1)] for _ in range(n)]
    couplings = sorted((i, k) for i, k, _ in tri.nil)
    terms = [(j, [(i, e) for i, e in enumerate(p) if e]) for j, p in v.coeffs]
    powers: dict = {}

    def power(i, e, d):
        """Sums of e reached monomials of component i, of degree d; for
        e >= 2 only degrees below d enter, so the cached set is final."""
        if e == 1:
            return levels[i][d]
        key = (i, e, d)
        if key not in powers:
            powers[key] = {
                a.plus(b)
                for d1 in range(1, d - e + 2)
                for a in levels[i][d1]
                for b in power(i, e - 1, d - d1)
            }
        return powers[key]

    def picks(factors, d):
        (i, e), rest = factors[0], factors[1:]
        if not rest:
            return power(i, e, d)
        low = sum(f for _, f in rest)
        return {
            a.plus(b)
            for d1 in range(e, d - low + 1)
            for a in power(i, e, d1)
            for b in picks(rest, d - d1)
        }

    for k in range(n):
        levels[k][1].add(MultiIndex.unit(n, k))
    for d in range(1, degree + 1):
        for j, factors in terms:
            if sum(e for _, e in factors) <= d:
                levels[j][d] |= picks(factors, d)
        for i, k in couplings:  # by row, so a chain of couplings closes
            levels[i][d] |= levels[k][d]
    return [
        (j, m) for d in range(1, degree + 1) for j in range(n) for m in sorted(levels[j][d])
    ]


def _composition_table(terms, cols, degree: int):
    """Gather/scatter plan of a field on the jet coefficients ``cols``.

    Applied to the flat vector C of the coefficients of ``cols`` (slot s
    holds the coefficient of y^m in component j for cols[s] = (j, m)), a
    term (j, p, c), c y^p in component j, contributes, for every way of
    picking a p_i-element multiset of the columns of component i for each
    coordinate i within the degree budget, ``mult * prod C[t]`` to the
    coefficient of the summed monomial in component j.  One row per such
    pick: ``out`` is its output slot, ``factors[k]`` the slot of its k-th
    factor (slot len(cols), which holds 1, for rows with fewer factors) and
    ``mult`` is c times the multinomial count of the pick.  Every summed
    column must be among ``cols``; the closure of :func:`_reachable` is.
    """
    n = len(cols[0][1])
    index = {col: s for s, col in enumerate(cols)}
    # the columns of each component, as (slot, monomial), by degree
    own = [[(s, m) for s, (j, m) in enumerate(cols) if j == i] for i in range(n)]
    memo: dict = {}

    def multisets(i, power, budget, start):
        """(slots, degree, exponent sum, multiset coefficient) of each
        nondecreasing pick of ``power`` columns of component i from
        ``start`` on, within a degree budget.

        Memoized: every term and component asks for the same few tables.
        """
        key = (i, power, budget, start)
        if key in memo:
            return memo[key]
        if power == 0:
            found = [((), 0, (0,) * n, 1)]
        else:
            found = []
            for idx in range(start, len(own[i])):
                s, mon = own[i][idx]
                d = mon.degree
                if d > budget:
                    break  # own[i] is sorted by degree
                for rest, dd, total, count in multisets(i, power - 1, budget - d, idx):
                    # rest starts at s or later: count(s) is its leading run
                    found.append(
                        (
                            (s,) + rest,
                            d + dd,
                            tuple(map(add, mon, total)),
                            count * power // (rest.count(s) + 1),
                        )
                    )
        memo[key] = found
        return found

    out, flats, mult = [], [], []
    for j, m, c in terms:
        combos = [((), 0, (0,) * n, 1)]
        later = sum(m)  # factors still to pick, each of degree at least 1
        for i, e in enumerate(m):
            if not e:
                continue
            later -= e
            combos = [
                (flat + idxs, dtot + dd, tuple(map(add, total, sub)), count * sub_count)
                for flat, dtot, total, count in combos
                for idxs, dd, sub, sub_count in multisets(i, e, degree - later - dtot, 0)
            ]
        for flat, _, total, count in combos:
            out.append(index[(j, total)])
            flats.append(flat)
            mult.append(c * count)
    pad = len(cols)
    width = max(map(len, flats), default=1)  # a linear diagonal field has no rows
    factors = np.array(
        [f + (pad,) * (width - len(f)) for f in flats], dtype=np.intp
    ).reshape(len(flats), width).T
    return np.array(out, dtype=np.intp), factors, np.array(mult, dtype=complex)


def _coefficient_plan(cols, terms, degree: int):
    """The map C -> (sum of ``terms``)(C) on the columns ``cols``.

    C is the flat vector of the coefficients of ``cols``; the result is the
    jet of the terms composed with it, truncated at ``degree``.  The plan of
    :func:`_composition_table` is built once; each evaluation is one gather,
    one product over the factors and one ``bincount`` scatter.
    """
    out, factors, mult = _composition_table(terms, cols, degree)
    size = len(cols)
    # real and imaginary parts of row r land in float slots 2*out[r], 2*out[r]+1
    slots = np.stack([2 * out, 2 * out + 1], axis=1).ravel()
    flat = np.ones(size + 1, dtype=complex)  # slot ``size`` stays 1

    def apply(state):
        flat[:size] = state
        contrib = np.multiply.reduce(flat[factors], axis=0)
        contrib *= mult
        return np.bincount(slots, contrib.view(np.float64), 2 * size).view(complex)

    return apply


def _coupled_terms(tri: TriangularLinear, v: PolyJet) -> list:
    """B's couplings and v's terms as ``(j, m, c)``: the field without B's
    diagonal."""
    n = tri.dim
    terms = [(i, MultiIndex.unit(n, k), complex(c)) for i, k, c in tri.nil]
    return terms + [(j, m, complex(c)) for (j, m), c in v.coeffs.items()]


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed.,
# II.5, Table 5.2).  Row s of _DP_A gives stage s+1 from the slopes before
# it, at the node _DP_C[s]; row 6 holds the fifth-order weights, so the
# seventh slope is f at the step's result and serves as the next step's
# first (FSAL).  _DP_E is the fifth-order minus the embedded fourth-order
# weights.
_DP_A = np.zeros((7, 6))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])
_DP_E = np.array(
    [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _row_rate(tri: TriangularLinear, v: PolyJet, degree: int) -> float:
    """The fastest row rate of the ODE oracle's equations.

    In the frame of :func:`_dp5_time_one`, a row of the composition plan
    for the term c y^p of component j moves at ``<p, mu> - mu_j``, whichever
    columns it picks: 0 on field-resonant terms, 2*pi*|l| on weak ones.
    B's couplings join coordinates of equal mu, so their rows do not move.
    The modulus, not the real part, so that oscillating rows are resolved.
    """
    mu = tri.eigen.mu_complex()
    return max(
        (
            abs(sum(e * mu_i for e, mu_i in zip(p, mu) if e) - mu[j])
            for j, p in v.coeffs
            if p.degree <= degree
        ),
        default=0.0,
    )


def _ode_steps(tri: TriangularLinear, v: PolyJet, degree: int) -> int:
    """The rate count of the ODE oracle: ODE_STEPS_PER_RATE steps per unit
    of the fastest row rate of its equations (:func:`_row_rate`), a rate
    below 1 counting as 1.  :func:`_ode_oracle` runs it on every field that
    one step does not resolve."""
    return math.ceil(ODE_STEPS_PER_RATE * max(1.0, _row_rate(tri, v, degree)))


def _dp5_plan(tri: TriangularLinear, v: PolyJet, degree: int):
    """``(cols, g)``: the reachable columns of the oracle's equations
    (:func:`_reachable`) and the plan of g = B C + v(C) less D C on them
    (:func:`_coefficient_plan`)."""
    cols = _reachable(tri, v, degree)
    return cols, _coefficient_plan(cols, _coupled_terms(tri, v), degree)


def _dp5_run(tri: TriangularLinear, plan, steps: int):
    """``(y, local, floor)`` of ``steps`` equal steps on a :func:`_dp5_plan`:
    C(1) on its columns, the sum over the steps of the largest local error
    in C, and the roundoff floor ODE_ROUNDOFF * max |C(1)|."""
    n = tri.dim
    cols, g = plan
    rate = np.array([complex(tri.diag[j]) for j, _ in cols])
    z = np.zeros(len(cols), dtype=complex)
    for k in range(n):
        z[cols.index((k, MultiIndex.unit(n, k)))] = 1.0
    h = 1.0 / steps
    # complex weights, so that no product below casts them on each call
    a = (h * _DP_A).astype(complex)
    e = (h * _DP_E).astype(complex)
    # e^(+-c_s h D) at the nodes of one step
    node = np.exp(np.outer(h * _DP_C, rate))
    back = 1.0 / node
    K = np.empty((7, len(cols)), dtype=complex)  # the slopes of one step, in z
    local = np.empty((steps, len(cols)), dtype=complex)  # their local errors
    K[0] = g(z)
    for i in range(steps):
        start = np.exp(i * h * rate)
        grow = node * start
        shrink = back / start
        for s in range(1, 7):
            stage = z + a[s, :s] @ K[:s]
            K[s] = g(stage * grow[s]) * shrink[s]
        z = stage  # the seventh stage is the step's fifth-order result
        np.dot(e, K, out=local[i])
        K[0] = K[6]
    y = np.exp(rate) * z
    local = float((np.abs(local) * np.exp(rate.real)).max(axis=1).sum())
    return y, local, ODE_ROUNDOFF * float(np.abs(y).max())


def _dp5_jet(tri: TriangularLinear, cols, degree: int, y) -> PolyJet:
    """The float jet of the coefficients ``y`` on the columns ``cols``."""
    terms = [(j, m, c) for (j, m), c in zip(cols, y) if c != 0]
    return PolyJet.build(tri.dim, degree, MODE_FLOAT, terms)


def _dp5_time_one(tri: TriangularLinear, v: PolyJet, degree: int, steps: int):
    """Fixed-step integrating-factor Dormand-Prince 5(4) integration of the
    reachable jet-coefficient equations from the identity to time one, in
    ``steps`` equal steps.

    The state is z = e^(-tD) C, D the rate mu_j of each column (j, m), so
    z' = e^(-tD) g(e^(tD) z) with g = B C + v(C) less D C (Lawson, SIAM J.
    Numer. Anal. 4, 1967; Hochbruck & Ostermann, Acta Numerica 19, 2010).
    A row of g picking columns of rates mu_i into a column of rate mu_j
    moves in z at sum mu_i - mu_j (:func:`_row_rate`), not at the rates of
    e^(tB).  The factors e^(+-tD) at a step's nodes are formed once per step
    and applied exactly at every stage.

    Returns ``(jet, err)``: C(1) = e^D z(1), and the sum over the steps of
    the largest local error in C, ``|e^D|`` times the difference of each
    step's fifth- and fourth-order results in z, plus the roundoff floor
    ODE_ROUNDOFF times the largest coefficient of C(1).  Six right-hand
    sides per step.  :func:`_ode_oracle` chooses the count itself.
    """
    plan = _dp5_plan(tri, v, degree)
    y, local, floor = _dp5_run(tri, plan, steps)
    return _dp5_jet(tri, plan[0], degree, y), local + floor


def _ode_oracle(tri: TriangularLinear, v: PolyJet, degree: int):
    """``(jet, err, steps)``: :func:`_dp5_time_one` at a step count chosen
    from the integrator's own error estimate (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4).

    A field whose rows one step already resolves, ODE_STEPS_PER_RATE * rate
    <= 1 on every row (:func:`_row_rate`), first takes one step, kept when
    that step's local error is within the roundoff floor of the estimate.
    Rate-0 fields whose coefficients are polynomials of low degree in t
    keep it; long Jordan chains do not.  Every other field runs the rate
    count of :func:`_ode_steps` on the same plan, so its jet and estimate
    are those of :func:`_dp5_time_one` at that count.
    """
    plan = _dp5_plan(tri, v, degree)
    if ODE_STEPS_PER_RATE * _row_rate(tri, v, degree) <= 1:
        y, local, floor = _dp5_run(tri, plan, 1)
        if local <= floor:
            return _dp5_jet(tri, plan[0], degree, y), local + floor, 1
    steps = _ode_steps(tri, v, degree)
    y, local, floor = _dp5_run(tri, plan, steps)
    return _dp5_jet(tri, plan[0], degree, y), local + floor, steps


def _oracle_inputs(X: FieldGerm, G: GermSpec):
    """``(tri, v, N)`` of the ODE oracle for X against G: B's triangular
    form and v, at the smaller jet degree N of the two."""
    N = min(G.degree, X.degree)
    return X.linear.triangular(), X.nonlinear.truncate(N), N


def time_one_steps(X: FieldGerm, G: GermSpec, steps=None):
    """``(residual_exp, residual_ode, residual_ode_err, steps)``:
    :func:`time_one` and the step count its ODE oracle took."""
    if G.dim != X.dim:
        raise ValueError("dimension mismatch")
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    tri, v, N = _oracle_inputs(X, G)
    target = G.map_jet().to_float().truncate(N)
    phi = flow_jet(X, N)
    exp_res = jet_distance(phi.at_time(1.0).truncate(N), target)
    if steps is None:
        ode, err, steps = _ode_oracle(tri, v, N)
    else:
        ode, err = _dp5_time_one(tri, v, N, steps)
    return exp_res, jet_distance(ode, target), err, steps


def time_one(X: FieldGerm, G: GermSpec, steps=None):
    """The two independent time-one oracles, against G's map jet.

    Returns ``(residual_exp, residual_ode, residual_ode_err)``: the max-abs
    distance from the map jet of the closed-form flow of X at t = 1 and of
    the Dormand-Prince ODE oracle, and the oracle's own error estimate.
    ``steps`` defaults to the oracle's own choice (:func:`_ode_oracle`):
    one step where that step's local error is within the roundoff floor,
    otherwise the rate count of :func:`_ode_steps`.

    The estimate is the sum of the steps' local errors, carried to time one
    by B's diagonal, plus a roundoff floor (:func:`_dp5_time_one`).  It
    bounds the ODE residual at the rate count, where every step is short
    against the rates of the rows.  On a field whose rows all have rate 0
    (a field-resonant v and B's couplings) the equations in the moving
    frame are polynomial in t, and the estimate has bounded the residual at
    1, 2, 3, 5 and 8 steps on the fixtures, the verify workload and random
    resonant normal forms.  It is not a bound at one step on long Jordan
    chains: sizes (4, 1) at N = 5 can miss by 2.4e-4 against an estimate
    of 2.0e-4.  The oracle keeps one step only where the estimate reads at
    roundoff, eight decades below such chains.  On a field with a moving
    row, such as a weak term, a caller-chosen ``steps`` gives only a
    reading, which may undercut the true error.
    """
    return time_one_steps(X, G, steps)[:3]


def time_one_residuals(X: FieldGerm, G: GermSpec, steps=None):
    """``(residual_exp, residual_ode)`` of :func:`time_one`, without the
    error estimate."""
    return time_one(X, G, steps)[:2]


def appendix_identity_check(B: BlockMatrix, g: PolyJet) -> PolyJet:
    """Jet of Dg(y)·By - B g(y) for diagonal B.

    Term by term the coefficient is (<m, mu> - mu_j) g_{j,m}; with exact
    eigen data a resonant monomial contributes exactly zero.  The returned
    jet is float-mode with exact zeros pruned.
    """
    tri = B.triangular() if isinstance(B, BlockMatrix) else B
    if not tri.is_diagonal:
        raise ValueError("the identity holds for diagonal linear parts only")
    if g.dim != tri.dim:
        raise ValueError("dimension mismatch")
    mu = _mu(tri.eigen)
    terms = []
    for (j, m), c in g.coeffs.items():
        delta = _delta(mu, j, m)
        if isinstance(delta, EigenScalar):
            if delta.is_zero:
                continue
            delta = complex(delta)
        terms.append((j, m, delta * complex(c)))
    return PolyJet.build(g.dim, g.degree, MODE_FLOAT, terms)
