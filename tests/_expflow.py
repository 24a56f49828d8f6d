"""The value-keyed exponential-polynomial flow, kept as a reference.

Terms c * t^k * e^(a*t) keyed by (k, a), with ``a`` an
:class:`EigenScalar` (exact) or complex, close exponents snapped onto
2*pi*i*Z: the ring the flow of an embedding field was first built on.
The package's flow is the Lie series of a field-resonant field
(:mod:`embedflow.flow`); this module is an independent check of that
flow, of the averaging operator T^r (:func:`Tr_matrix`) and of the
forward-substitution solve in ``test_embedding``.  It also serves fields
with weakly resonant terms, which :class:`embedflow.embedding.FieldGerm`
refuses, through :class:`WeakField`.

The ring (``ExpPoly`` and its integrals) is followed by the flow on it:
``FlowJet``, the substitution, the matrices e^(+-tB), one degree step
and :func:`flow_jet`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from embedflow.embedding import FieldGerm
from embedflow.jets import MODE_EXACT, MODE_FLOAT, MultiIndex, PolyJet, _OnlineComposition, _one
from embedflow.resonance import field_resonances
from embedflow.scalars import EigenScalar, ExactnessError, QQi
from embedflow.spectral import BlockMatrix, TriangularLinear
from embedflow.tolerances import DEFAULT_TOL

from _pipoly import PiPoly

# An unsnapped float exponent closer than this to 0 (absolute) is refused
# by ExpPoly.integrate_to_t: its closed-form antiderivative divides by the
# exponent and would amplify roundoff by more than 1e6.
UNSTABLE_EXPONENT = 1e-6

_TWO_PI = 2.0 * math.pi
_EXACT_COEFF = (QQi, PiPoly, int, Fraction)


def key_add(a, b):
    if isinstance(a, EigenScalar) and isinstance(b, EigenScalar):
        return a + b
    return complex(a) + complex(b)


def two_pi_integer(a: EigenScalar):
    """If ``a`` equals 2*pi*i*l with integer l, return l, else None."""
    if not a.real_is_zero:
        return None
    half = a.pi_part / 2
    if half.denominator != 1:
        return None
    return int(half)


def key_two_pi_l(a, tol: float = 0.0):
    """Integer l with a = 2*pi*i*l (exactly, or within ``tol`` for floats)."""
    if isinstance(a, EigenScalar):
        return two_pi_integer(a)
    a = complex(a)
    l = round(a.imag / _TWO_PI)
    if math.hypot(a.real, a.imag - _TWO_PI * l) <= tol:
        return l
    return None


def coeff_is_exact(c) -> bool:
    return isinstance(c, _EXACT_COEFF)


def coeff_mul(c1, c2):
    if coeff_is_exact(c1) and coeff_is_exact(c2):
        return c1 * c2
    return complex(c1) * complex(c2)


def coeff_add(c1, c2):
    if coeff_is_exact(c1) and coeff_is_exact(c2):
        if isinstance(c1, PiPoly) or isinstance(c2, PiPoly):
            return PiPoly.coerce(c1) + PiPoly.coerce(c2)
        return QQi.coerce(c1) + QQi.coerce(c2)
    return complex(c1) + complex(c2)


def _inv_power_exact(l: int, p: int) -> PiPoly:
    """(2*pi*i*l)^(-p) in the PiPoly ring."""
    return PiPoly.monomial(QQi(0, Fraction(-1, 2 * l)) ** p, -p)


class ExpPoly:
    """Finite sum of terms coeff * t^k * e^(a*t), keyed by (k, a)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (k, a), c in terms.items():
                if c:
                    clean[(int(k), a)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    @staticmethod
    def single(c, k: int = 0, a=None) -> "ExpPoly":
        if a is None:
            a = EigenScalar.zero() if coeff_is_exact(c) else 0j
        return ExpPoly({(k, a): c})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                s = coeff_add(out[key], c)
                if not s:
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
        return ExpPoly(out)

    def __sub__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExpPoly({key: -c for key, c in self.terms.items()})

    def scale(self, c) -> "ExpPoly":
        if not c:
            return ExpPoly()
        return ExpPoly(
            {key: coeff_mul(cc, c) for key, cc in self.terms.items()}
        )

    __rmul__ = scale

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out: dict = {}
        for (k1, a1), c1 in self.terms.items():
            for (k2, a2), c2 in other.terms.items():
                key = (k1 + k2, key_add(a1, a2))
                c = coeff_mul(c1, c2)
                if key in out:
                    c = coeff_add(out[key], c)
                if not c:
                    out.pop(key, None)
                else:
                    out[key] = c
        return ExpPoly(out)

    def snap_exponents(self, tol: float) -> "ExpPoly":
        """Round float exponents onto the lattice 2*pi*i*Z when within tol.

        Exact exponents are already decidable and pass through unchanged.
        """
        out: dict = {}
        for (k, a), c in self.terms.items():
            if not isinstance(a, EigenScalar):
                l = key_two_pi_l(a, tol)
                if l is not None:
                    a = complex(0.0, _TWO_PI * l) if l else 0j
            key = (k, a)
            if key in out:
                c = coeff_add(out[key], c)
            if not c:
                out.pop(key, None)
            else:
                out[key] = c
        return ExpPoly(out)

    # -- integration --------------------------------------------------------

    def integrate_unit(self):
        """Integral over [0, 1]; exact exponents must lie in {0} u 2*pi*i*Z."""
        exact_sum = None
        float_sum = 0j
        for (k, a), c in self.terms.items():
            exact_key = isinstance(a, EigenScalar)
            l = key_two_pi_l(a, 0.0)
            if l == 0:
                val = Fraction(1, k + 1)
            elif l is not None:
                val = _unit_integral_weak(k, l, exact_key)
            else:
                if exact_key:
                    raise ExactnessError(
                        "exact unit integral needs exponents in 2*pi*i*Z"
                    )
                val = _unit_integral_general(k, complex(a))
            if coeff_is_exact(c) and coeff_is_exact(val):
                term = c * val if not isinstance(val, PiPoly) else val * c
                exact_sum = term if exact_sum is None else coeff_add(exact_sum, term)
            else:
                float_sum += complex(c) * complex(val)
        if exact_sum is None:
            return float_sum
        if float_sum != 0:
            return complex(exact_sum) + float_sum
        if isinstance(exact_sum, PiPoly):
            collapsed = exact_sum.as_qqi()
            return collapsed if collapsed is not None else exact_sum
        return exact_sum

    def integrate_to_t(self) -> "ExpPoly":
        """Antiderivative vanishing at t = 0.

        Nonzero exponents must be 2*pi*i*l exactly (exact keys) or have
        been snapped onto that lattice (float keys); other float
        exponents are accepted only when safely away from zero.
        """
        out = ExpPoly()
        for (k, a), c in self.terms.items():
            exact_key = isinstance(a, EigenScalar)
            l = key_two_pi_l(a, 0.0)
            if l == 0:
                cc = c * Fraction(1, k + 1) if coeff_is_exact(c) else c / (k + 1)
                out = out + ExpPoly.single(cc, k + 1, a)
                continue
            if exact_key and l is None:
                raise ExactnessError(
                    "exact antiderivative needs exponents in {0} u 2*pi*i*Z"
                )
            if not exact_key and l is None and abs(a) < UNSTABLE_EXPONENT:
                raise ArithmeticError(
                    "refusing unstable integration near a zero exponent; "
                    "snap_exponents first"
                )
            out = out + _anti_weak(c, k, a, l, exact_key)
        return out

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, t: float) -> complex:
        total = 0j
        for (k, a), c in self.terms.items():
            total += complex(c) * t**k * cmath.exp(complex(a) * t)
        return total

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for (k, a), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            piece = f"({c!r})"
            if k:
                piece += f"*t^{k}"
            if not (key_two_pi_l(a, 0.0) == 0):
                piece += f"*e^(({a!r})t)"
            bits.append(piece)
        return "ExpPoly[" + " + ".join(bits) + "]"


def _fact_ratio(k: int, j: int) -> int:
    out = 1
    for v in range(j + 1, k + 1):
        out *= v
    return out


def _unit_integral_general(k: int, a: complex) -> complex:
    """Integral of t^k e^(at) over [0,1] for a float exponent off the lattice."""
    if abs(a) < 2.0:
        # the by-parts form cancels catastrophically as a -> 0; sum the
        # termwise series a^p / (p! (k+p+1)) instead
        total = 0j
        term = 1.0 + 0j
        for p in range(80):
            total += term / (k + p + 1)
            term *= a / (p + 1)
            if abs(term) < 1e-20 * max(1.0, abs(total)):
                break
        return total
    total = 0j
    for j in range(k + 1):
        total += (-1) ** (k - j) * _fact_ratio(k, j) / a ** (k - j + 1)
    return cmath.exp(a) * total + (-1) ** (k + 1) * _fact_ratio(k, 0) / a ** (
        k + 1
    )


def _unit_integral_weak(k: int, l: int, exact_key: bool):
    """Integral of t^k e^(2*pi*i*l*t) over [0,1], with e^(2*pi*i*l) = 1 exact."""
    if exact_key:
        total = PiPoly()
        for j in range(k + 1):
            sign = (-1) ** (k - j)
            total = total + _inv_power_exact(l, k - j + 1) * (
                QQi(sign * _fact_ratio(k, j))
            )
        total = total + _inv_power_exact(l, k + 1) * QQi((-1) ** (k + 1) * _fact_ratio(k, 0))
        return total
    a = complex(0.0, _TWO_PI * l)
    total = 0j
    for j in range(k + 1):
        total += (-1) ** (k - j) * _fact_ratio(k, j) / a ** (k - j + 1)
    total += (-1) ** (k + 1) * _fact_ratio(k, 0) / a ** (k + 1)
    return total


def _anti_weak(c, k: int, a, l, exact_key: bool) -> ExpPoly:
    """Antiderivative of c t^k e^(at), a != 0, vanishing at 0."""
    terms: dict = {}
    exact = coeff_is_exact(c) and l is not None
    zero_key = EigenScalar.zero() if exact_key else 0j
    for j in range(k + 1):
        sign = (-1) ** (k - j)
        if exact:
            w = _inv_power_exact(l, k - j + 1) * QQi(sign * _fact_ratio(k, j)) * c
        else:
            w = (
                complex(c)
                * sign
                * _fact_ratio(k, j)
                / complex(a) ** (k - j + 1)
            )
        key = (j, a)
        terms[key] = coeff_add(terms[key], w) if key in terms else w
    if exact:
        w0 = _inv_power_exact(l, k + 1) * QQi((-1) ** (k + 1) * _fact_ratio(k, 0)) * c
    else:
        w0 = (
            complex(c)
            * (-1) ** (k + 1)
            * _fact_ratio(k, 0)
            / complex(a) ** (k + 1)
        )
    key0 = (0, zero_key)
    terms[key0] = coeff_add(terms[key0], w0) if key0 in terms else w0
    return ExpPoly(terms)


# -- jets with ExpPoly coefficients -------------------------------------------


@dataclass(frozen=True)
class FlowJet:
    """Polynomial jet whose coefficients are functions of time (ExpPoly)."""

    dim: int
    degree: int
    coeffs: dict

    def component(self, i: int) -> dict:
        return {m: p for (j, m), p in self.coeffs.items() if j == i}

    def degree_slice(self, r: int) -> "FlowJet":
        return FlowJet(
            self.dim,
            self.degree,
            {k: p for k, p in self.coeffs.items() if k[1].degree == r},
        )

    def __add__(self, other: "FlowJet") -> "FlowJet":
        out = dict(self.coeffs)
        for k, p in other.coeffs.items():
            s = out.get(k)
            s = p if s is None else s + p
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return FlowJet(self.dim, self.degree, out)

    def at_time(self, t: float) -> PolyJet:
        """Specialize t; float-mode jet."""
        terms = [(j, m, p.eval_at(t)) for (j, m), p in self.coeffs.items()]
        return PolyJet.build(self.dim, self.degree, MODE_FLOAT, terms)


def _substitute_flow(coeffs: dict, phi: FlowJet, r: int, unit: ExpPoly) -> FlowJet:
    """Degree-r part of x(phi(t, y)) for the scalar terms ``coeffs`` of x.

    The jet composition kernel over the ExpPoly ring, whose 1 is ``unit``.
    """
    comps = [phi.component(i) for i in range(phi.dim)]
    out = _OnlineComposition.of(comps, r).substitute(coeffs, r, unit)
    return FlowJet(phi.dim, r, out).degree_slice(r)


def _matrix_apply(mat, jet: FlowJet) -> FlowJet:
    """Componentwise action of a matrix of ExpPoly entries."""
    out: dict = {}
    n = jet.dim
    by_m: dict = {}
    for (k, m), p in jet.coeffs.items():
        by_m.setdefault(m, {})[k] = p
    for m, col in by_m.items():
        for i in range(n):
            total = None
            for k, p in col.items():
                e = mat[i][k]
                if e is None:
                    continue
                term = e * p
                total = term if total is None else total + term
            if total:
                out[(i, m)] = total
    return FlowJet(n, jet.degree, out)


def _snap(jet: FlowJet, tol: float) -> FlowJet:
    return FlowJet(
        jet.dim,
        jet.degree,
        {
            k: q
            for k, p in jet.coeffs.items()
            if (q := p.snap_exponents(tol))
        },
    )


# -- linear exponentials -------------------------------------------------------


def qqi_ring(tri: TriangularLinear, mode: str = MODE_EXACT) -> bool:
    """Whether the reference keeps ``mode`` coefficients in QQi: in exact
    mode, when tri's logs, the exponent keys, are exact and its couplings
    are Gaussian rational.  Otherwise it works in complex floats."""
    return mode == MODE_EXACT and tri.eigen.exact and all(isinstance(c, QQi) for _, _, c in tri.nil)


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


def exp_tB_jet_matrix(tri: TriangularLinear, sign: int, exact_ring: bool):
    """Matrix of e^(sign*t*B) with ExpPoly entries.

    Entry (i, k) is sum_p (sign^p N^p)_{ik} t^p / p! * e^(sign*mu_i*t);
    couplings only join equal-eigenvalue coordinates, so the single
    exponential per row is exact.
    """
    n = tri.dim
    exact_keys = tri.eigen.exact
    mus = tri.eigen.entries
    mat = [[None] * n for _ in range(n)]
    one = QQi(1) if exact_ring else (1.0 + 0.0j)
    for i in range(n):
        key = mus[i].scaled(sign) if exact_keys else sign * complex(mus[i])
        mat[i][i] = ExpPoly.single(one, 0, key)
    fact = 1
    for p, npow in enumerate(_nil_powers(tri, exact_ring), start=1):
        fact *= p
        for (i, k), c in npow.items():
            key = mus[i].scaled(sign) if exact_keys else sign * complex(mus[i])
            if exact_ring:
                w = c * QQi(Fraction(sign**p, fact))
            else:
                w = c * (sign**p / fact)
            term = ExpPoly.single(w, p, key)
            mat[i][k] = term if mat[i][k] is None else mat[i][k] + term
    return mat


def _flow_unit(tri: TriangularLinear, exact_ring: bool) -> ExpPoly:
    """The constant 1 of the flow-coefficient ring, keyed like tri's exponents."""
    zero_key = EigenScalar.zero() if tri.eigen.exact else 0j
    return ExpPoly.single(_one(MODE_EXACT if exact_ring else MODE_FLOAT), 0, zero_key)


def _linear_flow(tri: TriangularLinear, exact_ring: bool, degree: int):
    """(e^(tB), e^(-tB), the linear flow y -> e^(tB) y as a FlowJet)."""
    E = exp_tB_jet_matrix(tri, +1, exact_ring)
    Em = exp_tB_jet_matrix(tri, -1, exact_ring)
    n = tri.dim
    phi0 = FlowJet(
        n,
        degree,
        {
            (i, MultiIndex.unit(n, k)): E[i][k]
            for i in range(n)
            for k in range(n)
            if E[i][k] is not None
        },
    )
    return E, Em, phi0


def _flow_step(phi: FlowJet, slice_r: FlowJet, E, Em, tol: float) -> FlowJet:
    """phi + e^(tB) integral_0^t e^(-sB) slice_r(s) ds: one degree of the flow.

    ``slice_r`` is the degree-r part of the field's nonlinearity along the
    flow known below degree r.
    """
    integrand = _snap(_matrix_apply(Em, slice_r), tol)
    inner = FlowJet(
        phi.dim,
        phi.degree,
        {k: q for k, p in integrand.coeffs.items() if (q := p.integrate_to_t())},
    )
    return phi + _matrix_apply(E, inner)



def _zero_scalar(exact_ring: bool):
    return QQi(0) if exact_ring else 0j


def Tr_matrix(B, r: int, basis=None, tol: float = DEFAULT_TOL):
    """Matrix of the degree-r averaging operator T^r on the resonance basis.

    Returns ``(matrix, basis)``: entries are exact scalars (QQi/PiPoly)
    when the logarithm has exact eigen data and rational couplings, else
    complex.  The default basis is the degree-r part of the field-resonant
    and weak monomials of :func:`field_resonances`; in that order the
    matrix is lower triangular, diagonal 1 on resonant and 0 on weakly
    resonant rows.
    """
    tri = B.triangular() if isinstance(B, BlockMatrix) else B
    if r < 2:
        raise ValueError("degree must be at least 2")
    if basis is None:
        basis = field_resonances(tri.eigen, r, tol).basis(r)
    exact_ring = qqi_ring(tri)
    _, Em, phi1 = _linear_flow(tri, exact_ring, r)
    unit = _flow_unit(tri, exact_ring)
    index = {jm: t for t, jm in enumerate(basis)}
    size = len(basis)
    matrix = [[_zero_scalar(exact_ring)] * size for _ in range(size)]
    one = _one(MODE_EXACT if exact_ring else MODE_FLOAT)
    for col, (j, m) in enumerate(basis):
        probe = {(j, MultiIndex(m)): one}
        image = _snap(_matrix_apply(Em, _substitute_flow(probe, phi1, r, unit)), tol)
        for (i, mm), p in image.coeffs.items():
            row = index.get((i, mm))
            if row is None:
                continue
            matrix[row][col] = p.integrate_unit()
    return matrix, tuple(basis)



class WeakField(FieldGerm):
    """A field B y + v whose support lies on the resonance lattice, weakly
    resonant terms included: a :class:`FieldGerm` without its refusal of
    weak terms, for the reference flow and the ODE oracle."""

    def __post_init__(self):
        report = field_resonances(self.linear.triangular().eigen, max(self.degree, 2), self.tol)
        allowed = report.field_set() | report.weak_set()
        bad = [k for k in self.nonlinear.coeffs if k not in allowed]
        if bad:
            raise ValueError(f"field support must be resonant or weakly resonant; got {bad}")


def flow_jet(X: FieldGerm, degree=None) -> FlowJet:
    """Flow of X as a jet with ExpPoly coefficients; phi(0, y) = y.

    Exponents are snapped onto 2*pi*i*Z at ``X.tol``, the tolerance that
    decided X's support.
    """
    N = X.degree if degree is None else degree
    tri = X.linear.triangular()
    exact_ring = qqi_ring(tri, X.mode)
    unit = _flow_unit(tri, exact_ring)
    E, Em, phi = _linear_flow(tri, exact_ring, N)
    v = X.nonlinear if exact_ring else X.nonlinear.to_float()
    for r in range(2, N + 1):
        # terms of v above degree r are skipped by the substitution
        phi = _flow_step(phi, _substitute_flow(v.coeffs, phi, r, unit), E, Em, X.tol)
    return phi
