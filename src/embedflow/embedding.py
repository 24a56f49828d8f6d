"""Embedding vector fields for normal-form germs.

Given G(y) = Ay + g(y) in distinguished normal form and a real logarithm
B of A, a candidate field X(y) = By + v(y) embeds G when its time-one map
equals G.  Writing the flow degree by degree turns that condition into

    T^r X_r = e^{-B} g_r - integral_0^1 e^{-sB} P_r(s, y) ds,

per degree r, where T^r averages a degree-r field along the linear flow
(X_r mapsto integral of e^{-sB} X_r(e^{sB} y) ds) and P_r collects the
already known lower-degree terms.  On the basis of resonant and weakly
resonant monomials, ordered by coordinate and then reverse
lexicographically, T^r is lower triangular with diagonal 1 on resonant
monomials and exactly 0 on weakly resonant ones: the solve is forward
substitution, and a weakly resonant row with nonzero demand is a
certificate that no field supported on these monomials embeds G with
this logarithm branch.

Every exponential showing up has exponent 0 or 2*pi*i*l (the resonance
class of its monomial), so the ExpPoly integrals are closed-form and,
with exact eigen data, exact; coefficient arithmetic is exact as well
whenever the eigenvalues are Gaussian rational and the input jet carries
exact coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

from .exppoly import ExpPoly, coeff_complex, key_two_pi_l
from .jets import (
    MODE_EXACT,
    MODE_FLOAT,
    MultiIndex,
    PolyJet,
    compose,
    jacobian_apply,
    jet_distance,
    multiindices,
)
from .normal_form import GermSpec
from .scalars import EigenScalar, ExactnessError, PiPoly, QQi
from .spectral import BlockMatrix, SpectralError, TriangularLinear, log_residual

__all__ = [
    "FieldGerm",
    "Obstruction",
    "FlowJet",
    "Tr_matrix",
    "solve_embedding",
    "flow_jet",
    "embedding_residual",
    "time_one_check",
    "time_one_residuals",
    "appendix_identity_check",
]

_TOL = 1e-9
_TWO_PI = 2.0 * math.pi


# -- class table -------------------------------------------------------------


@dataclass(frozen=True)
class _MonomialClass:
    """Resonance class of one (j, m): the exponent <m,mu> - mu_j."""

    kind: str  # "res" | "weak" | "non"
    shift: int | None  # witness l with mu_j - <m,mu> = 2*pi*i*l (weak only)
    key: object  # the exponent, exact or snapped complex


class _ClassTable:
    """Per-monomial resonance classes for one field linear part."""

    def __init__(self, tri: TriangularLinear, degree: int, tol: float):
        self.tri = tri
        self.degree = degree
        self.tol = tol
        self.exact = tri.eigen.exact
        self.entries: dict = {}
        n = tri.dim
        mus = tri.eigen.entries
        for j in range(n):
            for r in range(2, degree + 1):
                for m in multiindices(n, r):
                    if self.exact:
                        delta = EigenScalar.zero()
                        for e, mu in zip(m, mus):
                            if e:
                                delta = delta + mu.scaled(e)
                        delta = delta - mus[j]
                        l = delta.two_pi_integer()
                        if l is None:
                            cls = _MonomialClass("non", None, delta)
                        elif l == 0:
                            cls = _MonomialClass("res", None, delta)
                        else:
                            cls = _MonomialClass("weak", -l, delta)
                    else:
                        delta = sum(
                            e * complex(mu) for e, mu in zip(m, mus) if e
                        ) - complex(mus[j])
                        l = key_two_pi_l(delta, tol)
                        if l is None:
                            cls = _MonomialClass("non", None, delta)
                        else:
                            snapped = complex(0.0, _TWO_PI * l) if l else 0j
                            kind = "res" if l == 0 else "weak"
                            cls = _MonomialClass(
                                kind, -l if l else None, snapped
                            )
                    self.entries[(j, m)] = cls

    def __getitem__(self, key) -> _MonomialClass:
        return self.entries[key]

    def basis(self, r: int, include_weak: bool = True):
        """Resonant (+ weak) monomials of degree r: j ascending, reverse lex."""
        out = [
            (j, m)
            for (j, m), cls in self.entries.items()
            if m.degree == r
            and (cls.kind == "res" or (include_weak and cls.kind == "weak"))
        ]
        out.sort(key=lambda jm: (jm[0], tuple(jm[1])))
        return tuple(out)

    def zero_key(self):
        return EigenScalar.zero() if self.exact else 0j


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
        return PolyJet.build(self.dim, self.degree, MODE_FLOAT, terms, tol=0.0)

    def max_abs(self) -> float:
        return max((p.max_abs() for p in self.coeffs.values()), default=0.0)


def _series_mul(p1: dict, p2: dict, limit: int) -> dict:
    out: dict = {}
    for m1, f1 in p1.items():
        d1 = m1.degree
        for m2, f2 in p2.items():
            if d1 + m2.degree > limit:
                continue
            m = m1.plus(m2)
            f = f1 * f2
            s = out.get(m)
            s = f if s is None else s + f
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _substitute(xjet: PolyJet, phi: FlowJet, limit: int, one_coeff, zero_key) -> FlowJet:
    """Compose a scalar-coefficient field with an ExpPoly-coefficient jet."""
    n = xjet.dim
    comps = [phi.component(i) for i in range(n)]
    unit = {MultiIndex.zeros(n): ExpPoly.single(one_coeff, 0, zero_key)}
    powers: dict = {}

    def power(i: int, e: int) -> dict:
        key = (i, e)
        if key not in powers:
            if e == 1:
                powers[key] = comps[i]
            else:
                powers[key] = _series_mul(power(i, e - 1), comps[i], limit)
        return powers[key]

    out: dict = {}
    for (j, m), c in xjet.coeffs.items():
        poly = unit
        for i, e in enumerate(m):
            if e:
                poly = _series_mul(poly, power(i, e), limit)
        for mm, f in poly.items():
            term = f.scale(c)
            if not term:
                continue
            key = (j, mm)
            s = out.get(key)
            s = term if s is None else s + term
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return FlowJet(n, limit, out)


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


def _nil_matrix(tri: TriangularLinear, exact_ring: bool):
    n = tri.dim
    mat = [[None] * n for _ in range(n)]
    for i, k, c in tri.nil:
        mat[i][k] = c if exact_ring else complex(c)
    return mat


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


def exp_B_matrix(tri: TriangularLinear, sign: int, exact_ring: bool):
    """Dense scalar matrix e^(sign*B) = exp of the jet matrix at t = 1."""
    n = tri.dim
    lam_exact = tri.eigen.lambda_exact() if exact_ring else None
    if exact_ring and lam_exact is None:
        raise ExactnessError(
            "exact solve needs Gaussian-rational map eigenvalues; "
            "rerun in float mode"
        )
    mat = [[None] * n for _ in range(n)]
    for i in range(n):
        if exact_ring:
            lam = lam_exact[i]
            mat[i][i] = lam if sign > 0 else QQi(1) / lam
        else:
            if isinstance(tri.eigen.entries[i], EigenScalar):
                lam = tri.eigen.entries[i].exp_complex()
            else:
                import cmath

                lam = cmath.exp(complex(tri.eigen.entries[i]))
            mat[i][i] = lam if sign > 0 else 1.0 / lam
    fact = 1
    for p, npow in enumerate(_nil_powers(tri, exact_ring), start=1):
        fact *= p
        for (i, k), c in npow.items():
            if exact_ring:
                w = c * QQi(Fraction(sign**p, fact)) * mat[i][i]
            else:
                w = complex(c) * (sign**p / fact) * mat[i][i]
            mat[i][k] = w if mat[i][k] is None else mat[i][k] + w
    return mat


# -- public types ---------------------------------------------------------------


@dataclass(frozen=True)
class FieldGerm:
    """Vector field jet X(y) = By + v(y) with resonant/weak support.

    ``linear`` must be a logarithm block matrix (see
    :func:`embedflow.spectral.real_log`); its eigen data fixes the
    resonance classes that constrain the support of ``v``.
    """

    linear: BlockMatrix
    nonlinear: PolyJet
    degree: int

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
        table = _ClassTable(self.linear.triangular(), self.degree, _TOL)
        bad = [
            (j, tuple(m))
            for (j, m) in self.nonlinear.coeffs
            if table[(j, m)].kind == "non"
        ]
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
    """Certificate that the triangular solve failed on weak directions.

    ``entries`` lists (j, m, l, residual): weakly resonant monomials whose
    right-hand side demand is nonzero while the T^r diagonal is 0.  The
    certificate is branch-specific: it rules out embedding fields with
    resonant+weak support for this logarithm only.
    """

    entries: tuple
    degree: int
    cause: str

    def blocked_set(self) -> frozenset:
        return frozenset((j, tuple(m), l) for j, m, l, _ in self.entries)


# -- T^r and the solve ----------------------------------------------------------


def _ring_flags(tri: TriangularLinear, mode: str):
    exact_keys = tri.eigen.exact
    exact_ring = (
        mode == MODE_EXACT
        and exact_keys
        and all(isinstance(c, QQi) for _, _, c in tri.nil)
        and tri.eigen.lambda_exact() is not None
    )
    if mode == MODE_EXACT and not exact_ring:
        raise ExactnessError(
            "exact solve needs exact eigen data and Gaussian-rational "
            "eigenvalues; rerun in float mode"
        )
    return exact_keys, exact_ring


def _one(exact_ring: bool):
    return QQi(1) if exact_ring else (1.0 + 0.0j)


def _zero_scalar(exact_ring: bool):
    return QQi(0) if exact_ring else 0j


def _is_zero(c, exact_ring: bool, tol: float) -> bool:
    if exact_ring or isinstance(c, (QQi, int, Fraction)):
        return not bool(c)
    return abs(coeff_complex(c)) <= tol


def Tr_matrix(B, r: int, basis=None, include_weak: bool = True, tol: float = _TOL):
    """Matrix of the degree-r averaging operator T^r on the resonance basis.

    Returns ``(matrix, basis)``: entries are exact scalars (QQi/PiPoly)
    when the logarithm has exact eigen data and rational couplings, else
    complex.  With the default basis ordering the matrix is lower
    triangular, diagonal 1 on resonant and 0 on weakly resonant rows.
    """
    tri = B.triangular() if isinstance(B, BlockMatrix) else B
    if r < 2:
        raise ValueError("degree must be at least 2")
    table = _ClassTable(tri, r, tol)
    if basis is None:
        basis = table.basis(r, include_weak)
    exact_keys = tri.eigen.exact
    exact_ring = exact_keys and all(isinstance(c, QQi) for _, _, c in tri.nil)
    E = exp_tB_jet_matrix(tri, +1, exact_ring)
    Em = exp_tB_jet_matrix(tri, -1, exact_ring)
    n = tri.dim
    phi1 = FlowJet(
        n,
        r,
        {
            (i, MultiIndex.unit(n, k)): E[i][k]
            for i in range(n)
            for k in range(n)
            if E[i][k] is not None
        },
    )
    index = {jm: t for t, jm in enumerate(basis)}
    size = len(basis)
    matrix = [[_zero_scalar(exact_ring)] * size for _ in range(size)]
    one = _one(exact_ring)
    zk = table.zero_key()
    for col, (j, m) in enumerate(basis):
        probe = PolyJet(
            n, r, MODE_EXACT if exact_ring else MODE_FLOAT, {(j, m): one}
        )
        image = _matrix_apply(Em, _substitute(probe, phi1, r, one, zk))
        image = _snap(image, tol)
        for (i, mm), p in image.coeffs.items():
            row = index.get((i, mm))
            if row is None:
                continue
            matrix[row][col] = p.integrate_unit()
    return matrix, tuple(basis)


def _validate_normal_form(G: GermSpec, table: _ClassTable, tol: float):
    bad = []
    for (j, m), c in G.nonlinear.coeffs.items():
        if table[(j, m)].kind == "non":
            if G.mode == MODE_EXACT or abs(complex(c)) > tol:
                bad.append((j, tuple(m)))
    if bad:
        raise ValueError(
            "germ is not in distinguished normal form for this logarithm: "
            f"nonresonant monomials {bad}"
        )


def solve_embedding(G: GermSpec, B: BlockMatrix, degree=None, tol: float = _TOL):
    """Construct the embedding field jet for a normal-form germ, or refuse.

    Returns a :class:`FieldGerm` with field-resonant support (weak
    coefficients are forced to 0, matching the uniqueness of the solve in
    the resonant space), or an :class:`Obstruction` naming the weakly
    resonant monomials whose demand cannot be met.  Raises
    :class:`SpectralError` when exp(B) != A.
    """
    if not B.is_log:
        raise ValueError("B must be a logarithm block matrix")
    N = G.degree if degree is None else degree
    scale = float(np.max(np.abs(G.linear.to_dense())))
    res = log_residual(G.linear, B)
    if res > 1e-8 * max(1.0, scale):
        raise SpectralError(
            f"exp(B) differs from the germ's linear part by {res:.2e}"
        )
    tri = B.triangular()
    _, exact_ring = _ring_flags(tri, G.mode)
    table = _ClassTable(tri, N, tol)
    _validate_normal_form(G, table, tol)
    n = tri.dim
    one = _one(exact_ring)
    zk = table.zero_key()
    jet_mode = MODE_EXACT if exact_ring else MODE_FLOAT
    g = G.nonlinear if exact_ring else G.nonlinear.to_float()

    E = exp_tB_jet_matrix(tri, +1, exact_ring)
    Em = exp_tB_jet_matrix(tri, -1, exact_ring)
    eBm = exp_B_matrix(tri, -1, exact_ring)
    phi = FlowJet(
        n,
        N,
        {
            (i, MultiIndex.unit(n, k)): E[i][k]
            for i in range(n)
            for k in range(n)
            if E[i][k] is not None
        },
    )
    x_coeffs: dict = {}
    for r in range(2, N + 1):
        x_below = PolyJet(
            n, N, jet_mode, {k: c for k, c in x_coeffs.items() if k[1].degree < r}
        )
        P = _substitute(x_below, phi, r, one, zk).degree_slice(r)
        integrand = _snap(_matrix_apply(Em, P), tol)
        rhs: dict = {}
        for (i, m), p in integrand.coeffs.items():
            val = p.integrate_unit()
            if not _is_zero(val, exact_ring, 0.0):
                rhs[(i, m)] = -val if exact_ring else -coeff_complex(val)
        for (j, m), c in g.degree_slice(r).coeffs.items():
            for i in range(n):
                w = eBm[i][j]
                if w is None:
                    continue
                add = w * c if exact_ring else coeff_complex(w) * coeff_complex(c)
                prev = rhs.get((i, m))
                val = add if prev is None else prev + add
                rhs[(i, m)] = val
        basis = table.basis(r, include_weak=True)
        basis_set = set(basis)
        stray = {
            k: v
            for k, v in rhs.items()
            if k not in basis_set and not _is_zero(v, exact_ring, 1e-7)
        }
        if stray:
            raise ArithmeticError(
                f"nonresonant demand appeared at degree {r}: {sorted(stray)}"
            )
        matrix, basis = Tr_matrix(tri, r, basis, tol=tol)
        sol: list = []
        blocked = []
        for row, (j, m) in enumerate(basis):
            acc = rhs.get((j, m), _zero_scalar(exact_ring))
            for col in range(row):
                t = matrix[row][col]
                xc = sol[col]
                if _is_zero(t, exact_ring, 0.0) or _is_zero(xc, exact_ring, 0.0):
                    continue
                prod = t * xc if exact_ring else coeff_complex(t) * coeff_complex(xc)
                acc = acc - prod
            cls = table[(j, m)]
            if cls.kind == "res":
                sol.append(acc)
            else:
                if not _is_zero(acc, exact_ring, tol):
                    blocked.append((j, m, cls.shift, coeff_complex(acc)))
                sol.append(_zero_scalar(exact_ring))
        if blocked:
            return Obstruction(
                tuple(blocked),
                r,
                "weakly resonant demand outside the range of the degree-"
                f"{r} averaging operator (branch-specific certificate)",
            )
        for (j, m), v in zip(basis, sol):
            if _is_zero(v, exact_ring, 0.0):
                continue
            if exact_ring:
                if isinstance(v, PiPoly):
                    q = v.as_qqi()
                    if q is None:
                        raise ExactnessError(
                            "resonant coefficient left the Gaussian-rational ring"
                        )
                    v = q
                x_coeffs[(j, m)] = QQi.coerce(v)
            else:
                x_coeffs[(j, m)] = coeff_complex(v)
        x_r = PolyJet(
            n, N, jet_mode, {k: v for k, v in x_coeffs.items() if k[1].degree == r}
        )
        inhom = (P + _substitute(x_r, phi, r, one, zk).degree_slice(r))
        integrand = _snap(_matrix_apply(Em, inhom), tol)
        inner = FlowJet(
            n,
            N,
            {k: q for k, p in integrand.coeffs.items() if (q := p.integrate_to_t())},
        )
        phi = phi + _matrix_apply(E, inner)
    v = PolyJet(n, N, jet_mode, x_coeffs)
    return FieldGerm(B, v, N)


def flow_jet(X: FieldGerm, degree=None, tol: float = _TOL) -> FlowJet:
    """Flow of X as a jet with ExpPoly coefficients; phi(0, y) = y."""
    N = X.degree if degree is None else degree
    tri = X.linear.triangular()
    exact_ring = (
        X.mode == MODE_EXACT
        and tri.eigen.exact
        and all(isinstance(c, QQi) for _, _, c in tri.nil)
    )
    zk = EigenScalar.zero() if tri.eigen.exact else 0j
    one = _one(exact_ring)
    E = exp_tB_jet_matrix(tri, +1, exact_ring)
    Em = exp_tB_jet_matrix(tri, -1, exact_ring)
    n = tri.dim
    phi = FlowJet(
        n,
        N,
        {
            (i, MultiIndex.unit(n, k)): E[i][k]
            for i in range(n)
            for k in range(n)
            if E[i][k] is not None
        },
    )
    v = X.nonlinear if exact_ring else X.nonlinear.to_float()
    for r in range(2, N + 1):
        below = PolyJet(
            n, N, v.mode, {k: c for k, c in v.coeffs.items() if k[1].degree <= r}
        )
        slice_r = _substitute(below, phi, r, one, zk).degree_slice(r)
        integrand = _snap(_matrix_apply(Em, slice_r), tol)
        inner = FlowJet(
            n,
            N,
            {k: q for k, p in integrand.coeffs.items() if (q := p.integrate_to_t())},
        )
        phi = phi + _matrix_apply(E, inner)
    return phi


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


def _monomial_list(n: int, degree: int):
    out = []
    for r in range(1, degree + 1):
        out.extend(multiindices(n, r))
    return out


def _composition_table(v: PolyJet, mons, n: int, degree: int):
    """Gather/scatter plan of X's nonlinearity on the jet coefficients.

    Applied to a jet with coefficient matrix C (n x M, columns ``mons``),
    a term c y^m of component j contributes, for every way of picking an
    m_i-element multiset of monomials for each coordinate i within the
    degree budget, ``mult * prod C[i, t]`` to the coefficient of the summed
    monomial.  One row per such pick: ``out`` is its flat output slot
    j*M + column, ``factors[k]`` the flat state slot i*M + t of its k-th
    factor (slot n*M, which holds 1, for rows with fewer factors) and
    ``mult`` is c times the multinomial count of the pick.
    """
    m_count = len(mons)
    degrees = [m.degree for m in mons]
    index = {m: i for i, m in enumerate(mons)}
    memo: dict = {}

    def multisets(power, budget, start):
        """(indices, degree, exponent sum, multiset coefficient) of each
        nondecreasing index tuple of the given size within a degree budget.

        Memoized: every term and component asks for the same few tables.
        """
        key = (power, budget, start)
        if key in memo:
            return memo[key]
        if power == 0:
            found = [((), 0, (0,) * n, 1)]
        else:
            found = []
            for idx in range(start, m_count):
                d = degrees[idx]
                if d > budget:
                    break  # mons is sorted by degree
                for rest, dd, total, count in multisets(power - 1, budget - d, idx):
                    # rest starts at idx or later: count(idx) is its leading run
                    found.append(
                        (
                            (idx,) + rest,
                            d + dd,
                            tuple(map(add, mons[idx], total)),
                            count * power // (rest.count(idx) + 1),
                        )
                    )
        memo[key] = found
        return found

    out, flats, mult = [], [], []
    for (j, m), c in v.coeffs.items():
        combos = [((), 0, (0,) * n, 1)]
        later = sum(m)  # factors still to pick, each of degree at least 1
        for i, e in enumerate(m):
            if not e:
                continue
            later -= e
            base = i * m_count
            combos = [
                (
                    flat + tuple(base + t for t in idxs),
                    dtot + dd,
                    tuple(map(add, total, sub)),
                    count * sub_count,
                )
                for flat, dtot, total, count in combos
                for idxs, dd, sub, sub_count in multisets(e, degree - later - dtot, 0)
            ]
        for flat, _, total, count in combos:
            out.append(j * m_count + index[total])
            flats.append(flat)
            mult.append(complex(c) * count)
    pad = n * m_count
    width = max(map(len, flats), default=0)
    factors = [
        np.array([f[k] if k < len(f) else pad for f in flats], dtype=np.intp)
        for k in range(width)
    ]
    return np.array(out, dtype=np.intp), factors, np.array(mult, dtype=complex)


def _ode_rhs(tri: TriangularLinear, v: PolyJet, degree: int):
    """Right-hand side C -> B C + v(C) of the jet-coefficient equations.

    C is the n x M coefficient matrix of a jet without constant term over
    the returned monomial list; v(C) is the jet of v composed with it,
    truncated at ``degree``.  The plan is built once; each evaluation is a
    gather per factor column and one ``bincount`` scatter.
    """
    n = tri.dim
    mons = _monomial_list(n, degree)
    B = tri.dense()
    size = n * len(mons)
    out, factors, mult = _composition_table(v.to_float(), mons, n, degree)
    # real and imaginary parts of row r land in float slots 2*out[r], 2*out[r]+1
    slots = np.stack([2 * out, 2 * out + 1], axis=1).ravel()
    flat = np.ones(size + 1, dtype=complex)  # slot ``size`` stays 1

    def deriv(state):
        result = B @ state
        if factors:
            flat[:size] = state.ravel()
            contrib = flat[factors[0]]
            for col in factors[1:]:
                contrib *= flat[col]
            contrib *= mult
            scattered = np.bincount(slots, contrib.view(np.float64), 2 * size)
            result += scattered.view(complex).reshape(state.shape)
        return result

    return mons, deriv


def _rk4_time_one(tri: TriangularLinear, v: PolyJet, degree: int, steps: int):
    """Classical fixed-step integration of the jet-coefficient equations."""
    n = tri.dim
    mons, deriv = _ode_rhs(tri, v, degree)
    C = np.zeros((n, len(mons)), dtype=complex)
    for k in range(n):
        C[k, mons.index(MultiIndex.unit(n, k))] = 1.0
    h = 1.0 / steps
    for _ in range(steps):
        k1 = deriv(C)
        k2 = deriv(C + 0.5 * h * k1)
        k3 = deriv(C + 0.5 * h * k2)
        k4 = deriv(C + h * k3)
        C = C + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    terms = []
    for j in range(n):
        for t, m in enumerate(mons):
            c = C[j, t]
            if c != 0:
                terms.append((j, m, c))
    return PolyJet.build(n, degree, MODE_FLOAT, terms, tol=0.0)


def time_one_residuals(X: FieldGerm, G: GermSpec, steps: int = 1000):
    """Residuals of the two independent time-one oracles (exact flow, RK4)."""
    if G.dim != X.dim:
        raise ValueError("dimension mismatch")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    N = min(G.degree, X.degree)
    target = G.map_jet().to_float().truncate(N)
    phi = flow_jet(X, N)
    exp_res = jet_distance(phi.at_time(1.0).truncate(N), target)
    tri = X.linear.triangular()
    ode = _rk4_time_one(tri, X.nonlinear.truncate(N), N, steps)
    ode_res = jet_distance(ode, target)
    return exp_res, ode_res


def time_one_check(X: FieldGerm, G: GermSpec, steps: int = 1000) -> float:
    """The larger of the two oracle residuals."""
    a, b = time_one_residuals(X, G, steps)
    return max(a, b)


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
    mus = tri.eigen.entries
    exact = tri.eigen.exact
    terms = []
    for (j, m), c in g.coeffs.items():
        if exact:
            delta = EigenScalar.zero()
            for e, mu in zip(m, mus):
                if e:
                    delta = delta + mu.scaled(e)
            delta = delta - mus[j]
            if delta.is_zero:
                continue
            factor = complex(delta)
        else:
            factor = sum(e * complex(mu) for e, mu in zip(m, mus) if e) - complex(
                mus[j]
            )
        terms.append((j, m, factor * complex(c)))
    return PolyJet.build(g.dim, g.degree, MODE_FLOAT, terms, tol=0.0)
