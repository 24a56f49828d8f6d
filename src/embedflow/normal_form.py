"""Distinguished normal forms of hyperbolic jets.

A germ F(x) = Ax + f(x) with hyperbolic A is conjugated, degree by degree,
to G(y) = Ay + g(y) where g keeps only map-resonant monomials
(lambda_j = lambda^m).  At each degree k the substitution x = y + h_k(y)
must satisfy

    h_k(Ay) - A h_k(y) = rhs_k(y) - g_k(y),

so g_k takes the resonant coefficients of rhs_k verbatim and h_k solves
the rest.  For triangular A the monomial basis makes this a triangular
system: couplings only join equal-eigenvalue coordinates, so the resonant
and nonresonant slices never mix, and within a row the cross terms of
(Ay)^sigma only reach lexicographically earlier monomials.  The solve
walks rows in coordinate order and monomials in reverse lexicographic
order, carrying the cross terms in an accumulator.

Which (j, sigma) are resonant is read from one
:func:`embedflow.resonance.map_resonances` report per normal form, the
same rule that classifies the embedding solve; the divisors
lambda^sigma - lambda_j of the others live in the jet's mode, and in float
mode one below tolerance aborts with :class:`NearResonanceError` rather
than dividing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .jets import (
    MODE_EXACT,
    MultiIndex,
    PolyJet,
    _product,
    compose,
    jet_distance,
)
from .resonance import _power, map_resonances, monomial_index
from .scalars import ExactnessError, QQi
from .spectral import BlockMatrix, _cast, is_hyperbolic
from .tolerances import DEFAULT_TOL, DIVISOR_FLOOR

__all__ = [
    "GermSpec",
    "NormalFormResult",
    "NearResonanceError",
    "distinguished_normal_form",
]


class NearResonanceError(ArithmeticError):
    """A nonresonant divisor fell below tolerance in float mode."""

    def __init__(self, target: int, exponent, divisor):
        self.target = target
        self.exponent = MultiIndex(exponent)
        self.divisor = complex(divisor)
        super().__init__(
            f"near-resonant divisor {self.divisor:.3e} at component "
            f"{target}, exponent {tuple(exponent)}"
        )


@dataclass(frozen=True)
class GermSpec:
    """Hyperbolic jet F = Ax + f(x) in complexified coordinates.

    ``nonlinear`` is O(|x|^2) and truncated at ``degree``; its mode
    ("float" or "exact") is the coefficient mode of the whole germ.
    """

    linear: BlockMatrix
    nonlinear: PolyJet
    degree: int

    def __post_init__(self):
        if self.nonlinear.dim != self.linear.dim:
            raise ValueError("linear and nonlinear dimensions differ")
        if self.nonlinear.degree != self.degree:
            raise ValueError("nonlinear jet truncation must match degree")
        if self.nonlinear.coeffs and self.nonlinear.min_degree() < 2:
            raise ValueError("nonlinear part must vanish to second order")
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if not is_hyperbolic(self.linear):
            raise ValueError("linear part must be hyperbolic")

    @property
    def dim(self) -> int:
        return self.linear.dim

    @property
    def mode(self) -> str:
        return self.nonlinear.mode

    def map_jet(self) -> PolyJet:
        """Full jet A x + f(x)."""
        tri = self.linear.triangular()
        return tri.linear_jet(self.degree, self.mode) + self.nonlinear


@dataclass(frozen=True)
class NormalFormResult:
    """Distinguished normal form G, the normalization h, and diagnostics.

    ``diagnostics`` holds one (degree, resonant_terms, solved_terms,
    min_divisor) row per degree; ``residual`` is the float conjugacy
    defect of F(y + h(y)) = G(y) + h(G(y)) over the full truncation.
    """

    germ: GermSpec
    transform: PolyJet
    residual: float
    diagnostics: tuple


def _homological_rows(tri, rhs, k, tol, order, resonant):
    """Row-by-row accumulator solve over the degree-k exponents ``order``;
    ``resonant`` holds the map-resonant (j, sigma).  Returns (h, g, min
    divisor)."""
    mode = rhs.mode
    n = tri.dim
    if mode == MODE_EXACT and not all(isinstance(d, QQi) for d in tri.diag):
        raise ExactnessError(
            "exact mode needs Gaussian-rational eigenvalues; rerun in float mode"
        )
    # divisors live in the jet's mode
    lam = list(tri.diag) if mode == MODE_EXACT else [complex(d) for d in tri.diag]
    a_components = None
    nil = [(i, kk, _cast(c, mode)) for i, kk, c in tri.nil]

    # lambda^sigma serves every row j
    lam_power = cache(lambda sigma: _power(lam, sigma))

    def cross_terms(sigma):
        """(Ay)^sigma minus its leading term, as {exponent: coeff}."""
        nonlocal a_components
        if tri.is_diagonal:
            return {}
        if a_components is None:
            lin = tri.linear_jet(1, mode)
            a_components = [lin.component(i) for i in range(n)]
        out = _product(a_components, sigma, k, _one(mode))
        sigma = MultiIndex(sigma)
        lead = lam_power(sigma)
        rest = out[sigma] - lead
        if rest:
            out[sigma] = rest
        else:
            out.pop(sigma, None)
        return out

    h: dict = {}
    g: dict = {}
    min_div = None
    for j in range(n):
        acc = {m: c for m, c in rhs.component(j).items() if m.degree == k}
        for i, kk, c in nil:
            if i != j:
                continue
            for (jj, m), hc in h.items():
                if jj == kk:
                    prev = acc.get(m)
                    val = c * hc if prev is None else prev + c * hc
                    if val:
                        acc[m] = val
                    else:
                        acc.pop(m, None)
        for sigma in order:
            val = acc.get(sigma)
            if not val:
                continue
            if (j, sigma) in resonant:
                g[(j, sigma)] = val
                continue
            d = lam_power(sigma) - lam[j]
            mag = abs(complex(d))
            min_div = mag if min_div is None else min(min_div, mag)
            if mode != MODE_EXACT and mag < max(tol, DIVISOR_FLOOR):
                raise NearResonanceError(j, sigma, d)
            coef = val / d
            h[(j, sigma)] = coef
            for m, w in cross_terms(sigma).items():
                if m == sigma:
                    continue
                prev = acc.get(m)
                delta = coef * w
                val2 = -delta if prev is None else prev - delta
                if val2:
                    acc[m] = val2
                else:
                    acc.pop(m, None)
    return h, g, min_div


def _one(mode):
    return QQi(1) if mode == MODE_EXACT else (1.0 + 0.0j)


def distinguished_normal_form(germ: GermSpec, tol: float = DEFAULT_TOL) -> NormalFormResult:
    """Normalize a hyperbolic germ degree by degree.

    Returns the normal form G (resonant nonlinearity only), the
    normalization jet h with x = y + h(y), and per-degree diagnostics.
    Raises :class:`NearResonanceError` when a float-mode divisor is too
    small to divide honestly.
    """
    tri = germ.linear.triangular()
    n, N, mode = germ.dim, germ.degree, germ.mode
    F = germ.map_jet()
    identity = PolyJet.identity(n, N, mode)
    h_acc = PolyJet.zero(n, N, mode)
    g_acc = PolyJet.zero(n, N, mode)
    lin = tri.linear_jet(N, mode)
    index = monomial_index(n, N)
    resonant = map_resonances(tri.eigen, max(N, 2), tol).map_set()  # N = 1 solves nothing
    diagnostics = []
    for k in range(2, N + 1):
        lhs = compose(F, identity + h_acc, degree=k)
        rhs = compose(identity + h_acc, lin + g_acc, degree=k)
        defect = (lhs - rhs).degree_slice(k)
        h_map, g_map, min_div = _homological_rows(
            tri, defect, k, tol, index.of_degree(k), resonant
        )
        h_k = PolyJet.build(n, N, mode, [(j, m, c) for (j, m), c in h_map.items()])
        g_k = PolyJet.build(n, N, mode, [(j, m, c) for (j, m), c in g_map.items()])
        h_acc = h_acc + h_k
        g_acc = g_acc + g_k
        diagnostics.append((k, len(g_map), len(h_map), min_div))
    G = GermSpec(germ.linear, g_acc, N)
    lhs = compose(F, identity + h_acc, degree=N)
    rhs = compose(identity + h_acc, lin + g_acc, degree=N)
    residual = jet_distance(lhs, rhs)
    return NormalFormResult(G, h_acc, residual, tuple(diagnostics))
