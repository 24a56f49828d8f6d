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

The right-hand side is the degree-k defect of F(y + h) = (y + h)(Ay + g)
while h and g are known below k only.  It comes from two online
compositions, of f over X = y + h and of h over Y = Ay + g: the degree-k
slice of each monomial of X or Y reads their slices below k, which are
final, so every slice is formed once, and h_k and g_k are appended as the
degree-k slices of X and Y.  The cross terms of (Ay)^sigma are Y's
degree-k slices of its monomials, and the residual reuses those slices:
the degree-k conjugacy defect of the final h and g is the solved defect
plus A h_k - g_k - h_k(Ay).

Each mode runs this recursion on its own kernel.  Exact germs compose on
dicts (:class:`embedflow.jets._OnlineComposition`) and solve row by row
(:func:`_homological_rows`), which is exact-only: its divisors are
Gaussian rationals.  Float germs compose on dense graded arrays
(:class:`embedflow.graded._GradedPowers`), keeping the powers of f's
support for X and of h's for Y, and solve a diagonal spectrum by one
masked divide; a triangular one keeps the row-by-row accumulator on
arrays.  Both take lambda^sigma from :func:`embedflow.resonance._power`
where the defect is nonzero, in row order, and both walk the exponents
of :func:`embedflow.graded._grading`, the table the resonance scan reads.

Which (j, sigma) are resonant is read from one
:func:`embedflow.resonance.map_resonances` report per normal form, the
same rule that classifies the embedding solve; the divisors
lambda^sigma - lambda_j of the others live in the jet's mode.  On the
graded kernel a float divisor below tolerance aborts with
:class:`NearResonanceError` rather than dividing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .graded import _GradedPowers, _grading
from .jets import MODE_EXACT, MultiIndex, PolyJet, _OnlineComposition, _one
from .reports import fmt_entry
from .resonance import _power, map_resonances
from .spectral import BlockMatrix
from .tolerances import DEFAULT_TOL, DIVISOR_FLOOR

__all__ = [
    "GermSpec",
    "NormalFormResult",
    "NearResonanceError",
    "distinguished_normal_form",
]


class NearResonanceError(ArithmeticError):
    """A nonresonant divisor fell below tolerance in float mode.

    ``target`` and ``exponent`` are 0-based; the message names the entry
    1-based, as the reports do."""

    def __init__(self, target: int, exponent, divisor):
        self.target = target
        self.exponent = MultiIndex(exponent)
        self.divisor = complex(divisor)
        super().__init__(
            f"near-resonant divisor {self.divisor:.3e} at {fmt_entry(target, exponent)}"
        )


@dataclass(frozen=True)
class GermSpec:
    """Hyperbolic jet F = Ax + f(x) in complexified coordinates.

    ``nonlinear`` is O(|x|^2) and truncated at ``degree``; its mode
    ("float" or "exact") is the coefficient mode of the whole germ.  A
    must be hyperbolic (:func:`embedflow.pipeline.admit` decides it for
    the CLI); it is not checked here.
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

    @cached_property
    def float_map_jet(self) -> PolyJet:
        """:meth:`map_jet` in float mode, built once: the verdict reads it thrice."""
        return self.map_jet().to_float()


@dataclass(frozen=True)
class NormalFormResult:
    """Distinguished normal form G, the normalization h, and diagnostics.

    ``diagnostics`` holds one (degree, resonant_terms, solved_terms,
    min_divisor) row per degree; ``residual`` is the float conjugacy
    defect of F(y + h(y)) = G(y) + h(G(y)) over the full truncation, the
    largest coefficient of the difference.  It is formed degree by degree
    from the slices that gave the defect, plus A h_k - g_k - h_k(Ay), not
    by composing the final jets again; in exact mode it is 0.0.
    """

    germ: GermSpec
    transform: PolyJet
    residual: float
    diagnostics: tuple


def _homological_rows(tri, rhs, k, order, resonant, Y):
    """Row-by-row accumulator solve of an exact germ over the degree-k
    exponents ``order``; ``resonant`` holds the map-resonant (j, sigma),
    and ``Y`` is an :class:`_OnlineComposition` whose degree-1 part is Ay,
    from which (Ay)^sigma is read.  The divisors are exact Gaussian
    rationals, nonzero off the resonant set, so none is refused.  Returns
    (h, g, min divisor)."""
    lam = tri.diag
    # lambda^sigma serves every row j
    lam_power = cache(lambda sigma: _power(lam, sigma))

    def cross_terms(sigma):
        """(Ay)^sigma minus its leading term, as {exponent: coeff}."""
        if tri.is_diagonal:
            return {}
        sigma = MultiIndex(sigma)
        out = Y.power_slice(sigma, k)
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
    for j in range(tri.dim):
        acc = {m: c for m, c in rhs.component(j).items() if m.degree == k}
        for i, kk, c in tri.nil:
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
            try:
                mag = abs(complex(d))
            except OverflowError:  # a divisor beyond the float range
                mag = math.inf
            min_div = mag if min_div is None else min(min_div, mag)
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


def _add_into(acc: dict, terms, sign: int = 1) -> dict:
    """``acc += sign * terms`` in place, ``terms`` as ``(key, c)`` pairs and
    ``sign`` 1 or -1; zero sums dropped."""
    for key, c in terms:
        if sign < 0:
            c = -c
        prev = acc.get(key)
        val = c if prev is None else prev + c
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


def distinguished_normal_form(germ: GermSpec, tol: float = DEFAULT_TOL) -> NormalFormResult:
    """Normalize a hyperbolic germ degree by degree.

    Returns the normal form G (resonant nonlinearity only), the
    normalization jet h with x = y + h(y), and per-degree diagnostics.
    Raises :class:`NearResonanceError` when a float divisor is too small
    to divide honestly.  Exact germs run on the dict kernel, float
    germs on dense graded arrays; both walk the same recursion.
    """
    if germ.mode == MODE_EXACT:
        return _exact_normal_form(germ, tol)
    with np.errstate(all="ignore"):  # inf and nan propagate, as in Python floats
        return _float_normal_form(germ, tol)


def _exact_normal_form(germ: GermSpec, tol: float) -> NormalFormResult:
    tri = germ.linear.triangular()
    n, N, mode = germ.dim, germ.degree, germ.mode
    lin = tri.linear_jet(1, mode)
    # X = y + h and Y = Ay + g, each extended by one degree per step
    X = _OnlineComposition([{MultiIndex.unit(n, j): _one(mode)} for j in range(n)], N)
    Y = _OnlineComposition([lin.component(j) for j in range(n)], N)
    a_columns = [[(j, c) for (j, m), c in lin.coeffs.items() if m[i]] for i in range(n)]
    f = germ.nonlinear.coeffs
    mons = _grading(n, N).monomials
    resonant = map_resonances(tri.eigen, max(N, 2), tol).map_set()  # N = 1 solves nothing
    h: dict = {}
    g: dict = {}
    residual = 0.0
    diagnostics = []
    for k in range(2, N + 1):
        # degree k of F(y + h) - (y + h)(Ay + g) with h, g known below k
        defect = _add_into(X.degree_slice(f, k), Y.degree_slice(h, k).items(), -1)
        h_k, g_k, min_div = _homological_rows(
            tri, PolyJet(n, N, mode, defect), k, mons[k], resonant, Y
        )
        X.extend(h_k)
        Y.extend(g_k)
        # the degree-k conjugacy defect of the final h and g: the terms
        # that h_k and g_k add to both sides of the defect above
        res = dict(defect)
        a_h = (((j, m), a * c) for (i, m), c in h_k.items() for j, a in a_columns[i])
        _add_into(res, a_h)
        _add_into(res, g_k.items(), -1)
        _add_into(res, Y.degree_slice(h_k, k).items(), -1)
        residual = max(residual, max((abs(complex(c)) for c in res.values()), default=0.0))
        h.update(h_k)
        g.update(g_k)
        diagnostics.append((k, len(g_k), len(h_k), min_div))
    g_jet = PolyJet.build(n, N, mode, [(j, m, c) for (j, m), c in g.items()])
    h_jet = PolyJet.build(n, N, mode, [(j, m, c) for (j, m), c in h.items()])
    return NormalFormResult(GermSpec(germ.linear, g_jet, N), h_jet, residual, tuple(diagnostics))


def _graded(terms, grading, n: int):
    """``{(j, m): c}`` as an (n, offsets[-1]) graded coefficient array."""
    out = np.zeros((n, grading.offsets[-1]), dtype=complex)
    offsets, slot = grading.offsets, grading.slot
    for (j, m), c in terms.items():
        d = m.degree
        out[j, offsets[d] + slot[d][m]] = c
    return out


def _float_normal_form(germ: GermSpec, tol: float) -> NormalFormResult:
    """The recursion of :func:`_exact_normal_form` on dense graded arrays.

    X = y + h and Y = Ay + g are :class:`embedflow.graded._GradedPowers`;
    the degree-k defect is F X_k - H Y_k, F and H the coefficient matrices
    of f and h over the kept powers.  X keeps the powers of f's support
    once h has a term, and until then F X_k = f_k.  Y keeps those of h's
    support once g has a term above degree 1: until then every power of Y
    has a single slice, at its own degree, where h has no term yet.
    """
    tri = germ.linear.triangular()
    n, N, mode = germ.dim, germ.degree, germ.mode
    resonant = map_resonances(tri.eigen, max(N, 2), tol).map_resonant  # N = 1 solves nothing
    if N < 2:
        zero = PolyJet.zero(n, N, mode)
        return NormalFormResult(GermSpec(germ.linear, zero, N), zero, 0.0, ())
    grading = _grading(n, N)
    mons, offsets, sizes = grading.monomials, grading.offsets, grading.sizes
    A = tri.dense()  # (Ay)_j = sum_i A[j, i] y_i
    f = _graded(germ.nonlinear.coeffs, grading, n)
    X, Y = _GradedPowers(grading), None  # X keeps f's powers once h has a term
    h_all, g_all = np.zeros_like(f), np.zeros_like(f)
    resonant_at = np.zeros(f.shape, dtype=bool)  # (j, graded column of m)
    columns = [offsets[m.degree] + grading.slot[m.degree][m] for _, m in resonant]
    resonant_at[[j for j, _ in resonant], columns] = True
    lam = [complex(d) for d in tri.diag]
    lam_power = cache(lambda sigma: _power(lam, sigma))
    floor = max(tol, DIVISOR_FLOOR)
    g_top = kept = 1  # g's highest nonzero degree; Y keeps h's terms to degree kept
    lowest = 1, A[::-1, ::-1]  # (degree, (Ay)^sigma by the column of sigma)
    h, g, diagnostics = {}, {}, []
    residual = 0.0
    for k in range(2, N + 1):
        M, block = sizes[k], slice(offsets[k], offsets[k + 1])
        if X.degrees[-1] > 1 and len(X.lows) == n:
            X.add(np.flatnonzero(f.any(axis=0)))
        defect = X.step(f)
        if g_top > 1:  # Y's powers can have slices above their own degree
            if Y is None:
                Y = _GradedPowers(grading, A[:, ::-1])
                for d in range(2, k):
                    Y.step(None)
                    if g_all[:, offsets[d] : offsets[d + 1]].any():
                        Y.extend(g_all[:, offsets[d] : offsets[d + 1]])
            if kept < k - 1:
                terms = np.flatnonzero(h_all[:, offsets[kept + 1] : block.start].any(axis=0))
                Y.add(offsets[kept + 1] + terms)
                kept = k - 1
            part = Y.step(h_all)
            if part is not None:
                defect = -part if defect is None else defect - part
        nonzero = () if defect is None else np.flatnonzero(defect)
        if not len(nonzero):  # nothing to solve; X and Y gain zero slices
            diagnostics.append((k, 0, 0, None))
            continue
        on = resonant_at[:, block].reshape(-1)
        if tri.is_diagonal:
            hit, solve, h_values, min_div, res = _diagonal_rows(
                defect, nonzero, on, lam, lam_power, floor, mons[k]
            )
        else:
            while lowest[0] < k:
                lowest = lowest[0] + 1, _lowest_slices(grading, lowest[0] + 1, lowest[1], A)
            h_k, g_k, solved, taken, min_div = _triangular_rows(
                tri, defect, on.reshape(n, M), lam, lam_power, floor, mons[k], lowest[1]
            )
            # einsum's own loops: BLAS would grow the peak memory
            a_h, h_ay = np.einsum("ji,im->jm", A, h_k), np.einsum("js,sm->jm", h_k, lowest[1])
            res = float(np.abs(defect + a_h - g_k - h_ay).max())
            hit, solve = np.flatnonzero(taken), np.flatnonzero(solved)
            h_values = h_k.reshape(-1)[solve]
        residual = max(residual, res)
        g_values = defect.reshape(-1)[hit]
        for out, where, values, into in ((g, hit, g_values, g_all), (h, solve, h_values, h_all)):
            if not len(where):
                continue
            rows, cols = np.divmod(where, M)
            into[rows, offsets[k] + cols] = values
            cols = cols.tolist()
            out.update(zip(zip(rows.tolist(), [mons[k][s] for s in cols]), values.tolist()))
        if len(solve):
            X.extend(h_all[:, block])
        if len(hit):
            g_top = k
            if Y is not None:
                Y.extend(g_all[:, block])
        diagnostics.append((k, len(hit), len(solve), min_div))
    g_jet = PolyJet(n, N, mode, {key: c for key, c in g.items() if c})
    h_jet = PolyJet(n, N, mode, {key: c for key, c in h.items() if c})
    return NormalFormResult(GermSpec(germ.linear, g_jet, N), h_jet, residual, tuple(diagnostics))


def _lowest_slices(grading, k: int, below, A):
    """(Ay)^sigma for every sigma of degree k, one row per sigma, from the
    rows ``below`` of degree k - 1; (Ay)_i = sum_l A[i, l] y_l."""
    parents, variables, products = grading.lowest(k)
    return products.multiply(below, parents, A[:, ::-1], variables)


def _diagonal_rows(defect, nonzero, resonant, lam, lam_power, floor, mons):
    """The degree-k solve on a diagonal spectrum at the flat positions
    j * M_k + s where the defect is nonzero: g takes the defect where
    ``resonant`` holds and h = defect / (lambda^sigma - lambda_j) elsewhere.
    A divisor below ``floor``, or a power outside the float range, is
    refused at the first (j, sigma) in row order that needs it.  Returns
    (where g is taken, where h is solved, h there, min divisor, residual),
    the residual being the largest conjugacy defect that h and g leave at
    degree k."""
    on = resonant[nonzero]
    hit, solve = nonzero[on], nonzero[~on]
    if not len(solve):
        return hit, solve, None, None, 0.0
    rows, cols = np.divmod(solve, defect.shape[1])
    powers = np.zeros(defect.shape[1], dtype=complex)
    overflow = []
    for s in set(cols.tolist()):
        try:
            powers[s] = lam_power(mons[s])
        except ValueError:
            overflow.append(s)
    if overflow:  # refuse at the first (j, sigma) in row order
        for j, s in zip(rows.tolist(), cols.tolist()):
            if s in overflow:
                lam_power(mons[s])  # raises its ValueError
            if abs(complex(powers[s] - lam[j])) < floor:
                raise NearResonanceError(j, mons[s], powers[s] - lam[j])
    divisor = powers[cols] - np.asarray(lam)[rows]
    sizes = list(map(abs, divisor.tolist()))  # Python's complex abs, as in _triangular_rows
    least = min(sizes)
    if least < floor:
        t = next(t for t, size in enumerate(sizes) if size < floor)
        raise NearResonanceError(int(rows[t]), mons[cols[t]], divisor[t])
    values = defect.reshape(-1)[solve]
    quotient = values / divisor
    return hit, solve, quotient, least, float(np.abs(values - divisor * quotient).max())


def _triangular_rows(tri, defect, resonant, lam, lam_power, floor, mons, lowest):
    """:func:`_homological_rows` on arrays: the same row-by-row accumulator,
    with (Ay)^sigma read from the rows of ``lowest``.  Returns (h, g, where
    h is solved, where g is taken, min divisor)."""
    n, size = defect.shape
    h = np.zeros_like(defect)
    g = np.zeros_like(defect)
    solved = np.zeros(defect.shape, dtype=bool)
    hit = np.zeros(defect.shape, dtype=bool)
    min_div = None
    for j in range(n):
        acc = defect[j].copy()
        for i, k, c in tri.nil:
            if i == j:
                acc += complex(c) * h[k]
        for s in range(size):
            val = acc[s]
            if not val:
                continue
            if resonant[j, s]:
                g[j, s] = val
                hit[j, s] = True
                continue
            d = lam_power(mons[s]) - lam[j]
            mag = abs(d)
            min_div = mag if min_div is None else min(min_div, mag)
            if mag < floor:
                raise NearResonanceError(j, mons[s], d)
            coef = complex(val) / d
            h[j, s] = coef
            solved[j, s] = True
            acc -= coef * lowest[s]
    return h, g, solved, hit, min_div
