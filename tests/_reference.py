"""Reference functions the package does not run, kept for the tests.

Each checks a statement of the construction from its definition, outside
the pipeline the verbs run:

* :func:`block_matrix_from_dense` and :func:`planar_from_dense` read a
  dense matrix as a :class:`BlockMatrix`: the first one that is exactly in
  block normal form, the second any 2x2 matrix by the quadratic formula;
* :func:`positive_spectrum_log` is the real logarithm with all-real
  eigenvalues of a positive real spectrum, weakly nonresonant at every
  degree because weak resonance needs a nonzero imaginary part;
* :func:`operator_L_map_spectrum` and :func:`operator_L_field_spectrum`
  are the spectra of the degree-r homological operators h |-> A h - h(A .)
  (eigenvalues lambda_j - lambda^m) and h |-> Dh . B - B h (eigenvalues
  <m, mu> - mu_j);
* :func:`appendix_identity_check` is the commutation identity
  Dg(y) By - B g(y) for diagonal B, term by term;
* :func:`permute_jet` is the coordinate relabeling that
  :func:`embedflow.jets.complexify` folds into its pair change;
* :func:`hyperbolic_by_description` decides hyperbolicity on the full
  block description (QQi eigenvalues, EigenScalar logs), as
  :func:`embedflow.spectral.is_hyperbolic` did before it read the block
  parameters alone;
* :func:`homological_rows` is the row-by-row solve of the normal form's
  homological equation on dicts in either coefficient mode, the kernel
  that the package keeps for exact germs only; in float mode it refuses a
  divisor below ``max(tol, DIVISOR_FLOOR)`` as the graded kernel does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

from embedflow.jets import MODE_EXACT, MODE_FLOAT, MultiIndex, PolyJet, multiindices
from embedflow.normal_form import NearResonanceError
from embedflow.resonance import _mu, _power
from embedflow.scalars import EigenScalar, QQi
from embedflow.spectral import (
    BlockMatrix,
    EigenData,
    JordanBlock,
    RotationBlock,
    SpectralError,
    TriangularLinear,
    _cast,
    _check_nonsingular,
    _is_rational,
    real_log,
)
from embedflow.tolerances import DEFAULT_TOL, DIVISOR_FLOOR


# -- dense loaders ---------------------------------------------------------------


def block_matrix_from_dense(matrix, tol=DEFAULT_TOL) -> BlockMatrix:
    """Parse a dense matrix that is exactly in block normal form.

    Supports Jordan blocks (unit subdiagonal) and rotation blocks
    (including repeated cells with identity couplings).  Anything else --
    stray entries, non-matching cells -- is rejected; this is a loader,
    not a normal-form algorithm.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    exact = all(_is_rational(x) for row in matrix for x in row)

    def eq(x, y):
        if exact:
            return Fraction(x) == Fraction(y)
        return abs(float(x) - float(y)) <= tol * max(1.0, abs(float(y)))

    blocks = []
    o = 0
    while o < n:
        if o + 1 < n and not eq(matrix[o][o + 1], 0):
            a, b = matrix[o][o], matrix[o][o + 1]
            if not (eq(matrix[o + 1][o], -b) and eq(matrix[o + 1][o + 1], a)):
                raise ValueError(f"not a rotation cell at offset {o}")
            cells = 1
            while o + 2 * cells + 1 < n:
                p = o + 2 * cells
                if not (
                    eq(matrix[p][p], a)
                    and eq(matrix[p][p + 1], b)
                    and eq(matrix[p + 1][p], -b)
                    and eq(matrix[p + 1][p + 1], a)
                    and eq(matrix[p][p - 2], 1)
                    and eq(matrix[p + 1][p - 1], 1)
                    and eq(matrix[p][p - 1], 0)
                    and eq(matrix[p + 1][p - 2], 0)
                ):
                    break
                cells += 1
            if exact:
                blocks.append(RotationBlock(Fraction(a), Fraction(b), cells))
            else:
                blocks.append(RotationBlock(float(a), float(b), cells))
            o += 2 * cells
            continue
        lam = matrix[o][o]
        size = 1
        while (
            o + size < n
            and eq(matrix[o + size][o + size - 1], 1)
            and eq(matrix[o + size][o + size], lam)
        ):
            size += 1
        blocks.append(
            JordanBlock(Fraction(lam) if exact else float(lam), size)
        )
        o += size
    out = BlockMatrix(tuple(blocks))
    dense = out.to_dense()
    given = np.array([[float(x) for x in row] for row in matrix])
    if float(np.max(np.abs(dense - given))) > tol * max(
        1.0, float(np.max(np.abs(given)))
    ):
        raise ValueError("matrix is not exactly block structured")
    return out


def planar_from_dense(mat, tol: float = DEFAULT_TOL) -> BlockMatrix:
    """Canonical block form of a dense 2x2 matrix via the quadratic formula.

    Returns the Jordan-type block list of A (not a conjugation of A
    itself); classification and the suggested logarithm refer to this
    canonical form.
    """
    (a, b), (c, d) = (mat[0][0], mat[0][1]), (mat[1][0], mat[1][1])
    tr = float(a) + float(d)
    det = float(a) * float(d) - float(b) * float(c)
    scale = max(1.0, abs(float(a)), abs(float(b)), abs(float(c)), abs(float(d)))
    disc = tr * tr - 4.0 * det
    if disc > tol * scale * scale:
        root = math.sqrt(disc)
        lam1, lam2 = (tr + root) / 2.0, (tr - root) / 2.0
        return BlockMatrix((JordanBlock(lam1, 1), JordanBlock(lam2, 1)))
    if disc < -tol * scale * scale:
        alpha = tr / 2.0
        beta = math.sqrt(-disc) / 2.0
        return BlockMatrix((RotationBlock(alpha, beta, 1),))
    lam = tr / 2.0
    off = max(
        abs(float(a) - lam), abs(float(d) - lam), abs(float(b)), abs(float(c))
    )
    if off <= tol * scale:
        return BlockMatrix((JordanBlock(lam, 1), JordanBlock(lam, 1)))
    return BlockMatrix((JordanBlock(lam, 2),))


def positive_spectrum_log(A: BlockMatrix) -> BlockMatrix:
    """Real logarithm with all-real eigenvalues for positive real spectrum.

    Weak resonance requires a nonzero imaginary part in some mu_j, so the
    returned logarithm is weakly nonresonant at every degree.
    """
    for block in A.blocks:
        if not isinstance(block, JordanBlock) or float(block.eigenvalue) <= 0:
            raise SpectralError(
                "positive_spectrum_log needs all eigenvalues real and positive"
            )
    return real_log(A)


# -- homological operators and the appendix identity -----------------------------


def _delta(mu, j: int, m):
    """<m, mu> - mu_j as a value: an EigenScalar for exact entries, else complex."""
    if isinstance(mu[j], EigenScalar):
        total = EigenScalar.zero()
        for k, v in zip(m, mu):
            if k:
                total = total + v.scaled(k)
        return total - mu[j]
    return sum(k * v for k, v in zip(m, mu) if k) - mu[j]


def operator_L_map_spectrum(tri: TriangularLinear, r: int) -> tuple[complex, ...]:
    """Multiset { lambda_j - lambda^m : |m| = r } of the degree-r map operator
    of the triangular form ``tri``, whose diagonal holds the lambda_j.

    Values are exact differences converted to complex when the map
    eigenvalues are Gaussian rational, so resonant entries are exactly 0.
    """
    if r < 2:
        raise ValueError("degree must be at least 2")
    n = tri.dim
    lam = tri.diag
    if not all(isinstance(d, QQi) for d in lam):
        lam = tuple(complex(d) for d in lam)
    return tuple(
        complex(lam[j] - _power(lam, m))
        for j in range(n)
        for m in multiindices(n, r)
    )


def operator_L_field_spectrum(eigen: EigenData, r: int) -> tuple[complex, ...]:
    """Multiset { <m, mu> - mu_j : |m| = r } of the degree-r field operator."""
    if r < 2:
        raise ValueError("degree must be at least 2")
    n = len(eigen)
    mu = _mu(eigen)
    return tuple(
        complex(_delta(mu, j, m)) for j in range(n) for m in multiindices(n, r)
    )


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


# -- coordinate relabeling -------------------------------------------------------


def permute_jet(f: PolyJet, perm) -> PolyJet:
    """Conjugate a jet by the coordinate relabeling new_i = old_{perm[i]}."""
    n = f.dim
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    out = {}
    for (j, m), c in f.coeffs.items():
        mm = MultiIndex(m[perm[i]] for i in range(n))
        out[(inv[j], mm)] = c
    return PolyJet(n, f.degree, f.mode, out)


# -- hyperbolicity on the block description ----------------------------------------


def _modulus_is_one(lam, mu, tol) -> bool:
    if isinstance(mu, EigenScalar):
        return mu.real_is_zero
    if isinstance(lam, QQi):
        return lam._a * lam._a + lam._b * lam._b == lam._d * lam._d
    return abs(abs(lam) - 1.0) <= tol


def hyperbolic_by_description(a: BlockMatrix, tol=DEFAULT_TOL) -> bool:
    """No eigenvalue of modulus 1, read off each block's first eigenvalue
    and its log in the block description."""
    _check_nonsingular(a)
    return not any(
        _modulus_is_one(lams[0], mus[0], tol) for _, (_, _, lams, mus) in a._described
    )


# -- the homological equation on dicts --------------------------------------------


def homological_rows(tri, rhs, k, tol, order, resonant, Y):
    """Row-by-row accumulator solve over the degree-k exponents ``order``;
    ``resonant`` holds the map-resonant (j, sigma), and ``Y`` is an
    :class:`embedflow.jets._OnlineComposition` whose degree-1 part is Ay,
    from which (Ay)^sigma is read.  The divisors live in ``rhs``'s mode,
    and a float one below ``max(tol, DIVISOR_FLOOR)`` raises
    :class:`NearResonanceError`.  Returns (h, g, min divisor)."""
    mode = rhs.mode
    lam = list(tri.diag) if mode == MODE_EXACT else [complex(d) for d in tri.diag]
    nil = [(i, kk, _cast(c, mode)) for i, kk, c in tri.nil]
    lam_power = cache(lambda sigma: _power(lam, sigma))

    def cross_terms(sigma):
        """(Ay)^sigma minus its leading term, as {exponent: coeff}."""
        if tri.is_diagonal:
            return {}
        sigma = MultiIndex(sigma)
        out = Y.power_slice(sigma, k)
        rest = out[sigma] - lam_power(sigma)
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
        for i, kk, c in nil:
            if i != j:
                continue
            for (jj, m), hc in h.items():
                if jj == kk:
                    val = c * hc if m not in acc else acc[m] + c * hc
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
            except OverflowError:  # an exact divisor beyond the float range
                mag = math.inf
            min_div = mag if min_div is None else min(min_div, mag)
            if mode != MODE_EXACT and mag < max(tol, DIVISOR_FLOOR):
                raise NearResonanceError(j, sigma, d)
            coef = val / d
            h[(j, sigma)] = coef
            for m, w in cross_terms(sigma).items():
                if m == sigma:
                    continue
                val2 = -coef * w if m not in acc else acc[m] - coef * w
                if val2:
                    acc[m] = val2
                else:
                    acc.pop(m, None)
    return h, g, min_div
