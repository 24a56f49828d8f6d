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
  Dg(y) By - B g(y) for diagonal B, term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from embedflow.jets import MODE_FLOAT, PolyJet, multiindices
from embedflow.resonance import _mu, _power
from embedflow.scalars import EigenScalar
from embedflow.spectral import (
    BlockMatrix,
    EigenData,
    JordanBlock,
    RotationBlock,
    SpectralError,
    _is_rational,
    real_log,
)
from embedflow.tolerances import DEFAULT_TOL


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


def operator_L_map_spectrum(eigen: EigenData, r: int) -> tuple[complex, ...]:
    """Multiset { lambda_j - lambda^m : |m| = r } of the degree-r map operator.

    Values are exact differences converted to complex when the map
    eigenvalues are Gaussian rational, so resonant entries are exactly 0.
    """
    if r < 2:
        raise ValueError("degree must be at least 2")
    n = len(eigen)
    exact = eigen.lambda_exact()
    lam = exact if exact is not None else eigen.lambda_complex()
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
