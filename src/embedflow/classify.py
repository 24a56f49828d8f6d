"""Planar embeddability and positive-spectrum logarithms.

For hyperbolic 2x2 linear parts the embedding question closes completely:
A admits an embedding flow iff it has no negative eigenvalues or is
diagonalizable with two equal negative eigenvalues.  In every embeddable
case an explicit real logarithm works, and its eigenvalues are weakly
nonresonant (the real part of <m,mu> - mu_j is (|m|-1)*ln|lambda| != 0
whenever the moduli agree, and nonzero by hyperbolicity otherwise), so
the solver route is guaranteed.

For any dimension, a matrix with all-positive real spectrum has a real
logarithm with all-real eigenvalues; weak resonance needs a nonzero
imaginary part, so such a logarithm is weakly nonresonant at every
degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .resonance import field_resonances
from .spectral import (
    BlockMatrix,
    JordanBlock,
    NegativePairBlock,
    RotationBlock,
    SpectralError,
    is_hyperbolic,
    pair_negative_blocks,
    real_log,
)
from .tolerances import DEFAULT_TOL

__all__ = [
    "PlanarVerdict",
    "classify_2d",
    "planar_from_dense",
    "positive_spectrum_log",
]

REASON_NO_NEGATIVE = "no-negative-eigenvalues"
REASON_EQUAL_NEGATIVE = "equal-negative-diagonalizable"
REASON_UNPAIRED = "unpaired-negative-block"
REASON_DISTINCT_NEGATIVE = "distinct-negative-eigenvalues"


@dataclass(frozen=True)
class PlanarVerdict:
    """Embeddability verdict for a planar hyperbolic linear part.

    ``log`` carries the explicit real logarithm when embeddable (None
    otherwise); its eigenvalues are weakly nonresonant, so it is a valid
    branch for the embedding solver.
    """

    embeddable: bool
    reason: str
    log: BlockMatrix | None

    def __post_init__(self):
        if self.embeddable != (self.log is not None):
            raise ValueError("verdict and suggested logarithm disagree")


def _negative_eigenvalues(block) -> list[float]:
    if isinstance(block, JordanBlock):
        lam = float(block.eigenvalue)
        return [lam] * block.size if lam < 0 else []
    if isinstance(block, NegativePairBlock):
        return []  # already paired; no unpaired negative direction
    return []  # rotation blocks have no real eigenvalues


def _assert_weakly_nonresonant(log: BlockMatrix, degree: int = 10):
    eigen = log.triangular().eigen
    report = field_resonances(eigen, degree)
    if report.weak:
        raise SpectralError(
            f"suggested logarithm is weakly resonant: {report.weak_set()}"
        )


def classify_2d(A: BlockMatrix) -> PlanarVerdict:
    """Decide embeddability of a planar hyperbolic germ's linear part.

    Embeddable exactly when A has no negative eigenvalues, or equals
    diag(lambda, lambda) with lambda < 0 (two separate Jordan cells).  The
    verdict's logarithm is the explicit block log of the matching case.
    """
    if A.dim != 2:
        raise ValueError("classify_2d expects order 2")
    if not is_hyperbolic(A):
        raise ValueError("linear part must be hyperbolic")
    negatives = [v for b in A.blocks for v in _negative_eigenvalues(b)]
    if not negatives:
        log = real_log(A)
        _assert_weakly_nonresonant(log)
        already_paired = any(
            isinstance(b, NegativePairBlock) for b in A.blocks
        )
        reason = REASON_EQUAL_NEGATIVE if already_paired else REASON_NO_NEGATIVE
        return PlanarVerdict(True, reason, log)
    if len(negatives) == 1:
        return PlanarVerdict(False, REASON_UNPAIRED, None)
    if negatives[0] != negatives[1]:
        return PlanarVerdict(False, REASON_DISTINCT_NEGATIVE, None)
    # Equal negative eigenvalues: embeddable iff diagonalizable, i.e. two
    # size-1 cells rather than one size-2 Jordan block.
    sizes = [b.size for b in A.blocks if isinstance(b, JordanBlock)]
    if sizes == [1, 1]:
        paired, _ = pair_negative_blocks(A)
        log = real_log(paired)
        _assert_weakly_nonresonant(log)
        return PlanarVerdict(True, REASON_EQUAL_NEGATIVE, log)
    return PlanarVerdict(False, REASON_UNPAIRED, None)


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
