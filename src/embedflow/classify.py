"""Planar embeddability.

For hyperbolic 2x2 linear parts the embedding question closes completely
(the third theorem): A admits an embedding flow iff it has a real
logarithm, that is, no negative eigenvalues, or two equal negative ones
with A diagonalizable.  In every embeddable case the real logarithm of
the paired blocks works, and its eigenvalues are weakly nonresonant (the
real part of <m,mu> - mu_j is (|m|-1)*ln|lambda| != 0 whenever the moduli
agree, and nonzero by hyperbolicity otherwise), so the solver route is
guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spectral import (
    BlockMatrix,
    JordanBlock,
    NegativePairBlock,
    has_real_log,
    pair_negative_blocks,
    real_log,
)

__all__ = ["PlanarVerdict", "classify_2d"]

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


def classify_2d(A: BlockMatrix) -> PlanarVerdict:
    """Decide embeddability of a planar hyperbolic germ's linear part.

    Embeddable exactly when A has a real logarithm
    (:func:`embedflow.spectral.has_real_log`).  The verdict's logarithm is
    the principal real logarithm of :func:`pair_negative_blocks`'s
    matrix, in which two equal negative cells are one negative pair.  A
    must be hyperbolic; :func:`embedflow.pipeline.admit` decides that for
    the CLI, and it is not checked here.
    """
    if A.dim != 2:
        raise ValueError("classify_2d expects order 2")
    if has_real_log(A)[0]:
        paired, _ = pair_negative_blocks(A)
        negative = any(isinstance(b, NegativePairBlock) for b in paired.blocks)
        reason = REASON_EQUAL_NEGATIVE if negative else REASON_NO_NEGATIVE
        return PlanarVerdict(True, reason, real_log(paired))
    # two unmatched negative cells, or one negative cell or chain
    cells = [b for b in A.blocks if isinstance(b, JordanBlock) and float(b.eigenvalue) < 0]
    reason = REASON_DISTINCT_NEGATIVE if len(cells) == 2 else REASON_UNPAIRED
    return PlanarVerdict(False, reason, None)
