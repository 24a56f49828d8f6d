"""Real normal-form block matrices, their logarithms, and branch choices.

The linear part of a germ is given in real block normal form: Jordan blocks
for real eigenvalues, rotation blocks

    D = [[alpha, beta], [-beta, alpha]]     (eigenvalues alpha -+ i*beta)

with identity couplings between repeated cells, and interleaved pairs of
equal negative Jordan blocks (the only negative structure admitting a real
logarithm).  A real logarithm B with exp(B) = A is built block by block in
closed form; the multivalued angles carry explicit branch integers:

* each rotation block may add 2*pi*l to its angle,
* each negative pair uses angle (2k+1)*pi.

Eigenvalue data is tracked exactly (``EigenScalar``) whenever the block
parameters permit, so resonance questions downstream are decided exactly.

Complexified coordinates: each 2x2 cell gets z = x_i + i*x_{i+1}, turning
every block lower triangular with the eigenvalues on the diagonal and
couplings only between equal-eigenvalue coordinates
(:class:`TriangularLinear`).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .jets import MODE_FLOAT, PolyJet, RealPairing
from .scalars import EigenScalar, ExactnessError, QQi

__all__ = [
    "JordanBlock",
    "RotationBlock",
    "NegativePairBlock",
    "LogBlock",
    "BlockMatrix",
    "EigenData",
    "BranchChoice",
    "TriangularLinear",
    "SpectralError",
    "is_hyperbolic",
    "has_real_log",
    "pair_negative_blocks",
    "real_log",
    "weakly_nonresonant_branch",
    "BRANCH_BOUND",
    "block_matrix_from_dense",
    "dense_exp",
]

_EIG_TOL = 1e-9
# Branch integers |k| <= BRANCH_BOUND per block are searched for a weakly
# nonresonant logarithm.
BRANCH_BOUND = 3


class SpectralError(ValueError):
    """A block matrix violates a precondition (singular, unpaired, ...)."""


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


# -- block kinds ----------------------------------------------------------


@dataclass(frozen=True)
class JordanBlock:
    """Real eigenvalue block: lambda on the diagonal, 1 on the subdiagonal.

    ``mu`` optionally fixes the exact logarithm of the eigenvalue (used for
    moduli like e^8 that are exact in log form but not as rationals).
    """

    eigenvalue: object
    size: int = 1
    mu: EigenScalar | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("block size must be positive")
        if self.mu is not None and float(self.eigenvalue) <= 0:
            raise ValueError("exact log form only for positive eigenvalues")

    @property
    def order(self) -> int:
        return self.size


@dataclass(frozen=True)
class RotationBlock:
    """Complex-pair block of ``cells`` copies of D with identity couplings.

    ``mu`` optionally fixes the exact principal logarithm of the z-side
    eigenvalue alpha - i*beta.
    """

    alpha: object
    beta: object
    cells: int = 1
    mu: EigenScalar | None = None

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError("cell count must be positive")
        if float(self.alpha) == 0 and float(self.beta) == 0:
            raise ValueError("rotation block must be nonsingular")
        if float(self.beta) == 0:
            raise ValueError("rotation block needs beta != 0")

    @property
    def order(self) -> int:
        return 2 * self.cells


@dataclass(frozen=True)
class NegativePairBlock:
    """Interleaved pair of equal negative Jordan blocks of size ``cells``.

    Coordinates are ordered (y_1, y'_1, y_2, y'_2, ...): the two copies are
    interleaved so the real logarithm is block structured and the complex
    pairing stays contiguous.
    """

    eigenvalue: object
    cells: int = 1

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError("cell count must be positive")
        if float(self.eigenvalue) >= 0:
            raise ValueError("negative-pair block needs a negative eigenvalue")

    @property
    def order(self) -> int:
        return 2 * self.cells


@dataclass(frozen=True)
class LogBlock:
    """Closed-form real logarithm of one source block, with a branch integer."""

    source: object
    branch: int = 0

    def __post_init__(self):
        if isinstance(self.source, JordanBlock) and self.branch != 0:
            raise ValueError("Jordan blocks carry no branch freedom")

    @property
    def order(self) -> int:
        return self.source.order


_BRANCHABLE = (RotationBlock, NegativePairBlock)


# -- eigen data ------------------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    """Per-coordinate eigenvalue logarithms mu (map eigenvalues are e^mu).

    Entries are :class:`EigenScalar` when exact, complex otherwise; the
    ordering matches the (complexified) coordinates.
    """

    entries: tuple

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def exact(self) -> bool:
        return all(isinstance(e, EigenScalar) for e in self.entries)

    def mu_complex(self) -> list[complex]:
        return [complex(e) for e in self.entries]

    def lambda_complex(self) -> list[complex]:
        out = []
        for e in self.entries:
            if isinstance(e, EigenScalar):
                out.append(e.exp_complex())
            else:
                out.append(cmath.exp(e))
        return out

    def lambda_exact(self):
        """Map eigenvalues as QQi scalars, or None when any is irrational."""
        out = []
        for e in self.entries:
            if not isinstance(e, EigenScalar):
                return None
            q = e.exp_exact()
            if q is None:
                return None
            out.append(q)
        return out

    @staticmethod
    def from_values(values) -> "EigenData":
        entries = []
        for v in values:
            if isinstance(v, EigenScalar):
                entries.append(v)
            else:
                entries.append(complex(v))
        return EigenData(tuple(entries))


def _rational_angle(alpha, beta):
    """Exact angle(alpha - i*beta)/pi for rational inputs, or None.

    Rational points on a circle have pi-rational angle only at the eighth
    turns (|alpha| = |beta|, or a coordinate vanishing).
    """
    if not (_is_rational(alpha) and _is_rational(beta)):
        return None
    a, b = Fraction(alpha), Fraction(beta)
    if b == 0:
        return Fraction(0) if a > 0 else Fraction(1)
    if a == 0:
        return Fraction(-1, 2) if b > 0 else Fraction(1, 2)
    if abs(a) == abs(b):
        if a > 0:
            return Fraction(-1, 4) if b > 0 else Fraction(1, 4)
        return Fraction(-3, 4) if b > 0 else Fraction(3, 4)
    return None


def _jordan_mu(block: JordanBlock):
    if block.mu is not None:
        return block.mu
    lam = block.eigenvalue
    if _is_rational(lam):
        return EigenScalar.from_signed_rational(Fraction(lam))
    lam = float(lam)
    return complex(math.log(abs(lam)), 0.0 if lam > 0 else math.pi)


def _rotation_mu(block: RotationBlock):
    """Principal z-side logarithm of alpha - i*beta."""
    if block.mu is not None:
        return block.mu
    q = _rational_angle(block.alpha, block.beta)
    if q is not None and _is_rational(block.alpha) and _is_rational(block.beta):
        mod2 = Fraction(block.alpha) ** 2 + Fraction(block.beta) ** 2
        half = EigenScalar.from_parts(0, mod2, q)
        return EigenScalar(half.rat, tuple((p, c / 2) for p, c in half.logs), q)
    a, b = float(block.alpha), float(block.beta)
    return complex(0.5 * math.log(a * a + b * b), -math.atan2(b, a))


def _negpair_mu(block: NegativePairBlock):
    """Principal (k = 0) z-side logarithm: ln|lambda| - i*pi."""
    lam = block.eigenvalue
    if _is_rational(lam):
        return EigenScalar.from_parts(0, abs(Fraction(lam)), -1)
    return complex(math.log(abs(float(lam))), -math.pi)


def _shift_mu(mu, l: int):
    """Add 2*pi*i*l to a logarithm."""
    if l == 0:
        return mu
    if isinstance(mu, EigenScalar):
        return mu.shifted_2pii(l)
    return mu + complex(0.0, 2.0 * math.pi * l)


def _block_eigen(block, branch: int):
    """Eigenvalue logs per coordinate of one block (complexified order)."""
    if isinstance(block, JordanBlock):
        return [_jordan_mu(block)] * block.size
    if isinstance(block, RotationBlock):
        mu = _shift_mu(_rotation_mu(block), -branch)
        return [mu, mu.conjugate()] * block.cells
    if isinstance(block, NegativePairBlock):
        mu = _shift_mu(_negpair_mu(block), -branch)
        return [mu, mu.conjugate()] * block.cells
    raise TypeError(f"unknown block {type(block).__name__}")


# -- dense forms ------------------------------------------------------------


def _rotation_cell(a: float, b: float) -> np.ndarray:
    """Real 2x2 cell of the complex scalar w = a - i*b acting on z."""
    return np.array([[a, b], [-b, a]], dtype=float)


def _source_dense(block) -> np.ndarray:
    if isinstance(block, JordanBlock):
        s = block.size
        out = np.eye(s) * float(block.eigenvalue)
        for i in range(1, s):
            out[i, i - 1] = 1.0
        return out
    if isinstance(block, RotationBlock):
        c = block.cells
        out = np.zeros((2 * c, 2 * c))
        cell = _rotation_cell(float(block.alpha), float(block.beta))
        for k in range(c):
            out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = cell
            if k:
                out[2 * k : 2 * k + 2, 2 * k - 2 : 2 * k] = np.eye(2)
        return out
    if isinstance(block, NegativePairBlock):
        c = block.cells
        out = np.eye(2 * c) * float(block.eigenvalue)
        for k in range(1, c):
            out[2 * k : 2 * k + 2, 2 * k - 2 : 2 * k] = np.eye(2)
        return out
    raise TypeError(f"unknown block {type(block).__name__}")


def _log_dense(block: LogBlock) -> np.ndarray:
    src, l = block.source, block.branch
    if isinstance(src, JordanBlock):
        lam = float(src.eigenvalue)
        if lam <= 0:
            raise SpectralError(
                "negative Jordan block has no real log on its own; "
                "pair it first"
            )
        s = src.size
        out = np.eye(s) * math.log(lam)
        for j in range(1, s):
            w = (-1.0) ** (j + 1) / (j * lam**j)
            for i in range(j, s):
                out[i, i - j] = w
        return out
    if isinstance(src, RotationBlock):
        a, b = float(src.alpha), float(src.beta)
        u = 0.5 * math.log(a * a + b * b)
        theta = math.atan2(b, a) + 2.0 * math.pi * l
        c = src.cells
        out = np.zeros((2 * c, 2 * c))
        for k in range(c):
            out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = np.array(
                [[u, theta], [-theta, u]]
            )
        lam_z = complex(a, -b)
        for j in range(1, c):
            w = (-1.0) ** (j + 1) / j * lam_z ** (-j)
            cell = _rotation_cell(w.real, -w.imag)
            for k in range(j, c):
                out[2 * k : 2 * k + 2, 2 * (k - j) : 2 * (k - j) + 2] = cell
        return out
    if isinstance(src, NegativePairBlock):
        lam = float(src.eigenvalue)
        rho = abs(lam)
        theta = (2 * l + 1) * math.pi
        c = src.cells
        out = np.zeros((2 * c, 2 * c))
        for k in range(c):
            out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = np.array(
                [[math.log(rho), theta], [-theta, math.log(rho)]]
            )
        for j in range(1, c):
            w = (-1.0) ** (j + 1) / (j * lam**j)
            for k in range(j, c):
                out[2 * k : 2 * k + 2, 2 * (k - j) : 2 * (k - j) + 2] = (
                    np.eye(2) * w
                )
        return out
    raise TypeError(f"unknown block {type(src).__name__}")


# -- triangular (complexified) form -----------------------------------------


@dataclass(frozen=True)
class TriangularLinear:
    """Lower-triangular complexified linear map.

    ``diag`` holds the eigenvalue scalars (QQi when exact), ``nil`` the
    strictly lower couplings as (row, col, scalar); couplings only join
    equal-eigenvalue coordinates.  ``eigen`` carries the exact logarithm
    data used for resonance decisions.
    """

    dim: int
    diag: tuple
    nil: tuple
    eigen: EigenData

    def __post_init__(self):
        for i, k, _ in self.nil:
            if not 0 <= k < i < self.dim:
                raise ValueError("couplings must be strictly lower triangular")

    @property
    def is_diagonal(self) -> bool:
        return not self.nil

    @property
    def exact(self) -> bool:
        return all(isinstance(d, QQi) for d in self.diag) and all(
            isinstance(c, QQi) for _, _, c in self.nil
        )

    def dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for j, d in enumerate(self.diag):
            out[j, j] = complex(d)
        for i, k, c in self.nil:
            out[i, k] = complex(c)
        return out

    def linear_jet(self, degree, mode=MODE_FLOAT) -> PolyJet:
        terms = []
        for j, d in enumerate(self.diag):
            terms.append((j, tuple(int(i == j) for i in range(self.dim)), _cast(d, mode)))
        for i, k, c in self.nil:
            terms.append((i, tuple(int(t == k) for t in range(self.dim)), _cast(c, mode)))
        return PolyJet.build(self.dim, degree, mode, terms, tol=0.0)


def _cast(c, mode):
    if mode == MODE_FLOAT:
        return complex(c)
    if isinstance(c, QQi):
        return c
    raise ExactnessError(
        "exact mode needs Gaussian-rational linear entries; use float mode"
    )


def _block_triangular_A(block, offset, diag, nil, eigen, branch):
    mus = _block_eigen(block, branch)
    eigen.extend(mus)
    if isinstance(block, JordanBlock):
        lam = block.eigenvalue
        val = QQi(Fraction(lam)) if _is_rational(lam) else complex(float(lam))
        for t in range(block.size):
            diag.append(val)
            if t:
                nil.append((offset + t, offset + t - 1, _one_like(val)))
        return
    if isinstance(block, RotationBlock):
        if _is_rational(block.alpha) and _is_rational(block.beta):
            lam_z = QQi(Fraction(block.alpha), -Fraction(block.beta))
        else:
            lam_z = complex(float(block.alpha), -float(block.beta))
        lam_zb = lam_z.conjugate()
        for k in range(block.cells):
            diag.append(lam_z)
            diag.append(lam_zb)
            if k:
                one = _one_like(lam_z)
                nil.append((offset + 2 * k, offset + 2 * k - 2, one))
                nil.append((offset + 2 * k + 1, offset + 2 * k - 1, one))
        return
    if isinstance(block, NegativePairBlock):
        lam = block.eigenvalue
        val = QQi(Fraction(lam)) if _is_rational(lam) else complex(float(lam))
        for k in range(block.cells):
            diag.append(val)
            diag.append(val)
            if k:
                one = _one_like(val)
                nil.append((offset + 2 * k, offset + 2 * k - 2, one))
                nil.append((offset + 2 * k + 1, offset + 2 * k - 1, one))
        return
    raise TypeError(f"unknown block {type(block).__name__}")


def _one_like(val):
    return QQi(1) if isinstance(val, QQi) else (1.0 + 0.0j)


def _block_triangular_log(block: LogBlock, offset, diag, nil, eigen):
    src, l = block.source, block.branch
    mus = _block_eigen(src, l)
    eigen.extend(mus)
    for mu in mus:
        diag.append(complex(mu))
    if isinstance(src, JordanBlock):
        lam = src.eigenvalue
        exact = _is_rational(lam)
        for j in range(1, src.size):
            if exact:
                w = QQi(Fraction(-1) ** (j + 1) / (j * Fraction(lam) ** j))
            else:
                w = complex((-1.0) ** (j + 1) / (j * float(lam) ** j))
            for i in range(j, src.size):
                nil.append((offset + i, offset + i - j, w))
        return
    if isinstance(src, RotationBlock):
        exact = _is_rational(src.alpha) and _is_rational(src.beta)
        if exact:
            lam_z = QQi(Fraction(src.alpha), -Fraction(src.beta))
        else:
            lam_z = complex(float(src.alpha), -float(src.beta))
        for j in range(1, src.cells):
            coef = Fraction(-1) ** (j + 1) / j
            if exact:
                w = lam_z ** (-j) * QQi(coef)
            else:
                w = float(coef) * lam_z ** (-j)
            wb = w.conjugate()
            for k in range(j, src.cells):
                nil.append((offset + 2 * k, offset + 2 * (k - j), w))
                nil.append((offset + 2 * k + 1, offset + 2 * (k - j) + 1, wb))
        return
    if isinstance(src, NegativePairBlock):
        lam = src.eigenvalue
        exact = _is_rational(lam)
        for j in range(1, src.cells):
            if exact:
                w = QQi(Fraction(-1) ** (j + 1) / (j * Fraction(lam) ** j))
            else:
                w = complex((-1.0) ** (j + 1) / (j * float(lam) ** j))
            for k in range(j, src.cells):
                nil.append((offset + 2 * k, offset + 2 * (k - j), w))
                nil.append((offset + 2 * k + 1, offset + 2 * (k - j) + 1, w))
        return
    raise TypeError(f"unknown block {type(src).__name__}")


# -- block matrix -----------------------------------------------------------


@dataclass(frozen=True)
class BlockMatrix:
    """Ordered list of blocks along the diagonal."""

    blocks: tuple

    def __post_init__(self):
        for b in self.blocks:
            if not isinstance(
                b, (JordanBlock, RotationBlock, NegativePairBlock, LogBlock)
            ):
                raise TypeError(f"unknown block {type(b).__name__}")

    @property
    def dim(self) -> int:
        return sum(b.order for b in self.blocks)

    @property
    def is_log(self) -> bool:
        return all(isinstance(b, LogBlock) for b in self.blocks)

    def offsets(self) -> list[int]:
        out, o = [], 0
        for b in self.blocks:
            out.append(o)
            o += b.order
        return out

    def to_dense(self) -> np.ndarray:
        n = self.dim
        out = np.zeros((n, n))
        for b, o in zip(self.blocks, self.offsets()):
            d = _log_dense(b) if isinstance(b, LogBlock) else _source_dense(b)
            out[o : o + b.order, o : o + b.order] = d
        return out

    def pairing(self) -> RealPairing:
        pairs = []
        for b, o in zip(self.blocks, self.offsets()):
            src = b.source if isinstance(b, LogBlock) else b
            if isinstance(src, (RotationBlock, NegativePairBlock)):
                for k in range(src.cells):
                    pairs.append((o + 2 * k, o + 2 * k + 1))
        return RealPairing(self.dim, tuple(pairs))

    def eigen(self) -> EigenData:
        entries = []
        for b in self.blocks:
            if isinstance(b, LogBlock):
                entries.extend(_block_eigen(b.source, b.branch))
            else:
                entries.extend(_block_eigen(b, 0))
        return EigenData.from_values(entries)

    def triangular(self) -> TriangularLinear:
        diag, nil, eigen = [], [], []
        for b, o in zip(self.blocks, self.offsets()):
            if isinstance(b, LogBlock):
                _block_triangular_log(b, o, diag, nil, eigen)
            else:
                _block_triangular_A(b, o, diag, nil, eigen, 0)
        return TriangularLinear(
            self.dim, tuple(diag), tuple(nil), EigenData.from_values(eigen)
        )


@dataclass(frozen=True)
class BranchChoice:
    """Branch integers aligned with the block list (0 on Jordan slots)."""

    values: tuple[int, ...]

    @staticmethod
    def zeros(a: BlockMatrix) -> "BranchChoice":
        return BranchChoice((0,) * len(a.blocks))

    @staticmethod
    def assign(a: BlockMatrix, negpair_ks=(), rotation_ls=()) -> "BranchChoice":
        """Distribute k's over negative pairs and l's over rotation blocks, in order."""
        ks, ls = list(negpair_ks), list(rotation_ls)
        values = []
        for b in a.blocks:
            src = b.source if isinstance(b, LogBlock) else b
            if isinstance(src, NegativePairBlock):
                values.append(int(ks.pop(0)) if ks else 0)
            elif isinstance(src, RotationBlock):
                values.append(int(ls.pop(0)) if ls else 0)
            else:
                values.append(0)
        if ks or ls:
            raise ValueError("more branch integers than branchable blocks")
        return BranchChoice(tuple(values))

    def validate(self, a: BlockMatrix):
        if len(self.values) != len(a.blocks):
            raise ValueError("branch choice length mismatch")
        for b, v in zip(a.blocks, self.values):
            src = b.source if isinstance(b, LogBlock) else b
            if v and not isinstance(src, _BRANCHABLE):
                raise ValueError("branch integer on a branchless block")


# -- predicates and constructions -------------------------------------------


def _block_modulus_is_one(block, tol):
    if isinstance(block, JordanBlock):
        lam = block.eigenvalue
        if _is_rational(lam):
            return abs(Fraction(lam)) == 1
        return abs(abs(float(lam)) - 1.0) <= tol
    if isinstance(block, RotationBlock):
        a, b = block.alpha, block.beta
        if block.mu is not None:
            return block.mu.real_is_zero
        if _is_rational(a) and _is_rational(b):
            return Fraction(a) ** 2 + Fraction(b) ** 2 == 1
        return abs(math.hypot(float(a), float(b)) - 1.0) <= tol
    if isinstance(block, NegativePairBlock):
        lam = block.eigenvalue
        if _is_rational(lam):
            return abs(Fraction(lam)) == 1
        return abs(abs(float(lam)) - 1.0) <= tol
    raise TypeError(f"unknown block {type(block).__name__}")


def _check_nonsingular(a: BlockMatrix):
    for b in a.blocks:
        if isinstance(b, JordanBlock) and float(b.eigenvalue) == 0:
            raise SpectralError("singular matrix: zero eigenvalue")


def is_hyperbolic(a: BlockMatrix, tol=_EIG_TOL) -> bool:
    """True when no eigenvalue has modulus 1 (within ``tol`` for floats)."""
    _check_nonsingular(a)
    return not any(_block_modulus_is_one(b, tol) for b in a.blocks)


def _jordan_eq(b1: JordanBlock, b2: JordanBlock, tol=_EIG_TOL) -> bool:
    if b1.size != b2.size:
        return False
    l1, l2 = b1.eigenvalue, b2.eigenvalue
    if _is_rational(l1) and _is_rational(l2):
        return Fraction(l1) == Fraction(l2)
    return abs(float(l1) - float(l2)) <= tol * max(1.0, abs(float(l1)))


def has_real_log(a: BlockMatrix):
    """Decide existence of a real logarithm; return (bool, pairing).

    A real log exists iff every negative-eigenvalue Jordan block can be
    matched with an equal partner (negative pairs and rotation blocks are
    always fine).  The returned pairing lists the matched block indices.
    """
    _check_nonsingular(a)
    pairs = []
    open_idx = None
    for i, b in enumerate(a.blocks):
        if isinstance(b, JordanBlock) and float(b.eigenvalue) < 0:
            if open_idx is not None and _jordan_eq(a.blocks[open_idx], b):
                pairs.append((open_idx, i))
                open_idx = None
            elif open_idx is None:
                open_idx = i
            else:
                return False, tuple(pairs)
    if open_idx is not None:
        # One unpaired candidate left; try any later equal block (non
        # adjacent pairings certify existence but real_log wants adjacency).
        return False, tuple(pairs)
    return True, tuple(pairs)


def pair_negative_blocks(a: BlockMatrix):
    """Replace adjacent equal negative Jordan blocks by interleaved pairs.

    Returns ``(a2, perm)`` where coordinate ``i`` of the new matrix is
    coordinate ``perm[i]`` of the old one.  For size-1 pairs the
    permutation is the identity.
    """
    ok, pairs = has_real_log(a)
    if not ok:
        raise SpectralError("no real logarithm: unpaired negative Jordan block")
    paired = {i: j for i, j in pairs}
    partner = {j for _, j in pairs}
    for i, j in pairs:
        if j != i + 1:
            raise SpectralError(
                "paired negative blocks must be adjacent; reorder the blocks"
            )
    offsets = a.offsets()
    blocks, perm = [], []
    i = 0
    while i < len(a.blocks):
        b = a.blocks[i]
        if i in paired:
            s = b.size
            o1, o2 = offsets[i], offsets[i + 1]
            blocks.append(NegativePairBlock(b.eigenvalue, s))
            for t in range(s):
                perm.append(o1 + t)
                perm.append(o2 + t)
            i += 2
            continue
        if i in partner:
            raise SpectralError("inconsistent pairing")
        blocks.append(b)
        perm.extend(range(offsets[i], offsets[i] + b.order))
        i += 1
    return BlockMatrix(tuple(blocks)), tuple(perm)


def real_log(a: BlockMatrix, branch: BranchChoice | None = None) -> BlockMatrix:
    """Closed-form real logarithm B with exp(B) = A.

    Negative Jordan blocks must have been paired
    (:func:`pair_negative_blocks`) first.  ``branch`` selects the angle
    branch per rotation block (theta + 2*pi*l) and per negative pair
    ((2k+1)*pi); the default takes every integer zero.
    """
    _check_nonsingular(a)
    for b in a.blocks:
        if isinstance(b, JordanBlock) and float(b.eigenvalue) < 0:
            raise SpectralError(
                "negative Jordan block: pair_negative_blocks first"
            )
    if branch is None:
        branch = BranchChoice.zeros(a)
    branch.validate(a)
    return BlockMatrix(
        tuple(
            LogBlock(b, v) for b, v in zip(a.blocks, branch.values)
        )
    )


def dense_exp(m: np.ndarray, terms=40) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor sum."""
    m = np.asarray(m, dtype=complex)
    norm = np.linalg.norm(m, 1)
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    a = m / (2**s)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
        if np.linalg.norm(term, 1) < 1e-20 * max(1.0, np.linalg.norm(out, 1)):
            break
    for _ in range(s):
        out = out @ out
    if np.max(np.abs(np.imag(out))) < 1e-12 * max(1.0, np.max(np.abs(out))):
        out = np.real(out).astype(float)
    return out


def log_residual(a: BlockMatrix, b: BlockMatrix) -> float:
    """Max-entry residual |exp(B) - A| of a proposed logarithm."""
    return float(np.max(np.abs(dense_exp(b.to_dense()) - a.to_dense())))


def _branch_shifts(a: BlockMatrix):
    """Per-coordinate effect of the branch integers on the log eigenvalues.

    Returns ``(slots, S)``: the indices of the branchable blocks, and the
    integer matrix S with one row per coordinate and one column per slot.
    Branch k on a block adds -2*pi*i*k to its z-side logs and +2*pi*i*k to
    their conjugates, so S holds +1 on z-side and -1 on conjugate
    coordinates: the weak witness l with mu_j - <m, mu> = 2*pi*i*l then
    moves by (m @ S - S[j]) . k.
    """
    branchable = [
        (i, o, b.order)
        for i, (b, o) in enumerate(zip(a.blocks, a.offsets()))
        if isinstance(b.source if isinstance(b, LogBlock) else b, _BRANCHABLE)
    ]
    S = np.zeros((a.dim, len(branchable)), dtype=np.int64)
    for col, (_, o, order) in enumerate(branchable):
        S[o : o + order : 2, col] = 1
        S[o + 1 : o + order : 2, col] = -1
    return [i for i, _, _ in branchable], S


def weakly_nonresonant_branch(
    a: BlockMatrix, degree: int, bound: int = BRANCH_BOUND, tol=_EIG_TOL
):
    """Search for a branch whose log eigenvalues have no weak resonance.

    Candidates are ordered by total branch magnitude, then lexicographic,
    so the principal branch is tried first.  Returns a
    :class:`BranchChoice` or ``None`` when every candidate within
    ``|k|, |l| <= bound`` has a weak resonance up to ``degree``.

    The principal logarithm is scanned once.  A branch shift moves
    <m, mu> - mu_j by 2*pi*i times an integer, so the pairs in 2*pi*i*Z are
    the same on every branch, and the witness of such a pair on branch k is
    l0 + c.k (l0 its principal witness, 0 when field resonant).  The search
    is for the first candidate k that zeroes every row (l0, c).
    """
    from .resonance import field_resonances

    report = field_resonances(real_log(a).eigen(), degree, tol=tol)
    slots, S = _branch_shifts(a)
    hits = [(j, m, 0) for j, m in report.field_resonant] + list(report.weak)
    rows = set()
    for j, m, l0 in hits:
        c = np.asarray(m, dtype=np.int64) @ S - S[j]
        if abs(l0) > bound * int(np.abs(c).sum()):
            return None  # no |k| <= bound zeroes this witness
        if c.any():
            rows.add((l0, tuple(int(v) for v in c)))
    candidates = sorted(
        itertools.product(range(-bound, bound + 1), repeat=len(slots)),
        key=lambda k: (sum(abs(v) for v in k), k),
    )
    L0 = np.array([l0 for l0, _ in rows], dtype=np.int64)
    C = np.array([c for _, c in rows], dtype=np.int64).reshape(len(rows), len(slots))
    K = np.array(candidates, dtype=np.int64).reshape(len(candidates), len(slots))
    ok = (K @ C.T + L0 == 0).all(axis=1)
    if not ok.any():
        return None
    best = candidates[int(np.argmax(ok))]
    values = [0] * len(a.blocks)
    for slot, v in zip(slots, best):
        values[slot] = v
    return BranchChoice(tuple(values))


# -- dense loader ------------------------------------------------------------


def block_matrix_from_dense(matrix, tol=_EIG_TOL) -> BlockMatrix:
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
