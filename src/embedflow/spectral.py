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
A block's eigenvalue (QQi when its parameters are rational) and its log
are both read off the parameters; neither is computed from the other, so
a rotation at a generic angle has a Gaussian-rational eigenvalue and a
float log.

Complexified coordinates: each 2x2 cell gets z = x_i + i*x_{i+1}, turning
every block lower triangular with the eigenvalues on the diagonal and
couplings only between equal-eigenvalue coordinates
(:class:`TriangularLinear`).  Every block, and every block of a logarithm,
is described once as ``cells`` copies of a 1- or 2-coordinate cell coupled
to the cells before it; the triangular form, the eigen data and the real
dense form are all read off that description.

A block matrix, its triangular form and its eigen data are immutable, and
every value derived from one of them (the pairing of negative blocks, the
real logarithm per branch, the dense forms, the linear jets, the resonance
scans, ...) is computed once and kept on that object, per argument tuple
(:func:`_keep`).  Kept arrays are read-only and kept jets have read-only
coefficient maps, so that no caller can change what a later one reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .jets import MODE_FLOAT, PolyJet, RealPairing
from .scalars import EigenScalar, ExactnessError, QQi
from .tolerances import DEFAULT_TOL

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
]

# Branch integers |k| <= BRANCH_BOUND per block are searched for a weakly
# nonresonant logarithm.
BRANCH_BOUND = 3


class SpectralError(ValueError):
    """A block matrix violates a precondition (singular, unpaired, ...)."""


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


_UNSET = object()


def _keep(obj, key, build):
    """``build()``, computed on the first call and kept on ``obj`` under ``key``.

    ``obj`` is an immutable linear-part object: a :class:`BlockMatrix`, a
    :class:`TriangularLinear` or an :class:`EigenData`.  The value lives in
    the object's own ``__dict__``, as a ``cached_property`` does, and never
    in a table keyed by value: ``JordanBlock(2.0, 1)`` and
    ``JordanBlock(Fraction(2), 1)`` compare and hash equal, yet analyse to
    complex and QQi diagonals.  A build that raises keeps nothing.
    """
    kept = obj.__dict__.setdefault("_kept", {})
    value = kept.get(key, _UNSET)
    if value is _UNSET:
        value = kept[key] = build()
    return value


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
        if isinstance(self.source, JordanBlock):
            if self.branch != 0:
                raise ValueError("Jordan blocks carry no branch freedom")
            if float(self.source.eigenvalue) <= 0:
                raise SpectralError(
                    "negative Jordan block has no real log on its own; "
                    "pair it first"
                )

    @property
    def order(self) -> int:
        return self.source.order


_BRANCHABLE = (RotationBlock, NegativePairBlock)


# -- eigen data ------------------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    """Per-coordinate eigenvalue logarithms mu (map eigenvalues are e^mu).

    Entries are :class:`EigenScalar` when exact, complex otherwise; the
    ordering matches the (complexified) coordinates.  The map eigenvalues
    themselves are read from the diagonal of A's :class:`TriangularLinear`,
    not from these logs.
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


def _scalar(x):
    return QQi(x) if _is_rational(x) else complex(float(x))


def _describe(block, branch: int = 0):
    """One source block as ``cells`` copies of a cell of ``stride`` coordinates.

    Returns ``(stride, cells, lams, mus)``: ``lams`` are one cell's map
    eigenvalues (QQi when rational, else complex) and ``mus`` their logs on
    ``branch`` (EigenScalar when exact, else complex), z-side first.  Cell k
    is coupled to the cells before it, slot to slot.
    """
    if isinstance(block, JordanBlock):
        return 1, block.size, (_scalar(block.eigenvalue),), (_jordan_mu(block),)
    if isinstance(block, RotationBlock):
        a, b = block.alpha, block.beta
        if _is_rational(a) and _is_rational(b):
            lam = QQi(a, -b)
        else:
            lam = complex(float(a), -float(b))
        lams, mu = (lam, lam.conjugate()), _rotation_mu(block)
    elif isinstance(block, NegativePairBlock):
        lam = _scalar(block.eigenvalue)
        lams, mu = (lam, lam), _negpair_mu(block)
    else:
        raise TypeError(f"unknown block {type(block).__name__}")
    mu = _shift_mu(mu, -branch)
    return 2, block.cells, lams, (mu, mu.conjugate())


def _log_coupling(lam, j: int):
    """Coupling (-1)^(j+1)/(j*lam^j) of log A between cells k and k - j."""
    if isinstance(lam, QQi):
        return QQi(Fraction((-1) ** (j + 1), j)) * lam ** (-j)
    if lam.imag == 0:  # a real eigenvalue: real power, no complex one
        return complex((-1.0) ** (j + 1) / (j * lam.real**j))
    return (-1.0) ** (j + 1) / j * lam ** (-j)


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

    def dense(self) -> np.ndarray:
        """The complex matrix, read-only; kept."""
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for j, d in enumerate(self.diag):
            out[j, j] = complex(d)
        for i, k, c in self.nil:
            out[i, k] = complex(c)
        return _read_only(out)

    def linear_jet(self, degree, mode=MODE_FLOAT) -> PolyJet:
        """The map as a ``mode`` jet truncated at ``degree``, with a
        read-only coefficient map; kept per ``(degree, mode)``."""
        return _keep(self, ("linear_jet", degree, mode), lambda: self._linear_jet(degree, mode))

    def _linear_jet(self, degree, mode) -> PolyJet:
        terms = []
        for j, d in enumerate(self.diag):
            terms.append((j, tuple(int(i == j) for i in range(self.dim)), _cast(d, mode)))
        for i, k, c in self.nil:
            terms.append((i, tuple(int(t == k) for t in range(self.dim)), _cast(c, mode)))
        jet = PolyJet.build(self.dim, degree, mode, terms)
        return PolyJet(jet.dim, jet.degree, jet.mode, MappingProxyType(jet.coeffs))


def _cast(c, mode):
    if mode == MODE_FLOAT:
        return complex(c)
    if isinstance(c, QQi):
        return c
    raise ExactnessError(
        "exact mode needs Gaussian-rational linear entries; use float mode"
    )


# -- block matrix -----------------------------------------------------------


def _source(b):
    return b.source if isinstance(b, LogBlock) else b


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

    @cached_property
    def _described(self) -> tuple:
        """``(is_log, _describe(source, branch))`` per block."""
        return tuple(
            (True, _describe(b.source, b.branch))
            if isinstance(b, LogBlock)
            else (False, _describe(b))
            for b in self.blocks
        )

    @cached_property
    def _triangular(self) -> TriangularLinear:
        # A couples cell k to cell k - 1 by 1 (lam**0, in lam's ring); log A
        # couples it to every cell k - j by _log_coupling.
        diag, nil, o = [], [], 0
        for is_log, (stride, cells, lams, mus) in self._described:
            diag.extend((tuple(complex(m) for m in mus) if is_log else lams) * cells)
            for j in range(1, cells if is_log else min(cells, 2)):
                ws = [_log_coupling(lam, j) if is_log else lam**0 for lam in lams]
                for k in range(j, cells):
                    for s, w in enumerate(ws):
                        nil.append((o + stride * k + s, o + stride * (k - j) + s, w))
            o += stride * cells
        return TriangularLinear(self.dim, tuple(diag), tuple(nil), self._eigen)

    def triangular(self) -> TriangularLinear:
        return self._triangular

    def eigen(self) -> EigenData:
        return self._eigen

    @cached_property
    def _eigen(self) -> EigenData:
        return EigenData.from_values(
            mu for _, (_, cells, _, mus) in self._described for mu in mus * cells
        )

    def to_dense(self) -> np.ndarray:
        """Real matrix of the triangular form, read-only; kept.

        A z-side entry c is the real cell [[Re c, -Im c], [Im c, Re c]] (its
        conjugate twin is implied); an unpaired entry is real.
        """
        return self._real_dense

    @cached_property
    def _real_dense(self) -> np.ndarray:
        tri = self._triangular
        pairing = self.pairing()
        zside = {i for i, _ in pairing.pairs}
        real = set(pairing.real_indices)
        out = np.zeros((self.dim, self.dim))
        for i, k, c in itertools.chain(
            ((j, j, d) for j, d in enumerate(tri.diag)), tri.nil
        ):
            c = complex(c)
            if i in zside:
                out[i : i + 2, k : k + 2] = [[c.real, -c.imag], [c.imag, c.real]]
            elif i in real:
                out[i, k] = c.real
        return _read_only(out + 0.0)  # no -0.0 from negated zero imaginary parts

    @cached_property
    def _pairing(self) -> RealPairing:
        pairs = []
        for b, o in zip(self.blocks, self.offsets()):
            if isinstance(_source(b), _BRANCHABLE):
                pairs.extend((o + 2 * k, o + 2 * k + 1) for k in range(b.order // 2))
        return RealPairing(self.dim, tuple(pairs))

    def pairing(self) -> RealPairing:
        return self._pairing


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
            src = _source(b)
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
            if v and not isinstance(_source(b), _BRANCHABLE):
                raise ValueError("branch integer on a branchless block")


# -- predicates and constructions -------------------------------------------


def _check_nonsingular(a: BlockMatrix):
    for b in a.blocks:
        if isinstance(b, JordanBlock) and float(b.eigenvalue) == 0:
            raise SpectralError("singular matrix: zero eigenvalue")


def _unit_modulus(block, tol) -> bool:
    """Whether a source block's eigenvalue has modulus 1: exactly from a
    given log ``mu`` or from rational parameters, else within ``tol``."""
    mu = getattr(block, "mu", None)
    if mu is not None:
        return mu.real_is_zero
    if isinstance(block, RotationBlock):
        a, b = block.alpha, block.beta
        if _is_rational(a) and _is_rational(b):
            return a * a + b * b == 1
        return abs(abs(complex(float(a), -float(b))) - 1.0) <= tol
    lam = block.eigenvalue
    if _is_rational(lam):
        return abs(lam) == 1
    return abs(abs(float(lam)) - 1.0) <= tol


def is_hyperbolic(a: BlockMatrix, tol=DEFAULT_TOL) -> bool:
    """True when no eigenvalue has modulus 1 (within ``tol`` for floats);
    kept per ``tol``.

    The test is exact whenever the block's log or eigenvalue is, and reads
    the block parameters alone: no logarithm is formed.
    """
    return _keep(a, ("is_hyperbolic", tol), lambda: _is_hyperbolic(a, tol))


def _is_hyperbolic(a: BlockMatrix, tol) -> bool:
    _check_nonsingular(a)
    return not any(_unit_modulus(_source(b), tol) for b in a.blocks)


def _jordan_eq(b1: JordanBlock, b2: JordanBlock, tol=DEFAULT_TOL) -> bool:
    if b1.size != b2.size:
        return False
    l1, l2 = b1.eigenvalue, b2.eigenvalue
    if _is_rational(l1) and _is_rational(l2):
        return Fraction(l1) == Fraction(l2)
    return abs(float(l1) - float(l2)) <= tol * max(1.0, abs(float(l1)))


def has_real_log(a: BlockMatrix):
    """Decide existence of a real logarithm; return (bool, pairing); kept.

    A real log exists iff the negative-eigenvalue Jordan blocks of each size
    and eigenvalue come in pairs (Culver, Proc. AMS 17, 1966); negative
    pairs and rotation blocks are always fine.  Each negative block is
    matched with the first later unmatched equal block; the returned
    pairing lists the matched block indices, sorted.
    """
    return _keep(a, "has_real_log", lambda: _has_real_log(a))


def _has_real_log(a: BlockMatrix):
    _check_nonsingular(a)
    pairs, open_idx = [], []
    for i, b in enumerate(a.blocks):
        if isinstance(b, JordanBlock) and float(b.eigenvalue) < 0:
            p = next((p for p in open_idx if _jordan_eq(a.blocks[p], b)), None)
            if p is None:
                open_idx.append(i)
            else:
                open_idx.remove(p)
                pairs.append((p, i))
    return not open_idx, tuple(sorted(pairs))


def pair_negative_blocks(a: BlockMatrix):
    """Replace matched equal negative Jordan blocks by interleaved pairs.

    Each pair of :func:`has_real_log` becomes one block where its first
    block sits; the partner's coordinates move next to it.  Returns
    ``(a2, perm)`` where coordinate ``i`` of the new matrix is coordinate
    ``perm[i]`` of the old one.  For adjacent size-1 pairs the permutation
    is the identity.  Kept: every call on ``a`` returns the same ``a2``.
    """
    return _keep(a, "pair_negative_blocks", lambda: _pair_negative_blocks(a))


def _pair_negative_blocks(a: BlockMatrix):
    ok, pairs = has_real_log(a)
    if not ok:
        raise SpectralError("no real logarithm: unpaired negative Jordan block")
    partner = dict(pairs)
    later = set(partner.values())
    offsets = a.offsets()
    blocks, perm = [], []
    for i, b in enumerate(a.blocks):
        if i in later:
            continue
        if i in partner:
            o1, o2 = offsets[i], offsets[partner[i]]
            blocks.append(NegativePairBlock(b.eigenvalue, b.size))
            for t in range(b.size):
                perm.append(o1 + t)
                perm.append(o2 + t)
            continue
        blocks.append(b)
        perm.extend(range(offsets[i], offsets[i] + b.order))
    return BlockMatrix(tuple(blocks)), tuple(perm)


def real_log(a: BlockMatrix, branch: BranchChoice | None = None) -> BlockMatrix:
    """Closed-form real logarithm B with exp(B) = A.

    Negative Jordan blocks must have been paired
    (:func:`pair_negative_blocks`) first.  ``branch`` selects the angle
    branch per rotation block (theta + 2*pi*l) and per negative pair
    ((2k+1)*pi); the default takes every integer zero.  Kept per branch:
    every call on ``a`` with the same integers returns the same B.
    """
    if branch is None:
        branch = BranchChoice.zeros(a)
    return _keep(a, ("real_log", branch.values), lambda: _real_log(a, branch))


def _real_log(a: BlockMatrix, branch: BranchChoice) -> BlockMatrix:
    _check_nonsingular(a)
    for b in a.blocks:
        if isinstance(b, JordanBlock) and float(b.eigenvalue) < 0:
            raise SpectralError(
                "negative Jordan block: pair_negative_blocks first"
            )
    branch.validate(a)
    log = BlockMatrix(
        tuple(
            LogBlock(b, v) for b, v in zip(a.blocks, branch.values)
        )
    )
    if not any(branch.values):
        # the principal logarithm's log eigenvalues are A's: one EigenData
        # serves both, and with it every resonance scan kept on it
        log.__dict__["_eigen"] = a.eigen()
    return log


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
        if isinstance(_source(b), _BRANCHABLE)
    ]
    S = np.zeros((a.dim, len(branchable)), dtype=np.int64)
    for col, (_, o, order) in enumerate(branchable):
        S[o : o + order : 2, col] = 1
        S[o + 1 : o + order : 2, col] = -1
    return [i for i, _, _ in branchable], S


def weakly_nonresonant_branch(a: BlockMatrix, degree: int, tol=DEFAULT_TOL):
    """Search for a branch whose log eigenvalues have no weak resonance.

    Candidates are ordered by total branch magnitude, then lexicographic,
    so the principal branch is tried first.  Returns a
    :class:`BranchChoice` or ``None`` when every candidate within
    ``|k|, |l| <= BRANCH_BOUND`` has a weak resonance up to ``degree``.

    The principal logarithm is scanned once, and the scan is kept on its
    eigen data, which are A's.  A branch shift moves <m, mu> - mu_j by
    2*pi*i times an integer, so the pairs in 2*pi*i*Z are the same on every
    branch, and the witness of such a pair on branch k is l0 + c.k (l0 its
    principal witness, 0 when field resonant).  The search is for the first
    candidate k that zeroes every row (l0, c).
    """
    from .resonance import field_resonances

    report = field_resonances(real_log(a).eigen(), degree, tol=tol)
    slots, S = _branch_shifts(a)
    hits = [(j, m, 0) for j, m in report.field_resonant] + list(report.weak)
    rows = set()
    for j, m, l0 in hits:
        c = np.asarray(m, dtype=np.int64) @ S - S[j]
        if abs(l0) > BRANCH_BOUND * int(np.abs(c).sum()):
            return None  # no |k| <= BRANCH_BOUND zeroes this witness
        if c.any():
            rows.add((l0, tuple(int(v) for v in c)))
    candidates = sorted(
        itertools.product(range(-BRANCH_BOUND, BRANCH_BOUND + 1), repeat=len(slots)),
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
