"""Seeded random builders shared by the test modules.

Everything takes an explicit numpy Generator so test runs are
reproducible; nothing here touches global RNG state.
"""

import math
from fractions import Fraction

import numpy as np

from embedflow import (
    MODE_EXACT,
    MODE_FLOAT,
    BlockMatrix,
    EigenScalar,
    GermSpec,
    JordanBlock,
    MultiIndex,
    NegativePairBlock,
    PolyJet,
    QQi,
    RotationBlock,
    field_resonances,
    multiindices,
    real_log,
)


def random_loggable_blocks(rng: np.random.Generator, n_max: int = 6) -> BlockMatrix:
    """Hyperbolic block matrix that has a real logarithm, dim <= n_max."""
    blocks = []
    dim = 0
    while dim < 2 or (dim < n_max and rng.random() < 0.6):
        kind = rng.choice(["jordan+", "rotation", "negpair", "jordan-pair"])
        room = n_max - dim
        if kind == "jordan+" and room >= 1:
            lam = float(rng.uniform(0.2, 3.0))
            if abs(lam - 1.0) < 0.1:
                lam += 0.2
            size = int(rng.integers(1, min(3, room) + 1))
            blocks.append(JordanBlock(lam, size))
            dim += size
        elif kind == "rotation" and room >= 2:
            r = float(rng.uniform(0.3, 2.5))
            if abs(r - 1.0) < 0.1:
                r += 0.2
            theta = float(rng.uniform(0.2, 3.0))
            blocks.append(
                RotationBlock(r * np.cos(theta), r * np.sin(theta), 1)
            )
            dim += 2
        elif kind == "negpair" and room >= 2:
            lam = -float(rng.uniform(0.3, 2.5))
            if abs(lam + 1.0) < 0.1:
                lam -= 0.2
            blocks.append(NegativePairBlock(lam, 1))
            dim += 2
        elif kind == "jordan-pair" and room >= 2:
            lam = -float(rng.uniform(0.3, 2.5))
            if abs(lam + 1.0) < 0.1:
                lam -= 0.2
            size = 1 if room < 4 or rng.random() < 0.7 else 2
            if 2 * size > room:
                size = 1
            blocks.append(JordanBlock(lam, size))
            blocks.append(JordanBlock(lam, size))
            dim += 2 * size
    return BlockMatrix(tuple(blocks))


_ANGLES = [Fraction(s * a, b) for s in (-1, 1) for a, b in ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4))]


def _rotation(u: Fraction, q: Fraction, exact: bool) -> RotationBlock:
    """Block with z-side eigenvalue e^(u + i*pi*q); exact log data if asked."""
    r, theta = math.exp(u), math.pi * q
    mu = EigenScalar.from_parts(rat=u, pi_part=q) if exact else None
    return RotationBlock(r * math.cos(theta), -r * math.sin(theta), 1, mu=mu)


def random_branch_spectrum(
    rng: np.random.Generator, exact: bool, branchable: int
) -> BlockMatrix:
    """Spectrum with ``branchable`` rotation/negative-pair blocks (dim <= 5).

    Log moduli are small multiples of one u and angles rational multiples
    of pi; a second rotation is mostly a power of the first, so weak
    resonances that some branches remove and others keep are common.
    Exact spectra carry exact log data; float spectra are the same blocks
    given by their float entries only.
    """
    u = Fraction(int(rng.choice([1, 2, 3])), int(rng.choice([1, 2])))
    blocks, first = [], None
    for _ in range(branchable):
        if first is not None and rng.random() < 0.7:
            p = int(rng.choice([2, 3]))
            q = p * first[1]
            q -= 2 * math.ceil((q - 1) / 2)  # into (-1, 1]
            if q not in (0, 1):
                blocks.append(_rotation(p * first[0], q, exact))
                continue
        if rng.random() < 0.7:
            uu = u * Fraction(int(rng.choice([-2, -1, 1, 2])), int(rng.choice([1, 2])))
            q = _ANGLES[int(rng.integers(0, len(_ANGLES)))]
            blocks.append(_rotation(uu, q, exact))
            first = first or (uu, q)
        else:
            lam = -Fraction(int(rng.choice([2, 3, 4])), int(rng.choice([1, 2])))
            blocks.append(NegativePairBlock(lam if exact else float(lam), 1))
    room = 5 - 2 * branchable
    for _ in range(int(rng.integers(1, min(room, 4) + 1))):
        k = int(rng.choice([1, 2, 4, 8]))
        blocks.append(
            JordanBlock(math.exp(k * u), 1, mu=EigenScalar.from_parts(rat=k * u))
            if exact
            else JordanBlock(math.exp(k * float(u)), 1)
        )
    order = rng.permutation(len(blocks))
    return BlockMatrix(tuple(blocks[i] for i in order))


def random_positive_rational_diag(rng: np.random.Generator, n: int) -> BlockMatrix:
    """Diagonal map with small-rational positive eigenvalues, all distinct."""
    picks: list[Fraction] = []
    pool = [Fraction(p, q) for p in (2, 3, 4, 5, 7, 8, 9) for q in (1, 2, 3)]
    pool = [v for v in pool if v != 1]
    while len(picks) < n:
        v = pool[int(rng.integers(0, len(pool)))]
        if v not in picks:
            picks.append(v)
    return BlockMatrix(tuple(JordanBlock(v, 1) for v in picks))


def resonant_map_blocks(rng: np.random.Generator, nil: bool = False):
    """Positive-spectrum A with at least one field resonance at low degree.

    lambda_1 = lambda_2^p * lambda_3^q guarantees (0, (0, p, q)) resonates.
    With ``nil`` the resonating eigenvalue sits in a size-2 Jordan block.
    """
    lam2 = float(rng.uniform(1.3, 2.2))
    lam3 = float(rng.uniform(1.3, 2.2))
    p = int(rng.integers(0, 3))
    q = int(rng.integers(max(0, 2 - p), 4 - p))
    lam1 = lam2**p * lam3**q
    size = 2 if nil else 1
    a = BlockMatrix(
        (JordanBlock(lam1, size), JordanBlock(lam2, 1), JordanBlock(lam3, 1))
    )
    return a, (p, q)


def random_resonant_normal_form(
    rng: np.random.Generator, degree: int = 4, nil: bool = False
):
    """(GermSpec in normal form, B) with weakly nonresonant B.

    Positive spectra make every branch-0 log weakly nonresonant; the
    nonlinear part is random on the full field-resonant support.
    """
    while True:
        a, _ = resonant_map_blocks(rng, nil)
        B = real_log(a)
        rep = field_resonances(B.triangular().eigen, degree)
        if rep.weak or rep.near:
            continue
        if not rep.field_resonant:
            continue
        terms = []
        for j, m in rep.field_resonant:
            c = complex(rng.uniform(-2.0, 2.0))
            terms.append((j, MultiIndex(m), c))
        f = PolyJet.build(a.dim, degree, MODE_FLOAT, terms)
        return GermSpec(a, f, degree), B


def random_hyperbolic_germ(rng: np.random.Generator, n: int, degree: int):
    """Random float germ over a random hyperbolic linear part (n <= 3)."""
    kinds = ["diag", "jordan", "rotation"]
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "rotation" and n >= 2:
        r = float(rng.uniform(1.2, 2.5))
        theta = float(rng.uniform(0.3, 2.8))
        blocks = [RotationBlock(r * np.cos(theta), r * np.sin(theta), 1)]
        left = n - 2
    elif kind == "jordan" and n >= 2:
        lam = float(rng.uniform(1.3, 2.6))
        blocks = [JordanBlock(lam, 2)]
        left = n - 2
    else:
        blocks = []
        left = n
    for _ in range(left):
        lam = float(rng.uniform(1.2, 2.8))
        if rng.random() < 0.3:
            lam = -lam
        blocks.append(JordanBlock(lam, 1))
    a = BlockMatrix(tuple(blocks))
    terms = []
    for r in range(2, degree + 1):
        for m in multiindices(n, r):
            for j in range(n):
                if rng.random() < 0.35:
                    c = complex(rng.uniform(-1.0, 1.0))
                    terms.append((j, m, c))
    f = PolyJet.build(n, degree, MODE_FLOAT, terms)
    return GermSpec(a, f, degree)


def random_exact_germ(rng: np.random.Generator, n: int, degree: int):
    """Exact-mode germ: rational diagonal A, Gaussian-rational f."""
    a = random_positive_rational_diag(rng, n)
    terms = []
    for r in range(2, degree + 1):
        for m in multiindices(n, r):
            for j in range(n):
                if rng.random() < 0.3:
                    c = QQi(
                        Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))),
                        Fraction(int(rng.integers(-2, 3)), 2),
                    )
                    if c:
                        terms.append((j, m, c))
    f = PolyJet.build(n, degree, MODE_EXACT, terms)
    return GermSpec(a, f, degree)
