"""Planar embeddability verdicts and positive-spectrum logarithms.

Every suggested logarithm is checked two ways: entrywise against the
closed form and through scipy's expm back to the input matrix.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from embedflow import (
    MODE_FLOAT,
    BlockMatrix,
    EigenScalar,
    FieldGerm,
    GermSpec,
    JordanBlock,
    MultiIndex,
    NegativePairBlock,
    PlanarVerdict,
    PolyJet,
    RotationBlock,
    SpectralError,
    classify_2d,
    complexify,
    distinguished_normal_form,
    field_resonances,
    has_real_log,
    pair_negative_blocks,
    real_log,
    solve_embedding,
    time_one_steps,
)
from _reference import planar_from_dense, positive_spectrum_log


LOGGABLE_KINDS = (
    "positive-cells", "positive-chain", "jordan-exp", "rotation", "rotation-exp",
    "negpair", "equal-negative",
)
PLANAR_KINDS = LOGGABLE_KINDS + ("negative-chain", "negative-beside-positive", "distinct-negative")


def _modulus(rng, exact: bool):
    """A positive eigenvalue modulus away from 1, Fraction or float."""
    while True:
        x = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        if not exact:
            x = float(x) * float(rng.uniform(0.9, 1.1))
        if abs(x - 1) > 0.05:
            return x


def _planar_spectrum(rng, kind: str, exact: bool) -> BlockMatrix:
    """A hyperbolic planar linear part of the given kind with random
    parameters, Fraction ones when ``exact``, float ones otherwise."""
    lam = _modulus(rng, exact)
    if kind == "positive-cells":
        return BlockMatrix((JordanBlock(lam, 1), JordanBlock(_modulus(rng, exact), 1)))
    if kind == "positive-chain":
        return BlockMatrix((JordanBlock(lam, 2),))
    if kind == "jordan-exp":
        u = Fraction(int(rng.choice([-3, -1, 1, 2])), int(rng.integers(1, 4)))
        w = Fraction(int(rng.choice([-2, 1, 3])), 2)
        return BlockMatrix(tuple(
            JordanBlock(math.exp(x), 1, mu=EigenScalar.from_parts(rat=x)) for x in (u, w)
        ))
    if kind == "rotation":
        theta = math.pi * float(rng.uniform(0.05, 0.95)) * float(rng.choice([-1, 1]))
        alpha, beta = float(lam) * math.cos(theta), -float(lam) * math.sin(theta)
        if exact:
            alpha, beta = Fraction(alpha).limit_denominator(12), Fraction(beta).limit_denominator(12)
            if not beta or abs(alpha**2 + beta**2 - 1) < Fraction(1, 20):
                return _planar_spectrum(rng, kind, exact)
        return BlockMatrix((RotationBlock(alpha, beta, 1),))
    if kind == "rotation-exp":
        u = Fraction(int(rng.choice([-3, -1, 1, 2])), int(rng.integers(1, 4)))
        q = Fraction(int(rng.choice([-2, -1, 1, 2])), int(rng.integers(3, 7)))
        r, theta = math.exp(u), math.pi * q
        mu = EigenScalar.from_parts(rat=u, pi_part=q)
        return BlockMatrix((RotationBlock(r * math.cos(theta), -r * math.sin(theta), 1, mu=mu),))
    if kind == "negpair":
        return BlockMatrix((NegativePairBlock(-lam, 1),))
    if kind == "equal-negative":
        return BlockMatrix((JordanBlock(-lam, 1), JordanBlock(-lam, 1)))
    if kind == "negative-chain":
        return BlockMatrix((JordanBlock(-lam, 2),))
    if kind == "negative-beside-positive":
        cells = [JordanBlock(-lam, 1), JordanBlock(_modulus(rng, exact), 1)]
        return BlockMatrix(tuple(cells[:: int(rng.choice([-1, 1]))]))
    assert kind == "distinct-negative"
    mu = lam
    while mu == lam:
        mu = _modulus(rng, exact)
    return BlockMatrix((JordanBlock(-lam, 1), JordanBlock(-mu, 1)))


def _dense(bm: BlockMatrix) -> np.ndarray:
    return np.array(bm.to_dense(), dtype=float)


def _roundtrips(verdict: PlanarVerdict, paired_dense: np.ndarray):
    assert verdict.log is not None
    back = expm(_dense(verdict.log))
    assert np.max(np.abs(back - paired_dense)) < 1e-12 * max(
        1.0, np.max(np.abs(paired_dense))
    )


class TestClassify2d:
    def test_positive_distinct(self):
        v = classify_2d(BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1))))
        assert v.embeddable and v.reason == "no-negative-eigenvalues"
        want = np.diag([math.log(4), math.log(2)])
        assert np.max(np.abs(_dense(v.log) - want)) < 1e-14
        _roundtrips(v, np.diag([4.0, 2.0]))

    def test_positive_jordan_cell(self):
        A = BlockMatrix((JordanBlock(2, 2),))
        v = classify_2d(A)
        assert v.embeddable and v.reason == "no-negative-eigenvalues"
        want = np.array([[math.log(2), 0.0], [0.5, math.log(2)]])
        assert np.max(np.abs(_dense(v.log) - want)) < 1e-14
        _roundtrips(v, _dense(A))

    def test_rotation_pair(self):
        A = BlockMatrix((RotationBlock(1.0, 2.0, 1),))
        v = classify_2d(A)
        assert v.embeddable and v.reason == "no-negative-eigenvalues"
        _roundtrips(v, _dense(A))

    def test_equal_negative_diagonalizable(self):
        v = classify_2d(BlockMatrix((JordanBlock(-3, 1), JordanBlock(-3, 1))))
        assert v.embeddable and v.reason == "equal-negative-diagonalizable"
        want = np.array([[math.log(3), math.pi], [-math.pi, math.log(3)]])
        assert np.max(np.abs(_dense(v.log) - want)) < 1e-14
        _roundtrips(v, np.diag([-3.0, -3.0]))

    def test_equal_negative_already_paired(self):
        v = classify_2d(BlockMatrix((NegativePairBlock(-3, 1),)))
        assert v.embeddable and v.reason == "equal-negative-diagonalizable"
        want = np.array([[math.log(3), math.pi], [-math.pi, math.log(3)]])
        assert np.max(np.abs(_dense(v.log) - want)) < 1e-14

    def test_distinct_negative(self):
        v = classify_2d(BlockMatrix((JordanBlock(-2, 1), JordanBlock(-4, 1))))
        assert not v.embeddable
        assert v.reason == "distinct-negative-eigenvalues"
        assert v.log is None

    def test_mixed_sign(self):
        v = classify_2d(BlockMatrix((JordanBlock(2, 1), JordanBlock(-2, 1))))
        assert not v.embeddable and v.reason == "unpaired-negative-block"

    def test_negative_jordan_cell(self):
        v = classify_2d(BlockMatrix((JordanBlock(-2, 2),)))
        assert not v.embeddable and v.reason == "unpaired-negative-block"

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            classify_2d(BlockMatrix((JordanBlock(2, 3),)))

    def test_verdict_logarithms_weakly_nonresonant(self):
        # the third theorem in the plane: embeddable exactly when A has a
        # real logarithm, and the verdict's logarithm is weakly nonresonant
        # at every degree, which classify_2d itself no longer scans
        rng = np.random.default_rng(46)
        seen = set()
        for kind in PLANAR_KINDS:
            for exact in (True, False):
                for _ in range(3):
                    A = _planar_spectrum(rng, kind, exact)
                    v = classify_2d(A)
                    assert v.embeddable == has_real_log(A)[0], A
                    seen.add((kind, v.embeddable))
                    if v.log is None:
                        continue
                    _roundtrips(v, _dense(pair_negative_blocks(A)[0]))
                    for degree in range(2, 13):
                        assert field_resonances(v.log.triangular().eigen, degree).weak == (), A
        assert seen == {(kind, kind in LOGGABLE_KINDS) for kind in PLANAR_KINDS}

    def test_float_negatives_equal_within_tol_are_embeddable(self):
        # two float negative cells equal within tol are one negative pair
        # (has_real_log's _jordan_eq), as they are for every other verb
        A = BlockMatrix((JordanBlock(-3.0, 1), JordanBlock(-3.0 * (1 + 1e-12), 1)))
        assert has_real_log(A)[0]
        v = classify_2d(A)
        assert v.embeddable and v.reason == "equal-negative-diagonalizable"
        assert isinstance(v.log.blocks[0].source, NegativePairBlock)
        far = BlockMatrix((JordanBlock(-3.0, 1), JordanBlock(-3.0 * (1 + 1e-6), 1)))
        assert classify_2d(far).reason == "distinct-negative-eigenvalues"

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            PlanarVerdict(True, "no-negative-eigenvalues", None)

    def test_embeddable_verdict_feeds_solver(self):
        # the promised route: normalize a nonlinear germ over the paired
        # coordinates, then solve along the suggested logarithm
        A = BlockMatrix((NegativePairBlock(-3, 1),))
        v = classify_2d(A)
        f = PolyJet.build(
            2, 3, MODE_FLOAT, [(0, MultiIndex((1, 1)), 0.4 + 0j)]
        )
        zf = complexify(f, A.pairing())
        nf = distinguished_normal_form(GermSpec(A, zf, 3))
        out = solve_embedding(nf.germ, v.log)
        assert isinstance(out, FieldGerm)
        assert max(time_one_steps(out, nf.germ)[:2]) < 1e-9


class TestPlanarFromDense:
    def test_distinct_real(self):
        bm = planar_from_dense([[3.0, 0.0], [0.0, -2.0]])
        assert bm.blocks == (JordanBlock(3.0, 1), JordanBlock(-2.0, 1))

    def test_orders_roots_descending(self):
        bm = planar_from_dense([[-2.0, 0.0], [0.0, 3.0]])
        assert bm.blocks == (JordanBlock(3.0, 1), JordanBlock(-2.0, 1))

    def test_complex_pair(self):
        bm = planar_from_dense([[0.0, -5.0], [1.0, 2.0]])
        (b,) = bm.blocks
        assert isinstance(b, RotationBlock)
        assert b.alpha == pytest.approx(1.0) and abs(b.beta) == pytest.approx(2.0)

    def test_scalar_matrix(self):
        bm = planar_from_dense([[-3.0, 0.0], [0.0, -3.0]])
        assert bm.blocks == (JordanBlock(-3.0, 1), JordanBlock(-3.0, 1))

    def test_defective(self):
        bm = planar_from_dense([[-3.0, 0.0], [1.0, -3.0]])
        assert bm.blocks == (JordanBlock(-3.0, 2),)

    def test_classify_composes_with_loader(self):
        grid = [
            ([[4.0, 1.0], [0.0, 2.0]], True),
            ([[-3.0, 0.0], [0.0, -3.0]], True),
            ([[-3.0, 1.0], [0.0, -3.0]], False),
            ([[0.0, -5.0], [1.0, 2.0]], True),
            ([[3.0, 0.0], [0.0, -2.0]], False),
        ]
        for mat, want in grid:
            assert classify_2d(planar_from_dense(mat)).embeddable is want

    def test_eigenvalues_match_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mat = rng.uniform(-3, 3, size=(2, 2))
            ev = np.linalg.eigvals(mat)
            if min(abs(abs(v) - 1.0) for v in ev) < 1e-2:
                continue
            if abs(ev[0] - ev[1]) < 1e-6:
                continue
            bm = planar_from_dense(mat.tolist())
            got = sorted(
                np.linalg.eigvals(np.array(bm.to_dense(), dtype=float)),
                key=lambda z: (z.real, z.imag),
            )
            want = sorted(ev, key=lambda z: (z.real, z.imag))
            assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-8


class TestPositiveSpectrumLog:
    def test_diagonal_any_dimension(self):
        A = BlockMatrix(
            (JordanBlock(4, 1), JordanBlock(2, 1), JordanBlock(0.5, 1))
        )
        L = positive_spectrum_log(A)
        want = np.diag([math.log(4), math.log(2), math.log(0.5)])
        assert np.max(np.abs(_dense(L) - want)) < 1e-14

    def test_jordan_cell_roundtrip(self):
        A = BlockMatrix((JordanBlock(2, 3),))
        L = positive_spectrum_log(A)
        assert np.max(np.abs(expm(_dense(L)) - _dense(A))) < 1e-12
        # all-real spectrum: no weak resonances at any probed degree
        report = field_resonances(L.triangular().eigen, 12)
        assert report.weak == ()

    def test_rejects_negative(self):
        with pytest.raises(SpectralError):
            positive_spectrum_log(BlockMatrix((JordanBlock(-2, 1),)))

    def test_rejects_rotation(self):
        with pytest.raises(SpectralError):
            positive_spectrum_log(BlockMatrix((RotationBlock(1.0, 2.0, 1),)))
