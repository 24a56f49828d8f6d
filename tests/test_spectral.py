"""Block matrices, real logarithms, branch choices.

scipy.linalg.expm/logm serve as the independent oracle for everything
exponential; the frozen logarithms come from the closed forms
[[ln r, theta], [-theta, ln r]] for rotations by angle theta.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm, logm

import embedflow.resonance
from embedflow import (
    BlockMatrix,
    BranchChoice,
    EigenScalar,
    JordanBlock,
    LogBlock,
    NegativePairBlock,
    RotationBlock,
    SpectralError,
    block_matrix_from_dense,
    dense_exp,
    field_resonances,
    has_real_log,
    is_hyperbolic,
    pair_negative_blocks,
    parse_germ,
    real_log,
    weakly_nonresonant_branch,
)
from embedflow.spectral import BRANCH_BOUND
from _gens import random_branch_spectrum, random_loggable_blocks


def test_negative_pair_log_closed_form():
    for lam in (2.0, 0.5, 5.0, 1.75):
        a = BlockMatrix((NegativePairBlock(-lam, 1),))
        b = real_log(a).to_dense()
        want = np.array([[math.log(lam), math.pi], [-math.pi, math.log(lam)]])
        assert np.max(np.abs(b - want)) < 1e-12


def test_diag_4_m2_m2_log():
    a = BlockMatrix((JordanBlock(4, 1), JordanBlock(-2, 1), JordanBlock(-2, 1)))
    paired, perm = pair_negative_blocks(a)
    assert perm == (0, 1, 2)
    b = real_log(paired).to_dense()
    ln2 = math.log(2)
    want = np.array(
        [
            [2 * ln2, 0, 0],
            [0, ln2, math.pi],
            [0, -math.pi, ln2],
        ]
    )
    assert np.max(np.abs(b - want)) < 1e-12


def test_rotation_log_matches_scipy():
    a = BlockMatrix((RotationBlock(0.8, 1.1, 1),))
    b = real_log(a).to_dense()
    # principal branch: scipy logm agrees here because the rotation angle
    # is inside (-pi, pi)
    want = logm(a.to_dense())
    assert np.max(np.abs(b - want)) < 1e-10


def test_exp_log_roundtrip_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = random_loggable_blocks(rng, 6)
        paired, _ = pair_negative_blocks(a)
        b = real_log(paired)
        dense_b = b.to_dense().astype(complex)
        back = dense_exp(dense_b)
        target = paired.to_dense().astype(complex)
        scale = max(1.0, np.max(np.abs(target)))
        assert np.max(np.abs(back - target)) < 1e-10 * scale
        # independent exponential
        assert np.max(np.abs(expm(dense_b) - target)) < 1e-10 * scale
        assert np.max(np.abs(dense_b.imag)) == 0.0  # the log is real


def test_branch_shift_still_exponentiates_to_a():
    a = BlockMatrix((RotationBlock(0.5, 0.9, 1), NegativePairBlock(-3, 1)))
    for k in (-2, 0, 1):
        for l in (-1, 0, 2):
            br = BranchChoice.assign(a, negpair_ks=(k,), rotation_ls=(l,))
            b = real_log(a, br).to_dense()
            assert np.max(np.abs(expm(b) - a.to_dense())) < 1e-9


def test_branch_changes_the_log_itself():
    a = BlockMatrix((NegativePairBlock(-2, 1),))
    b0 = real_log(a, BranchChoice.assign(a, negpair_ks=(0,))).to_dense()
    b1 = real_log(a, BranchChoice.assign(a, negpair_ks=(1,))).to_dense()
    assert np.max(np.abs(b0 - b1)) > 1.0


def test_has_real_log_verdicts():
    yes = BlockMatrix((JordanBlock(-2, 1), JordanBlock(3, 1), JordanBlock(-2, 1)))
    ok, pairs = has_real_log(yes)
    assert ok and pairs == ((0, 2),)
    no_single = BlockMatrix((JordanBlock(-2, 1), JordanBlock(3, 1)))
    assert not has_real_log(no_single)[0]
    no_distinct = BlockMatrix((JordanBlock(-2, 1), JordanBlock(-5, 1)))
    assert not has_real_log(no_distinct)[0]
    no_sizes = BlockMatrix((JordanBlock(-2, 2), JordanBlock(-2, 1)))
    ok_sizes, _ = has_real_log(no_sizes)
    assert not ok_sizes
    assert has_real_log(BlockMatrix((RotationBlock(0.3, 0.4, 2),)))[0]


def test_has_real_log_ignores_block_order():
    # Culver: a real log exists iff the negative Jordan blocks pair up by
    # size and eigenvalue, wherever they sit in the block list
    blocks = (JordanBlock(-2, 1), JordanBlock(-3, 1), JordanBlock(-3, 1), JordanBlock(-2, 1))
    for order in itertools.permutations(blocks):
        ok, pairs = has_real_log(BlockMatrix(order))
        assert ok, order
        assert sorted(i for pair in pairs for i in pair) == [0, 1, 2, 3]
        assert all(i < j and order[i] == order[j] for i, j in pairs)
    for order in itertools.permutations(blocks[:3]):
        assert not has_real_log(BlockMatrix(order))[0]


def test_real_log_raises_without_pairing():
    a = BlockMatrix((JordanBlock(-2, 1), JordanBlock(3, 1)))
    with pytest.raises(SpectralError):
        real_log(a)


def test_pair_negative_blocks_pairs_non_adjacent_blocks():
    a = BlockMatrix((JordanBlock(-2, 1), JordanBlock(3, 1), JordanBlock(-2, 1)))
    ok, pairs = has_real_log(a)
    assert ok and pairs == ((0, 2),)
    paired, perm = pair_negative_blocks(a)
    assert perm == (0, 2, 1)
    assert [type(b) for b in paired.blocks] == [NegativePairBlock, JordanBlock]
    da, dp = a.to_dense(), paired.to_dense()
    for i in range(3):
        for k in range(3):
            assert dp[i, k] == pytest.approx(da[perm[i], perm[k]])


def test_pair_negative_jordan_size2_interleaves():
    a = BlockMatrix((JordanBlock(-2, 2), JordanBlock(-2, 2)))
    paired, perm = pair_negative_blocks(a)
    assert sorted(perm) == list(range(4))
    da, dp = a.to_dense(), paired.to_dense()
    for i in range(4):
        for k in range(4):
            assert dp[i, k] == pytest.approx(da[perm[i], perm[k]])
    b = real_log(paired).to_dense()
    assert np.max(np.abs(expm(b) - dp)) < 1e-10


def test_is_hyperbolic():
    assert is_hyperbolic(BlockMatrix((JordanBlock(2, 1),)))
    assert not is_hyperbolic(BlockMatrix((JordanBlock(1, 2),)))
    assert not is_hyperbolic(BlockMatrix((JordanBlock(-1, 1), JordanBlock(-1, 1))))
    r = RotationBlock(math.cos(1.0), math.sin(1.0), 1)  # modulus exactly 1
    assert not is_hyperbolic(BlockMatrix((r,)))
    assert is_hyperbolic(BlockMatrix((RotationBlock(1.2, 0.5, 1),)))


def test_is_hyperbolic_jordan_exp_near_one():
    # jordan-exp u: the exact log u decides, however close e^u is to 1
    for u, want in ((Fraction(1, 10**12), True), (Fraction(0), False)):
        block = JordanBlock(math.exp(u), 1, mu=EigenScalar.from_parts(rat=u))
        assert is_hyperbolic(BlockMatrix((block,))) == want


def test_nilpotent_log_structure():
    a = BlockMatrix((JordanBlock(2, 3),))
    b = real_log(a)
    dense = b.to_dense()
    assert np.max(np.abs(expm(dense) - a.to_dense())) < 1e-12
    # strictly lower-triangular nil part, constant diagonal
    assert np.allclose(np.diag(dense), math.log(2))
    assert np.max(np.abs(np.triu(dense, 1))) == 0.0


# Literal real forms.  exp commutes with realification, so exp(log) == A
# cannot catch a wrong cell layout; these matrices are written out by hand.
_LITERAL_DENSE = [
    (JordanBlock(2, 3), [[2, 0, 0], [1, 2, 0], [0, 1, 2]]),
    (
        RotationBlock(3, 4, 2),
        [[3, 4, 0, 0], [-4, 3, 0, 0], [1, 0, 3, 4], [0, 1, -4, 3]],
    ),
    (
        RotationBlock(0.6, -0.8, 2),
        [[0.6, -0.8, 0, 0], [0.8, 0.6, 0, 0], [1, 0, 0.6, -0.8], [0, 1, 0.8, 0.6]],
    ),
    (
        NegativePairBlock(-2, 2),
        [[-2, 0, 0, 0], [0, -2, 0, 0], [1, 0, -2, 0], [0, 1, 0, -2]],
    ),
]


@pytest.mark.parametrize("block, want", _LITERAL_DENSE)
def test_to_dense_literal(block, want):
    assert np.array_equal(BlockMatrix((block,)).to_dense(), np.array(want, dtype=float))


@pytest.mark.parametrize("alpha, beta", [(0, 2), (0.0, 2.0)])
def test_two_cell_rotation_log_literal(alpha, beta):
    # D = [[0, 2], [-2, 0]]: angle pi/2 + 2*pi on branch l = 1, and the
    # coupling below the diagonal is D^-1 = [[0, -1/2], [1/2, 0]]
    a = BlockMatrix((RotationBlock(alpha, beta, 2),))
    b = real_log(a, BranchChoice.assign(a, rotation_ls=(1,))).to_dense()
    ln2, t = math.log(2), 2.5 * math.pi
    want = np.array(
        [[ln2, t, 0, 0], [-t, ln2, 0, 0], [0, -0.5, ln2, t], [0.5, 0, -t, ln2]]
    )
    assert np.max(np.abs(b - want)) <= 1e-15 * t
    assert np.max(np.abs(expm(b) - a.to_dense())) < 1e-12


def test_negative_jordan_log_block_refused():
    with pytest.raises(SpectralError):
        BlockMatrix((LogBlock(JordanBlock(-2, 1)),)).to_dense()


def test_block_matrix_from_dense_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_loggable_blocks(rng, 5)
        back = block_matrix_from_dense(a.to_dense())
        assert np.max(np.abs(back.to_dense() - a.to_dense())) < 1e-12


def test_block_matrix_from_dense_rejects_garbage():
    with pytest.raises(ValueError):
        block_matrix_from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_weakly_nonresonant_branch_positive_spectrum():
    a = BlockMatrix((JordanBlock(2, 1), JordanBlock(3, 1)))
    br = weakly_nonresonant_branch(a, 6)
    assert br is not None
    assert br.values == (0, 0)


def test_weakly_nonresonant_branch_none_when_all_blocked():
    # the -2,-2 pair: mu_z = ln2 + i*pi*(2k+1); z*zbar-type relations keep a
    # weak resonance on every branch at degree 2
    a = BlockMatrix((JordanBlock(4, 1), NegativePairBlock(-2, 1)))
    assert weakly_nonresonant_branch(a, 2) is None


def _rescan_branch(a, degree, tol, bound=BRANCH_BOUND):
    """Oracle: build the logarithm of every candidate branch and rescan it."""
    slots = [
        i for i, b in enumerate(a.blocks)
        if isinstance(b, (RotationBlock, NegativePairBlock))
    ]
    candidates = sorted(
        itertools.product(range(-bound, bound + 1), repeat=len(slots)),
        key=lambda k: (sum(abs(v) for v in k), k),
    )
    for cand in candidates:
        values = [0] * len(a.blocks)
        for slot, v in zip(slots, cand):
            values[slot] = v
        choice = BranchChoice(tuple(values))
        if not field_resonances(real_log(a, choice).eigen(), degree, tol).weak:
            return choice
    return None


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_branch_search_matches_rescan_oracle(exact, tol):
    rng = np.random.default_rng(6 if exact else 3)
    found = set()
    for trial in range(24):
        a = random_branch_spectrum(rng, exact, (0, 1, 2, 2)[trial % 4])
        assert real_log(a).eigen().exact == exact
        for degree in (2, 3, 4, 5):
            got = weakly_nonresonant_branch(a, degree, tol=tol)
            assert got == _rescan_branch(a, degree, tol), (a, degree)
            found.add("none" if got is None else any(got.values))
    # the spectra exercise all three outcomes: principal, other, none
    assert found == {False, True, "none"}


def test_branch_search_finds_non_principal_branch():
    # witness of the weak pair on branch k: l = -1 + 2 k1 - k2
    text = (
        "HEADER\ndimension 4\ndegree 3\nmode float\nLINEAR\n"
        "rotation-exp 1/2 3/4 1\nrotation-exp 1 -1/2 1\nNONLINEAR\n"
    )
    a = parse_germ(text).blocks
    assert field_resonances(real_log(a).eigen(), 3).weak
    got = weakly_nonresonant_branch(a, 3)
    assert got.values == (0, -1)
    assert got == _rescan_branch(a, 3, 1e-9)
    assert not field_resonances(real_log(a, got).eigen(), 3).weak


def test_branch_search_scans_once(monkeypatch):
    # weak on all 7^2 branches; the search must not rescan any of them
    text = (
        "HEADER\ndimension 5\ndegree 8\nmode exact\nLINEAR\njordan-exp 8 1\n"
        "rotation-exp 1 1/4 1\nrotation-exp 1/2 1/3 1\nNONLINEAR\n"
    )
    a = parse_germ(text).blocks
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return field_resonances(*args, **kwargs)

    monkeypatch.setattr(embedflow.resonance, "field_resonances", counting)
    assert weakly_nonresonant_branch(a, 8) is None
    assert len(calls) == 1


def test_eigen_exactness_for_rational_spectra():
    a = BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1)))
    b = real_log(a)
    eig = b.triangular().eigen
    assert eig.exact
    mus = eig.mu_complex()
    assert mus[0] == pytest.approx(2 * math.log(2))
    assert mus[1] == pytest.approx(math.log(2))
