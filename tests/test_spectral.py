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
    field_resonances,
    has_real_log,
    is_hyperbolic,
    pair_negative_blocks,
    parse_germ,
    real_log,
    weakly_nonresonant_branch,
)
from embedflow import spectral
from embedflow.jets import MODE_EXACT, MODE_FLOAT
from embedflow.scalars import ExactnessError
from embedflow.spectral import BRANCH_BOUND
from _reference import block_matrix_from_dense, hyperbolic_by_description
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
        target = paired.to_dense().astype(complex)
        scale = max(1.0, np.max(np.abs(target)))
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


# -- hyperbolicity from the block parameters -------------------------------------

FIXTURES = ["paper-2.3", "paper-2.3-blocked", "paper-Astar", "paper-F1", "resonant-2d"]


def _unit_blocks():
    """A block of modulus 1 of every kind the parser and the library make."""
    third = Fraction(1, 3)
    return [
        JordanBlock(-1, 1),
        JordanBlock(Fraction(-1), 2),
        JordanBlock(1.0, 1),
        JordanBlock(-1.0, 1),
        JordanBlock(1.0, 1, mu=EigenScalar.from_parts(rat=0)),  # jordan-exp 0
        NegativePairBlock(-1, 1),
        NegativePairBlock(-1.0, 2),
        RotationBlock(Fraction(3, 5), Fraction(4, 5)),
        RotationBlock(Fraction(-4, 5), Fraction(3, 5), 2),
        RotationBlock(0.6, 0.8),
        RotationBlock(Fraction(3, 5), 0.8),
        RotationBlock(0, 1),
        RotationBlock(math.cos(math.pi * third), -math.sin(math.pi * third), 1,
                      mu=EigenScalar.from_parts(rat=0, pi_part=third)),  # rotation-exp 0 1/3
    ]


def _near_unit_blocks():
    return [
        JordanBlock(1.0 + 1e-10, 1),  # unit within 1e-9
        RotationBlock(0.6 * (1 + 1e-6), 0.8),  # unit within 1e-3 only
        NegativePairBlock(-1.0 - 1e-4, 1),
    ]


def _off_unit_blocks():
    return [
        JordanBlock(2, 1),
        JordanBlock(Fraction(-1, 2), 1),
        JordanBlock(0.5, 2),
        JordanBlock(math.e**8, 1, mu=EigenScalar.from_parts(rat=8)),
        NegativePairBlock(-3, 1),
        NegativePairBlock(-0.25, 1),
        RotationBlock(1, 1),
        RotationBlock(Fraction(3, 4), Fraction(4, 5)),
        RotationBlock(2.5, -0.5, 2),
        RotationBlock(math.e * math.cos(math.pi / 4), -math.e * math.sin(math.pi / 4), 1,
                      mu=EigenScalar.from_parts(rat=1, pi_part=Fraction(1, 4))),
    ]


def _fixture_text(name):
    from importlib import resources

    return resources.files("embedflow").joinpath("fixtures", f"{name}.germ").read_text()


def _hyperbolicity_corpus():
    rng = np.random.default_rng(20240611)
    corpus = []
    for name in FIXTURES:
        gf = parse_germ(_fixture_text(name))
        corpus += [gf.blocks, pair_negative_blocks(gf.blocks)[0]]
    pool = _unit_blocks() + _near_unit_blocks() + _off_unit_blocks()
    for _ in range(150):
        k = int(rng.integers(1, 4))
        corpus.append(BlockMatrix(tuple(pool[int(i)] for i in rng.integers(0, len(pool), k))))
    for _ in range(30):
        corpus.append(random_loggable_blocks(rng))
        corpus.append(random_branch_spectrum(rng, bool(rng.random() < 0.5), int(rng.integers(0, 3))))
    corpus += [real_log(BlockMatrix((b,))) for b in pool if not (
        isinstance(b, JordanBlock) and float(b.eigenvalue) < 0
    )]
    return corpus


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_hyperbolicity_from_blocks_matches_the_description(tol):
    corpus = _hyperbolicity_corpus()
    verdicts = []
    for a in corpus:
        want = hyperbolic_by_description(a, tol)
        assert spectral._is_hyperbolic(a, tol) == want, a
        assert is_hyperbolic(a, tol) == want, a
        verdicts.append(want)
    assert any(verdicts) and not all(verdicts)
    for block in _unit_blocks():
        assert not is_hyperbolic(BlockMatrix((block,)), tol), block
    for block in _off_unit_blocks():
        assert is_hyperbolic(BlockMatrix((block,)), tol), block


def test_hyperbolicity_reads_tol_on_float_blocks_only():
    near = BlockMatrix((RotationBlock(0.6 * (1 + 1e-6), 0.8),))
    assert is_hyperbolic(near, 1e-9) and not is_hyperbolic(near, 1e-3)
    exact = BlockMatrix((RotationBlock(Fraction(3, 5) * (1 + Fraction(1, 10**6)), Fraction(4, 5)),))
    assert is_hyperbolic(exact, 1e-9) and is_hyperbolic(exact, 1e-3)
    with pytest.raises(SpectralError):
        is_hyperbolic(BlockMatrix((JordanBlock(0, 1),)))


# -- analyses kept on the objects ------------------------------------------------


def _twins():
    """Equal, hash-equal matrices with float and with Fraction eigenvalues."""
    floats = BlockMatrix((JordanBlock(2.0, 1), JordanBlock(3.0, 1)))
    fractions = BlockMatrix((JordanBlock(Fraction(2), 1), JordanBlock(Fraction(3), 1)))
    assert floats == fractions and hash(floats) == hash(fractions)
    return floats, fractions


def _analysis(a, fresh=False):
    """Every kept analysis of ``a``, typed: the reprs tell complex from QQi.
    With ``fresh`` each comes from its builder, which reads nothing kept."""
    tri = a.triangular()
    if fresh:
        log = spectral._real_log(a, BranchChoice.zeros(a))
        paired, perm = spectral._pair_negative_blocks(a)
        linear_jet, hyperbolic, culver = tri._linear_jet, spectral._is_hyperbolic, spectral._has_real_log
        scan = embedflow.resonance._scan
    else:
        log = real_log(a)
        paired, perm = pair_negative_blocks(a)
        linear_jet, hyperbolic, culver, scan = tri.linear_jet, is_hyperbolic, has_real_log, field_resonances
    try:
        exact_jet = repr(sorted(linear_jet(2, MODE_EXACT).coeffs.items()))
    except ExactnessError:
        exact_jet = "refused"
    return (
        repr(tri.diag),
        repr(log.triangular().diag),
        repr(log.eigen().entries),
        exact_jet,
        repr(sorted(linear_jet(2, MODE_FLOAT).coeffs.items())),
        repr(scan(log.eigen(), 4, 1e-9)),
        repr(paired.triangular().diag),
        perm,
        hyperbolic(a, 1e-9),
        culver(a),
        a.to_dense().tolist(),
    )


@pytest.mark.parametrize("first", [0, 1])
def test_kept_analyses_belong_to_objects_not_to_values(first):
    pair = _twins()
    for i in (first, 1 - first, first):
        assert _analysis(pair[i]) == _analysis(_twins()[i], fresh=True), i
    fresh = [_analysis(a, fresh=True) for a in _twins()]
    assert fresh[0][0] == "((2+0j), (3+0j))" and fresh[1][0] == "(QQi(2), QQi(3))"
    assert fresh[0][3] == "refused" != fresh[1][3]


def test_kept_values_are_shared_and_read_only():
    a = BlockMatrix((JordanBlock(-2, 1), JordanBlock(Fraction(1, 3), 1), JordanBlock(-2, 1)))
    assert pair_negative_blocks(a) is pair_negative_blocks(a)
    paired, _ = pair_negative_blocks(a)
    b = real_log(paired)
    assert b is real_log(paired) is real_log(paired, BranchChoice.zeros(paired))
    assert real_log(paired, BranchChoice.assign(paired, (1,))) is not b
    # the principal log's eigen data is A's, so its scans are A's
    assert b.eigen() is paired.eigen() is paired.triangular().eigen
    assert real_log(paired, BranchChoice.assign(paired, (1,))).eigen() is not paired.eigen()
    assert field_resonances(b.eigen(), 3) is field_resonances(paired.triangular().eigen, 3)
    assert field_resonances(b.eigen(), 3) is not field_resonances(b.eigen(), 4)
    tri = paired.triangular()
    assert tri.linear_jet(3, MODE_EXACT) is tri.linear_jet(3, MODE_EXACT)
    assert tri.linear_jet(3) is tri.linear_jet(3, MODE_FLOAT) is not tri.linear_jet(2)
    for array in (paired.to_dense(), tri.dense(), b.to_dense(), b.triangular().dense()):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 7.0
    jet = tri.linear_jet(3, MODE_EXACT)
    with pytest.raises(TypeError):
        jet.coeffs[next(iter(jet.coeffs))] = 0
    assert (jet + jet).coeffs == {k: c + c for k, c in jet.coeffs.items()}


def test_a_call_that_raises_keeps_nothing(monkeypatch):
    calls = []
    build = spectral._real_log

    def counted(a, branch):
        calls.append(branch.values)
        return build(a, branch)

    monkeypatch.setattr(spectral, "_real_log", counted)
    a = BlockMatrix((JordanBlock(-2, 1), JordanBlock(3, 1)))
    for _ in range(2):
        with pytest.raises(SpectralError):
            real_log(a)
        with pytest.raises(SpectralError):
            pair_negative_blocks(a)
        with pytest.raises(ValueError):
            real_log(a, BranchChoice((1, 0)))
    assert len(calls) == 4
    tri = BlockMatrix((JordanBlock(2.0, 1),)).triangular()
    for _ in range(2):
        with pytest.raises(ExactnessError):
            tri.linear_jet(2, MODE_EXACT)
    assert ("linear_jet", 2, MODE_EXACT) not in tri.__dict__.get("_kept", {})
    singular = BlockMatrix((JordanBlock(0.0, 1),))
    for _ in range(2):
        with pytest.raises(SpectralError):
            is_hyperbolic(singular)
    assert not singular.__dict__.get("_kept")

