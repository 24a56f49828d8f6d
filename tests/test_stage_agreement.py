"""The stages take the same resonance classes from ``embedflow.resonance``.

The normal form keeps exactly the map-resonant monomials, the averaging
operator T^r is assembled on the field-resonant and weak ones, and an
obstruction names the weak witness l of every blocked monomial.  Each
check compares a stage's output with the report of
``map_resonances``/``field_resonances`` on the same eigen data.
"""

from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from _expflow import Tr_matrix
from _gens import (
    random_branch_spectrum,
    random_exact_germ,
    random_loggable_blocks,
    random_positive_rational_diag,
)
from embedflow import (
    MODE_EXACT,
    MODE_FLOAT,
    BlockMatrix,
    GermSpec,
    JordanBlock,
    NegativePairBlock,
    Obstruction,
    PolyJet,
    QQi,
    distinguished_normal_form,
    field_resonances,
    is_hyperbolic,
    map_resonances,
    multiindices,
    pair_negative_blocks,
    parse_germ,
    real_log,
    solve_embedding,
)

FIXTURES = ("resonant-2d", "paper-2.3", "paper-2.3-blocked", "paper-F1", "paper-Astar")
BLOCKED = ("paper-2.3-blocked", "paper-F1", "paper-Astar")


def _fixture(name: str):
    path = resources.files("embedflow") / "fixtures" / f"{name}.germ"
    return parse_germ(path.read_text())


def _expected_basis(report, r: int) -> tuple:
    """Degree-r field-resonant and weak monomials, j ascending, then the
    exponent in ascending tuple order (reverse lexicographic)."""
    pairs = [(j, m) for j, m in report.field_resonant if sum(m) == r]
    pairs += [(j, m) for j, m, _ in report.weak if sum(m) == r]
    return tuple(sorted(pairs, key=lambda jm: (jm[0], tuple(jm[1]))))


def _check_default_basis(B, degree: int, tol: float = 1e-9):
    report = field_resonances(B.triangular().eigen, degree, tol)
    for r in range(2, degree + 1):
        _, basis = Tr_matrix(B, r, tol=tol)
        assert basis == _expected_basis(report, r), r


def _weak_witnesses(report) -> dict:
    return {(j, tuple(m)): l for j, m, l in report.weak}


def _check_normal_form_support(spec, degree: int):
    """g lies on the map-resonant set, h off it, and the map-resonant set
    is the field-resonant plus the weak pairs; returns the field report."""
    eigen = spec.linear.triangular().eigen
    mrep = map_resonances(eigen, degree)
    frep = field_resonances(eigen, degree)
    resonant = mrep.map_set()
    assert resonant == frep.field_set() | frep.weak_set()
    nf = distinguished_normal_form(spec)
    assert set(nf.germ.nonlinear.coeffs) <= resonant
    assert not set(nf.transform.coeffs) & resonant
    return frep


def _float_germ(rng, a: BlockMatrix, degree: int) -> GermSpec:
    """Float germ over A: each (j, m) kept with probability 0.3 and a
    random complex coefficient."""
    terms = [
        (j, m, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for r in range(2, degree + 1)
        for m in multiindices(a.dim, r)
        for j in range(a.dim)
        if rng.random() < 0.3
    ]
    return GermSpec(a, PolyJet.build(a.dim, degree, MODE_FLOAT, terms), degree)


class TestFixtures:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_default_basis_is_field_report(self, name):
        gf = _fixture(name)
        _, paired, _ = gf.to_spec()
        _check_default_basis(real_log(paired), gf.degree, gf.tol)

    @pytest.mark.parametrize("name", BLOCKED)
    def test_obstruction_witness_is_weak_witness(self, name):
        gf = _fixture(name)
        spec, paired, _ = gf.to_spec()
        B = real_log(paired)
        report = field_resonances(B.triangular().eigen, gf.degree, gf.tol)
        nf = distinguished_normal_form(spec, tol=gf.tol)
        out = solve_embedding(nf.germ, B, tol=gf.tol)
        assert isinstance(out, Obstruction)
        weak = _weak_witnesses(report)
        assert out.entries
        for j, m, l, _ in out.entries:
            assert weak[(j, tuple(m))] == l

    @pytest.mark.parametrize("name", FIXTURES)
    def test_normal_form_support(self, name):
        gf = _fixture(name)
        spec, _, _ = gf.to_spec()
        _check_normal_form_support(spec, gf.degree)


class TestSeededSpectra:
    @pytest.mark.parametrize("seed", range(6))
    def test_default_basis_float(self, seed):
        rng = np.random.default_rng(seed)
        paired, _ = pair_negative_blocks(random_loggable_blocks(rng, 4))
        _check_default_basis(real_log(paired), 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_default_basis_exact(self, seed):
        rng = np.random.default_rng(50 + seed)
        _check_default_basis(real_log(random_positive_rational_diag(rng, 3)), 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_normal_form_support_exact(self, seed):
        rng = np.random.default_rng(80 + seed)
        germ = random_exact_germ(rng, 2 + seed % 2, 4)
        _check_normal_form_support(germ, germ.degree)

    @pytest.mark.parametrize("seed", range(6))
    def test_normal_form_support_float(self, seed):
        rng = np.random.default_rng(160 + seed)
        paired, _ = pair_negative_blocks(random_loggable_blocks(rng, 4))
        assert not paired.eigen().exact
        _check_normal_form_support(_float_germ(rng, paired, 3), 3)

    def test_normal_form_support_float_branch_spectra(self):
        """Float spectra built to resonate, weakly too, up to roundoff."""
        rng = np.random.default_rng(170)
        weak_seen = False
        for branchable in (0, 1, 2, 1, 2, 2):
            a = random_branch_spectrum(rng, False, branchable)
            while not is_hyperbolic(a):  # a negative pair may draw -1
                a = random_branch_spectrum(rng, False, branchable)
            assert not a.eigen().exact
            frep = _check_normal_form_support(_float_germ(rng, a, 3), 3)
            weak_seen |= bool(frep.weak)
        assert weak_seen

    @pytest.mark.parametrize("mode", (MODE_EXACT, MODE_FLOAT))
    @pytest.mark.parametrize("seed", range(3))
    def test_obstruction_witness_negative_pair(self, mode, seed):
        """(lambda, lambda, lambda^2) with lambda < 0: the squares of the
        paired coordinates are weak in the third component."""
        rng = np.random.default_rng(120 + seed)
        lam = -Fraction(int(rng.integers(3, 9)), 2)
        c = QQi(Fraction(int(rng.integers(1, 5)), 3), Fraction(int(rng.integers(-3, 4)), 2))
        if mode == MODE_FLOAT:
            lam, c = float(lam), complex(c)
        a = BlockMatrix((NegativePairBlock(lam, 1), JordanBlock(lam * lam, 1)))
        conj = c.conjugate()
        terms = [(2, (2, 0, 0), c), (2, (0, 2, 0), conj)]
        spec = GermSpec(a, PolyJet.build(3, 2, mode, terms), 2)
        B = real_log(a)
        report = field_resonances(B.triangular().eigen, 2)
        out = solve_embedding(distinguished_normal_form(spec).germ, B)
        assert isinstance(out, Obstruction)
        assert {(j, tuple(m)) for j, m, _, _ in out.entries} == {
            (2, (2, 0, 0)),
            (2, (0, 2, 0)),
        }
        weak = _weak_witnesses(report)
        for j, m, l, _ in out.entries:
            assert weak[(j, tuple(m))] == l
