"""Embedding solves, flows, obstruction certificates, and the two
independent time-one oracles.

The averaging operator is cross-checked against the quadrature oracle in
_quadrature.py; flows are cross-checked against scipy expm for the linear
part and closed forms for the weakly resonant directions.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from embedflow import (
    MODE_EXACT,
    MODE_FLOAT,
    BlockMatrix,
    EigenScalar,
    FieldGerm,
    GermSpec,
    JordanBlock,
    MultiIndex,
    NegativePairBlock,
    Obstruction,
    PolyJet,
    QQi,
    RotationBlock,
    SpectralError,
    Tr_matrix,
    appendix_identity_check,
    compose,
    embedding_residual,
    flow_jet,
    jet_distance,
    multiindices,
    real_log,
    solve_embedding,
    time_one_check,
    time_one_residuals,
)
from embedflow.embedding import _ode_rhs
from _gens import random_resonant_normal_form
from _quadrature import tr_matrix_quadrature


def _exact_diag_germ():
    """G = (4y1 + y2^2, 2y2) in exact mode; the unique field is v = y2^2/4."""
    a = BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1)))
    g = PolyJet.build(2, 4, MODE_EXACT, [(0, MultiIndex((0, 2)), QQi(1))])
    return GermSpec(a, g, 4)


def _paper_23_germ(a_coeff=0.7, b_coeff=0.0):
    """Complexified paper fixture: A = diag(e^8, e^{1+i pi/4}, conj)."""
    mu1 = EigenScalar.from_parts(rat=8)
    mu2 = EigenScalar.from_parts(rat=1, pi_part=Fraction(1, 4))
    lam2 = cmath.exp(complex(mu2))
    blocks = BlockMatrix((
        JordanBlock(math.exp(8.0), 1, mu=mu1),
        RotationBlock(lam2.real, -lam2.imag, 1, mu=mu2),
    ))
    terms = [(0, MultiIndex((0, 4, 4)), complex(a_coeff))]
    if b_coeff:
        terms.append((0, MultiIndex((0, 8, 0)), complex(b_coeff)))
        terms.append((0, MultiIndex((0, 0, 8)), complex(b_coeff)))
    g = PolyJet.build(3, 8, MODE_FLOAT, terms, tol=0.0)
    return GermSpec(blocks, g, 8)


class TestTrMatrix:
    def test_exact_diag_resonant(self):
        B = real_log(BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1))))
        M, basis = Tr_matrix(B, 2)
        assert basis == ((0, (0, 2)),)
        assert M[0][0] == QQi(1)

    def test_weak_diagonal_exactly_zero(self):
        # mu = (2, 1/2 + i pi/2, conj): at degree 4 the monomials y2^4 e_1
        # and y3^4 e_1 are weakly resonant (demand shifted by 2 pi i), while
        # y2^2 y3^2 e_1 is resonant.
        mu1 = EigenScalar.from_parts(rat=2)
        mu2 = EigenScalar.from_parts(rat=Fraction(1, 2), pi_part=Fraction(1, 2))
        a = BlockMatrix((
            JordanBlock(math.exp(2.0), 1, mu=mu1),
            RotationBlock(0.0, -math.exp(0.5), 1, mu=mu2),
        ))
        B = real_log(a)
        M, basis = Tr_matrix(B, 4)
        keys = tuple((j, tuple(m)) for j, m in basis)
        assert keys == ((0, (0, 0, 4)), (0, (0, 2, 2)), (0, (0, 4, 0)))
        weak_rows = {(0, (0, 0, 4)), (0, (0, 4, 0))}
        for i, key in enumerate(keys):
            diag = complex(M[i][i])
            assert diag == (0.0 if key in weak_rows else 1.0)

    def test_weak_diagonal_zero_with_nilpotent(self):
        # size-2 block on the e^8 eigenvalue: nil couplings appear strictly
        # below the diagonal and the weak rows keep an exact zero diagonal
        mu1 = EigenScalar.from_parts(rat=8)
        mu2 = EigenScalar.from_parts(rat=1, pi_part=Fraction(1, 4))
        lam2 = cmath.exp(complex(mu2))
        a = BlockMatrix((
            JordanBlock(math.exp(8.0), 2, mu=mu1),
            RotationBlock(lam2.real, -lam2.imag, 1, mu=mu2),
        ))
        B = real_log(a)
        M, basis = Tr_matrix(B, 8)
        keys = tuple((j, tuple(m)) for j, m in basis)
        # rows exist for both components of the Jordan block
        assert any(j == 0 for j, _ in keys) and any(j == 1 for j, _ in keys)
        saw_weak = saw_nil_coupling = False
        for i, key in enumerate(keys):
            diag = complex(M[i][i])
            if key[1][2] == 8 or key[1][3] == 8:
                assert diag == 0.0
                saw_weak = True
            else:
                assert diag == 1.0
            for col in range(i + 1, len(keys)):
                assert complex(M[i][col]) == 0.0
            for col in range(i):
                if complex(M[i][col]) != 0.0:
                    saw_nil_coupling = True
        assert saw_weak and saw_nil_coupling

    def test_matches_quadrature_oracle_nilpotent(self):
        a = BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 2)))
        B = real_log(a)
        M, basis = Tr_matrix(B, 2)
        dense = np.array([[complex(v) for v in row] for row in M])
        tri = B.triangular()
        oracle = tr_matrix_quadrature(tri.dense(), basis, 2)
        assert np.max(np.abs(dense - oracle)) < 1e-12

    def test_matches_quadrature_oracle_rotation(self):
        a = BlockMatrix((JordanBlock(4, 1), NegativePairBlock(-2, 1)))
        B = real_log(a)
        M, basis = Tr_matrix(B, 2)
        dense = np.array([[complex(v) for v in row] for row in M])
        oracle = tr_matrix_quadrature(B.triangular().dense(), basis, 2)
        assert np.max(np.abs(dense - oracle)) < 1e-12

    def test_unit_lower_triangular_20_random_nilpotent(self):
        rng = np.random.default_rng(31)
        seen_nil = 0
        for _ in range(20):
            germ, B = random_resonant_normal_form(rng, degree=4, nil=True)
            tri = B.triangular()
            if tri.nil:
                seen_nil += 1
            for r in (2, 3, 4):
                M, basis = Tr_matrix(B, r)
                k = len(basis)
                for i in range(k):
                    assert M[i][i] == QQi(1) or complex(M[i][i]) == 1.0
                    for col in range(i + 1, k):
                        assert not M[i][col]  # exact zero above the diagonal
        assert seen_nil == 20

    def test_full_basis_matches_oracle(self):
        # nonresonant monomials included by hand: the float path integrates
        # their eigenvalue-difference exponentials in closed form
        a = BlockMatrix((JordanBlock(math.exp(0.7), 2),))
        B = real_log(a)
        from embedflow import multiindices

        basis = tuple(
            (j, m) for j in range(2) for m in multiindices(2, 3)
        )
        basis = tuple(sorted(basis, key=lambda km: (km[0], tuple(km[1]))))
        M, got_basis = Tr_matrix(B, 3, basis=basis)
        dense = np.array([[complex(v) for v in row] for row in M])
        oracle = tr_matrix_quadrature(B.triangular().dense(), got_basis, 3)
        assert np.max(np.abs(dense - oracle)) < 1e-11


def test_unit_integral_general_exponent():
    # ExpPoly.integrate_unit on exponents off the 2*pi*i lattice, checked
    # against direct numeric quadrature of t^k e^(at)
    from scipy.integrate import quad

    from embedflow.exppoly import ExpPoly

    for k, a in [
        (0, 1.4 + 0.3j),
        (2, 1.4 + 0.3j),
        (3, -0.02 + 0.1j),
        (1, 5.0 - 2.0j),
        (4, 0.0003j),
    ]:
        got = ExpPoly.single(1.0 + 0j, k, a).integrate_unit()
        re = quad(lambda t: (t**k * cmath.exp(a * t)).real, 0.0, 1.0)[0]
        im = quad(lambda t: (t**k * cmath.exp(a * t)).imag, 0.0, 1.0)[0]
        assert abs(got - complex(re, im)) < 1e-12


class TestSolveEmbedding:
    def test_exact_quarter(self):
        G = _exact_diag_germ()
        B = real_log(G.linear)
        X = solve_embedding(G, B)
        assert isinstance(X, FieldGerm)
        assert set(X.nonlinear.coeffs) == {(0, (0, 2))}
        assert X.nonlinear.coeffs[(0, (0, 2))] == QQi(Fraction(1, 4))
        assert embedding_residual(G, X).max_abs() == 0.0
        assert time_one_check(X, G) < 1e-9

    def test_paper_23_coefficient(self):
        G = _paper_23_germ(a_coeff=0.7)
        B = real_log(G.linear)
        X = solve_embedding(G, B)
        assert isinstance(X, FieldGerm)
        want = 0.7 * math.exp(-8.0)
        got = X.nonlinear.coeffs[(0, (0, 4, 4))]
        assert abs(complex(got) - want) < 1e-15 * abs(want) + 1e-18
        assert set(X.nonlinear.coeffs) == {(0, (0, 4, 4))}

    def test_paper_23_blocked_certificate(self):
        G = _paper_23_germ(a_coeff=0.7, b_coeff=0.3)
        B = real_log(G.linear)
        out = solve_embedding(G, B)
        assert isinstance(out, Obstruction)
        assert out.degree == 8
        assert out.blocked_set() == {
            (0, (0, 8, 0), -1),
            (0, (0, 0, 8), 1),
        }
        # the unmet demand is b * e^{-8} on both monomials
        for j, m, l, res in out.entries:
            assert abs(abs(res) - 0.3 * math.exp(-8.0)) < 1e-18

    def test_f1_family_blocked_iff_bc_differ_or_a(self):
        # (-2x1, -2x2, 4x3 + a x1 x2 + b x1^2 + c x2^2)
        from embedflow import complexify, permute_jet
        from embedflow.spectral import pair_negative_blocks

        def run(a_, b_, c_):
            blocks = BlockMatrix(
                (JordanBlock(-2, 1), JordanBlock(-2, 1), JordanBlock(4, 1))
            )
            terms = []
            if a_:
                terms.append((2, MultiIndex((1, 1, 0)), complex(a_)))
            if b_:
                terms.append((2, MultiIndex((2, 0, 0)), complex(b_)))
            if c_:
                terms.append((2, MultiIndex((0, 2, 0)), complex(c_)))
            f = PolyJet.build(3, 2, MODE_FLOAT, terms, tol=0.0)
            paired, perm = pair_negative_blocks(blocks)
            zjet = complexify(permute_jet(f, perm), paired.pairing())
            G = GermSpec(paired, zjet, 2)
            return solve_embedding(G, real_log(paired))

        blocked = [(1.0, 1.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
                   (0.5, 2.0, -1.0)]
        embeds = [(0.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.0, -0.3, -0.3)]
        for a_, b_, c_ in blocked:
            assert isinstance(run(a_, b_, c_), Obstruction)
        for a_, b_, c_ in embeds:
            X = run(a_, b_, c_)
            assert isinstance(X, FieldGerm)

    def test_rejects_mismatched_log(self):
        G = _exact_diag_germ()
        wrong = real_log(BlockMatrix((JordanBlock(4, 1), JordanBlock(3, 1))))
        with pytest.raises(SpectralError):
            solve_embedding(G, wrong)

    def test_rejects_non_normal_form(self):
        a = BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1)))
        g = PolyJet.build(2, 2, MODE_FLOAT, [(1, MultiIndex((2, 0)), 1.0)])
        with pytest.raises(ValueError):
            solve_embedding(GermSpec(a, g, 2), real_log(a))

    def test_solution_solves_dense_system(self):
        # forward substitution result agrees with numpy on the same system:
        # T x = e^{-B} g at the lowest degree
        rng = np.random.default_rng(8)
        germ, B = random_resonant_normal_form(rng, degree=3)
        X = solve_embedding(germ, B)
        assert isinstance(X, FieldGerm)
        r0 = germ.nonlinear.min_degree()
        M, basis = Tr_matrix(B, r0)
        dense = np.array([[complex(v) for v in row] for row in M])
        from embedflow.embedding import exp_B_matrix

        Em = exp_B_matrix(B.triangular(), -1, False)
        rhs = []
        for j, m in basis:
            acc = 0j
            for (jj, mm), c in germ.nonlinear.degree_slice(r0).coeffs.items():
                if tuple(mm) == tuple(m):
                    acc += complex(Em[j][jj]) * complex(c)
            rhs.append(acc)
        want = np.linalg.solve(dense, np.array(rhs))
        got = np.array(
            [complex(X.nonlinear.coeffs.get((j, tuple(m)), 0.0)) for j, m in basis]
        )
        assert np.max(np.abs(want - got)) < 1e-12


class TestFlow:
    def test_linear_flow_matches_expm(self):
        a = BlockMatrix((JordanBlock(2, 2), NegativePairBlock(-1.5, 1)))
        B = real_log(a)
        X = FieldGerm(B, PolyJet.zero(4, 3, MODE_FLOAT), 3)
        phi = flow_jet(X)
        for t in (0.0, 0.3, 1.0, -0.7):
            jet = phi.at_time(t)
            got = jet.linear_matrix()
            want = expm(t * B.triangular().dense())
            assert np.max(np.abs(np.array(got, dtype=complex) - want)) < 1e-12

    def test_group_property_random(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            germ, B = random_resonant_normal_form(rng, degree=4)
            X = solve_embedding(germ, B)
            assert isinstance(X, FieldGerm)
            phi = flow_jet(X)
            s, t = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
            lhs = phi.at_time(s + t)
            rhs = compose(phi.at_time(s), phi.at_time(t), degree=X.degree)
            assert jet_distance(lhs, rhs) < 1e-9

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(4)
        germ, B = random_resonant_normal_form(rng, degree=3)
        X = solve_embedding(germ, B)
        phi = flow_jet(X)
        ident = PolyJet.identity(X.dim, X.degree)
        assert jet_distance(phi.at_time(0.0), ident) < 1e-15

    def test_weak_direction_closed_form(self):
        # B = diag(8, 2 pi i): X = B y + c y_2^4 e_1 has
        # phi_1(t) = e^{8t} y_1 + c e^{8t} (e^{(8 pi i - 8) t} - ... ) --
        # checked against direct numeric integration instead of a formula:
        # the exact-flow jet must satisfy d/dt phi = X(phi) sampled in t.
        mu1 = EigenScalar.from_parts(rat=8)
        mu2 = EigenScalar.from_parts(rat=2, pi_part=Fraction(1, 2))
        lam2 = cmath.exp(complex(mu2))
        a = BlockMatrix((
            JordanBlock(math.exp(8.0), 1, mu=mu1),
            RotationBlock(lam2.real, -lam2.imag, 1, mu=mu2),
        ))
        B = real_log(a)
        # (0, (0, 2, 2)) is field resonant: 2*(mu2 + conj mu2) = 8
        g = PolyJet.build(3, 4, MODE_FLOAT, [(0, MultiIndex((0, 2, 2)), 1.0)])
        G = GermSpec(a, g, 4)
        X = solve_embedding(G, B)
        assert isinstance(X, FieldGerm)
        phi = flow_jet(X)
        eps = 1e-6
        for t in (0.2, 0.77):
            num = (phi.at_time(t + eps) - phi.at_time(t - eps)).scale(
                1.0 / (2 * eps)
            )
            want = compose(X.field_jet(), phi.at_time(t), degree=X.degree)
            assert jet_distance(num, want) < 1e-4 * max(
                1.0, want.max_abs()
            )

    def test_time_one_oracles_20_random(self):
        rng = np.random.default_rng(2024)
        for i in range(20):
            germ, B = random_resonant_normal_form(
                rng, degree=4, nil=(i % 3 == 0)
            )
            X = solve_embedding(germ, B)
            assert isinstance(X, FieldGerm)
            r_exp, r_ode = time_one_residuals(X, germ)
            scale = max(1.0, germ.map_jet().to_float().max_abs())
            assert r_exp <= 1e-9 * scale
            assert r_ode <= 1e-6 * scale


class TestOdeOracle:
    @pytest.mark.parametrize(
        "blocks, degree",
        [
            ((JordanBlock(4, 1), JordanBlock(2, 1)), 6),
            ((JordanBlock(3, 2),), 5),
            ((JordanBlock(3, 2), JordanBlock(5, 1)), 4),
            ((JordanBlock(8, 1), JordanBlock(2, 1), JordanBlock(4, 1)), 6),
        ],
    )
    def test_rhs_matches_compose(self, blocks, degree):
        # one evaluation of the RK4 right-hand side is B C + (v o C), with
        # v o C composed by the jet engine on the float jet of C
        rng = np.random.default_rng(degree * 10 + len(blocks))
        tri = real_log(BlockMatrix(blocks)).triangular()
        n = tri.dim
        exponents = [m for r in range(2, degree + 1) for m in multiindices(n, r)]
        picks = rng.choice(len(exponents), size=6, replace=False)
        terms = [
            (int(rng.integers(n)), exponents[k], complex(*rng.normal(size=2)))
            for k in picks
        ]
        terms.append((0, MultiIndex((degree,) + (0,) * (n - 1)), 0.5 - 0.25j))
        v = PolyJet.build(n, degree, MODE_FLOAT, terms, tol=0.0)
        mons, deriv = _ode_rhs(tri, v, degree)
        C = rng.normal(size=(n, len(mons))) + 1j * rng.normal(size=(n, len(mons)))
        got = deriv(C)
        jet = PolyJet.build(
            n,
            degree,
            MODE_FLOAT,
            [(j, m, C[j, t]) for j in range(n) for t, m in enumerate(mons)],
            tol=0.0,
        )
        vc = compose(v, jet, degree=degree, tol=0.0)
        want = tri.dense() @ C
        for (j, m), c in vc.coeffs.items():
            want[j, mons.index(m)] += complex(c)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_linear_field_rhs_is_linear_part(self):
        tri = real_log(BlockMatrix((JordanBlock(3, 2),))).triangular()
        v = PolyJet.build(2, 3, MODE_FLOAT, [], tol=0.0)
        mons, deriv = _ode_rhs(tri, v, 3)
        C = np.arange(2 * len(mons), dtype=complex).reshape(2, len(mons))
        assert np.array_equal(deriv(C), tri.dense() @ C)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_must_be_positive(self, steps):
        G = _exact_diag_germ()
        X = solve_embedding(G, real_log(G.linear))
        with pytest.raises(ValueError, match="steps"):
            time_one_residuals(X, G, steps=steps)
        with pytest.raises(ValueError, match="steps"):
            time_one_check(X, G, steps=steps)


class TestAppendixIdentity:
    def test_exact_zero_50_random_resonant(self):
        rng = np.random.default_rng(314)
        from embedflow import field_resonances

        done = 0
        while done < 50:
            # rational eigenvalues so the eigen data is exact
            lam2 = Fraction(int(rng.integers(2, 5)))
            lam3 = Fraction(int(rng.integers(2, 5)))
            p = int(rng.integers(0, 3))
            q = int(rng.integers(max(0, 2 - p), 4 - p))
            a = BlockMatrix((
                JordanBlock(lam2**p * lam3**q, 1),
                JordanBlock(lam2, 1),
                JordanBlock(lam3, 1),
            ))
            B = real_log(a)
            rep = field_resonances(B.triangular().eigen, 4)
            if not rep.field_resonant:
                continue
            terms = [
                (j, MultiIndex(m), complex(rng.uniform(-2, 2)))
                for j, m in rep.field_resonant
            ]
            g = PolyJet.build(3, 4, MODE_FLOAT, terms, tol=0.0)
            out = appendix_identity_check(B, g)
            assert out.max_abs() == 0.0
            done += 1

    def test_nonresonant_probe_multiplier(self):
        a = BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1)))
        B = real_log(a)
        # probe x_2^3 e_1: multiplier is ln(lambda^m / lambda_1) = ln(8/4)
        g = PolyJet.build(2, 3, MODE_FLOAT, [(0, MultiIndex((0, 3)), 1.0)])
        out = appendix_identity_check(B, g)
        assert set(out.coeffs) == {(0, (0, 3))}
        assert complex(out.coeffs[(0, (0, 3))]) == pytest.approx(
            math.log(2), abs=1e-12
        )
        # scaling: coefficient multiplies through
        g2 = PolyJet.build(2, 3, MODE_FLOAT, [(0, MultiIndex((0, 3)), -2.5)])
        out2 = appendix_identity_check(B, g2)
        assert complex(out2.coeffs[(0, (0, 3))]) == pytest.approx(
            -2.5 * math.log(2), abs=1e-12
        )


class TestResidualSensitivity:
    """The two verification routes are complementary: a bumped resonant
    coefficient still satisfies the commutation identity (single-component
    resonant fields commute with the linear part) but moves the time-one
    map, while cross-component resonances break commutation as well; a
    weak term passes both checks because it genuinely yields a second
    embedding, which is why the solver pins the distinguished one."""

    def test_resonant_bump_caught_by_time_one(self):
        a = BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1)))
        g = PolyJet.build(2, 4, MODE_FLOAT, [(0, MultiIndex((0, 2)), 1.0)])
        G = GermSpec(a, g, 4)
        B = real_log(a)
        X = solve_embedding(G, B)
        assert isinstance(X, FieldGerm)
        good = complex(X.nonlinear.coeffs[(0, (0, 2))])
        bumped = PolyJet.build(
            2, 4, MODE_FLOAT, [(0, MultiIndex((0, 2)), good + 1e-3)]
        )
        Y = FieldGerm(B, bumped, 4)
        assert embedding_residual(G, Y).max_abs() < 1e-12
        assert time_one_check(Y, G) > 1e-4

    def test_weak_term_gives_second_embedding(self):
        # weakly resonant monomials are map-resonant (lambda^m = lambda_j),
        # so a weak term commutes with G and averages to zero over [0,1]:
        # shifting the solution by one is invisible to both residuals.  The
        # solver returns the distinguished representative (weak coeff 0).
        mu1 = EigenScalar.from_parts(rat=2)
        mu2 = EigenScalar.from_parts(rat=Fraction(1, 2), pi_part=Fraction(1, 2))
        a = BlockMatrix((
            JordanBlock(math.exp(2.0), 1, mu=mu1),
            RotationBlock(0.0, -math.exp(0.5), 1, mu=mu2),
        ))
        B = real_log(a)
        g = PolyJet.build(3, 4, MODE_FLOAT, [(0, MultiIndex((0, 2, 2)), 1.0)])
        G = GermSpec(a, g, 4)
        X = solve_embedding(G, B)
        assert isinstance(X, FieldGerm)
        assert (0, (0, 4, 0)) not in X.nonlinear.coeffs
        terms = [(j, MultiIndex(m), c) for (j, m), c in X.nonlinear.coeffs.items()]
        terms.append((0, MultiIndex((0, 4, 0)), 0.35))
        Y = FieldGerm(B, PolyJet.build(3, 4, MODE_FLOAT, terms), 4)
        assert embedding_residual(G, Y).max_abs() < 1e-12
        assert time_one_check(Y, G) < 1e-9

    def test_cross_component_bump_caught_by_both(self):
        # spectrum (8, 4, 2): resonances y2 y3 e_1, y3^3 e_1, y3^2 e_2
        # interact across components, so a bumped e_2 coefficient breaks the
        # commutation identity at degree 3 as well as the time-one map
        a = BlockMatrix(
            (JordanBlock(8, 1), JordanBlock(4, 1), JordanBlock(2, 1))
        )
        g = PolyJet.build(
            3, 3, MODE_FLOAT,
            [(0, MultiIndex((0, 1, 1)), 1.0), (1, MultiIndex((0, 0, 2)), 1.0)],
        )
        G = GermSpec(a, g, 3)
        B = real_log(a)
        X = solve_embedding(G, B)
        assert isinstance(X, FieldGerm)
        assert embedding_residual(G, X).max_abs() < 1e-12
        terms = [(j, MultiIndex(m), c) for (j, m), c in X.nonlinear.coeffs.items()]
        terms = [
            (j, m, (c + 1e-3) if (j, tuple(m)) == (1, (0, 0, 2)) else c)
            for j, m, c in terms
        ]
        Y = FieldGerm(B, PolyJet.build(3, 3, MODE_FLOAT, terms), 3)
        res = embedding_residual(G, Y)
        assert abs(complex(res.coeffs[(0, (0, 0, 3))]) + 1e-3) < 1e-12
        assert time_one_check(Y, G) > 1e-4
