"""Embedding solves, flows, obstruction certificates, and the two
independent time-one oracles.

The averaging operator is cross-checked against the quadrature oracle in
_quadrature.py; flows are cross-checked against scipy expm for the linear
part and closed forms for the weakly resonant directions.
"""

import cmath
import itertools
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from embedflow import (
    MODE_EXACT,
    MODE_FLOAT,
    BlockMatrix,
    BranchChoice,
    EigenScalar,
    ExactnessError,
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
    compose,
    distinguished_normal_form,
    embedding_residual,
    field_resonances,
    flow_jet,
    is_hyperbolic,
    jet_distance,
    multiindices,
    pair_negative_blocks,
    parse_germ,
    real_log,
    solve_embedding,
    certify,
    time_one_residuals,
    time_one_steps,
)
from embedflow import embedding, flow, jets, oracle
from embedflow.oracle import (
    _DP_A,
    _DP_C,
    _DP_E,
    _coefficient_plan,
    _dp5_jet,
    _dp5_plan,
    _dp5_run,
    _ode_oracle,
    _plan,
)
from embedflow.tolerances import (
    DEFAULT_TOL,
    ODE_BOUND,
    ODE_ERR_SHARE,
    ODE_ROUNDOFF,
    ODE_STEPS,
    STRAY_DEMAND,
)
import _expflow
from _expflow import Tr_matrix, WeakField
from _pipoly import PiPoly
from _gens import random_branch_spectrum, random_exact_germ, random_resonant_normal_form
from _quadrature import tr_matrix_quadrature
from _reference import appendix_identity_check, permute_jet


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
    g = PolyJet.build(3, 8, MODE_FLOAT, terms)
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

    from _expflow import ExpPoly

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
        assert max(time_one_steps(X, G)[:2]) < 1e-9

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
        from embedflow import complexify
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
            f = PolyJet.build(3, 2, MODE_FLOAT, terms)
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

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
    @pytest.mark.parametrize(
        "blocks, other",
        [
            # a wrong eigenvalue
            ((JordanBlock(3, 2),), (JordanBlock(4, 2),)),
            # one 1e-12 away: exp(B) is within roundoff of A, yet B is
            # not built from A's blocks
            ((JordanBlock(3, 2),), (JordanBlock(3 + Fraction(1, 10**12), 2),)),
            # a Jordan coupling that A has and B's exponential lacks
            ((JordanBlock(3, 2), JordanBlock(5, 1)), (JordanBlock(3, 1), JordanBlock(3, 1), JordanBlock(5, 1))),
            # and one that B's exponential has and A lacks
            ((JordanBlock(3, 1), JordanBlock(3, 1)), (JordanBlock(3, 2),)),
            # a wrong rotation angle, on every branch: lambda = 2i for -2i
            ((RotationBlock(0, 2, 1), JordanBlock(2, 1)), (RotationBlock(0, -2, 1), JordanBlock(2, 1))),
            # a rotation cell where A has two real coordinates: the pairings
            # differ too
            ((JordanBlock(2, 1), JordanBlock(2, 1)), (RotationBlock(2, 1, 1),)),
        ],
    )
    def test_rejects_the_log_of_another_matrix(self, mode, blocks, other):
        # B is a true logarithm, but of a matrix that differs from A in one
        # eigenvalue or one coupling; every branch of A's own log passes
        a = BlockMatrix(blocks)
        G = GermSpec(a, PolyJet.build(a.dim, 2, mode, []), 2)
        for branch in (0, 1, -1):
            values = tuple(branch if isinstance(b, RotationBlock) else 0 for b in other)
            with pytest.raises(SpectralError, match="source blocks are not the germ's"):
                solve_embedding(G, real_log(BlockMatrix(other), BranchChoice(values)))
            values = tuple(branch if isinstance(b, RotationBlock) else 0 for b in blocks)
            assert isinstance(solve_embedding(G, real_log(a, BranchChoice(values))), FieldGerm)

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
    def test_rejects_a_log_in_other_coordinates(self, mode):
        # exp(B) = A as real dense matrices, but B is the log of A's paired
        # form: diag(ln 2 - i*pi, ln 2 + i*pi) is complex in A's coordinates
        a = BlockMatrix((JordanBlock(-2, 1), JordanBlock(-2, 1)))
        paired, _ = pair_negative_blocks(a)
        B = real_log(paired)
        assert np.max(np.abs(expm(B.to_dense()) - a.to_dense())) < 1e-12
        G = GermSpec(a, PolyJet.build(2, 2, mode, []), 2)
        with pytest.raises(SpectralError, match="source blocks are not the germ's"):
            solve_embedding(G, B)

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
        Em = expm(-B.triangular().dense())
        rhs = []
        for j, m in basis:
            acc = 0j
            for (jj, mm), c in germ.nonlinear.degree_slice(r0).coeffs.items():
                if tuple(mm) == tuple(m):
                    acc += Em[j, jj] * complex(c)
            rhs.append(acc)
        want = np.linalg.solve(dense, np.array(rhs))
        got = np.array(
            [complex(X.nonlinear.coeffs.get((j, tuple(m)), 0.0)) for j, m in basis]
        )
        assert np.max(np.abs(want - got)) < 1e-12


# -- the forward-substitution solve, kept as a reference ---------------------


def _exp_minus_B(G, tri, exact_ring):
    """Scalar matrix e^(-B) = diag(1/lambda) sum_p (-N)^p / p!, as {(i, k): c},
    with lambda the diagonal of G's triangular form and N that of B's."""
    lam = G.linear.triangular().diag
    one = jets._one(MODE_EXACT if exact_ring else MODE_FLOAT)
    mat = {(i, i): one / (lam[i] if exact_ring else complex(lam[i])) for i in range(tri.dim)}
    fact = 1
    for p, npow in enumerate(_expflow._nil_powers(tri, exact_ring), start=1):
        fact *= p
        for (i, k), c in npow.items():
            if exact_ring:
                w = c * QQi(Fraction((-1) ** p, fact)) * mat[(i, i)]
            else:
                w = complex(c) * ((-1) ** p / fact) * mat[(i, i)]
            mat[(i, k)] = w if (i, k) not in mat else mat[(i, k)] + w
    return mat


def _reference_solve(G, B, tol=DEFAULT_TOL):
    """The averaging-operator solve: per degree r, forward substitution in
    T^r X_r = e^(-B) g_r - integral_0^1 e^(-sB) P_r(s, y) ds over the
    field-resonant and weak basis, P_r the lower degrees along the flow."""
    N = G.degree
    tri = B.triangular()
    exact_ring = _expflow.qqi_ring(tri, G.mode)
    report = field_resonances(tri.eigen, max(N, 2), tol)
    embedding._validate_normal_form(G, report, tol)
    weak = {(j, m): l for j, m, l in report.weak}
    n = tri.dim
    unit = _expflow._flow_unit(tri, exact_ring)
    zero = QQi(0) if exact_ring else 0j
    g = G.nonlinear if exact_ring else G.nonlinear.to_float()
    E, Em, phi = _expflow._linear_flow(tri, exact_ring, N)
    eBm = _exp_minus_B(G, tri, exact_ring)
    x_coeffs = {}
    for r in range(2, N + 1):
        P = _expflow._substitute_flow(x_coeffs, phi, r, unit)
        integrand = _expflow._snap(_expflow._matrix_apply(Em, P), tol)
        rhs = {}
        for (i, m), p in integrand.coeffs.items():
            val = p.integrate_unit()
            if val:
                rhs[(i, m)] = -val if exact_ring else -complex(val)
        for (j, m), c in g.degree_slice(r).coeffs.items():
            for i in range(n):
                w = eBm.get((i, j))
                if w is None:
                    continue
                add = w * c if exact_ring else complex(w) * complex(c)
                rhs[(i, m)] = add if (i, m) not in rhs else rhs[(i, m)] + add
        matrix, basis = Tr_matrix(tri, r, report.basis(r), tol=tol)
        stray = [
            k
            for k, v in rhs.items()
            if k not in basis and not embedding._is_zero(v, exact_ring, STRAY_DEMAND)
        ]
        assert not stray, (r, stray)
        sol, blocked = [], []
        for row, (j, m) in enumerate(basis):
            acc = rhs.get((j, m), zero)
            for col in range(row):
                t, xc = matrix[row][col], sol[col]
                if t and xc:
                    acc = acc - (t * xc if exact_ring else complex(t) * complex(xc))
            l = weak.get((j, m))
            if l is None:
                sol.append(acc)
            else:
                if not embedding._is_zero(acc, exact_ring, tol):
                    blocked.append((j, m, l, complex(acc)))
                sol.append(zero)
        if blocked:
            return Obstruction(tuple(blocked), r, "reference")
        x_r = {}
        for (j, m), v in zip(basis, sol):
            if v:
                if exact_ring and isinstance(v, PiPoly):
                    v = v.as_qqi()
                    assert v is not None
                x_r[(j, m)] = QQi.coerce(v) if exact_ring else complex(v)
        x_coeffs.update(x_r)
        step = P + _expflow._substitute_flow(x_r, phi, r, unit)
        phi = _expflow._flow_step(phi, step, E, Em, tol)
    mode = MODE_EXACT if exact_ring else MODE_FLOAT
    return FieldGerm(B, PolyJet(n, N, mode, x_coeffs), N, tol)


def _assert_matches_reference(G, B, tol=DEFAULT_TOL):
    """solve_embedding agrees with the reference solve, and its field passes
    verify's time-one bounds; returns the solve's outcome."""
    got = solve_embedding(G, B, tol=tol)
    want = _reference_solve(G, B, tol=tol)
    assert type(got) is type(want)
    exact = G.mode == MODE_EXACT
    scale = max(1.0, G.map_jet().to_float().max_abs())
    if isinstance(want, Obstruction):
        assert got.degree == want.degree
        assert [e[:3] for e in got.entries] == [e[:3] for e in want.entries]
        for a, b in zip(got.entries, want.entries):
            assert abs(a[3] - b[3]) <= 1e-12 * scale
        return got
    if exact:
        assert got.nonlinear.coeffs == want.nonlinear.coeffs
    else:
        assert jet_distance(got.nonlinear, want.nonlinear) <= 1e-12 * scale
    r_exp, r_ode, r_err, _ = time_one_steps(got, G)
    bound_exp = tol * scale
    bound_ode = max(ODE_BOUND * scale, bound_exp)
    assert r_exp <= bound_exp
    assert r_ode <= bound_ode
    assert r_err <= ODE_ERR_SHARE * bound_ode
    return got


def _text_germ(text):
    """A germ file's normal form, its principal logarithm and its tol."""
    gf = parse_germ(text)
    spec, paired, _ = gf.to_spec()
    return distinguished_normal_form(spec, tol=gf.tol).germ, real_log(paired), gf.tol


def _fixture_germ(name):
    return _text_germ((resources.files("embedflow") / "fixtures" / f"{name}.germ").read_text())


FIXTURES = ("resonant-2d", "paper-2.3", "paper-2.3-blocked", "paper-F1", "paper-Astar")

# an exact rotation by an eighth turn: lambda = 1 -+ i, mu = ln(2)/2 -+ i*pi/4
EIGHTH_TURN = (
    "HEADER\ndimension 3\ndegree 4\nmode exact\nLINEAR\nrotation 1 1 1\njordan 4 1\n"
    "NONLINEAR\n3 2 2 0 1/3\n"
)

# an exact rotation by a generic angle: lambda = 1 -+ 2i is Gaussian
# rational, its log ln(5)/2 -+ i*atan(2) is not exact
GENERIC_ANGLE = (
    "HEADER\ndimension 3\ndegree 4\nmode exact\nLINEAR\nrotation 1 2 1\njordan 5 1\n"
    "NONLINEAR\n3 2 0 0 1/3\n3 0 2 0 1/3\n1 1 0 1 1/5\n3 2 0 1 1/7\n"
)


def _jordan_germ(sizes, degree, exact, rng):
    """Normal form over Jordan blocks of eigenvalues 2, 4, 8, ... with the
    given sizes: random coefficients on every field-resonant monomial."""
    return _chain_germ([(2 ** (i + 1), s) for i, s in enumerate(sizes)], degree, exact, rng)


def _chain_germ(cells, degree, exact, rng):
    """Normal form over the Jordan blocks ``cells``, (eigenvalue, size)
    pairs: random coefficients on every field-resonant monomial."""
    blocks = tuple(JordanBlock(lam if exact else float(lam), s) for lam, s in cells)
    a = BlockMatrix(blocks)
    B = real_log(a)
    rep = field_resonances(B.triangular().eigen, degree)
    terms = []
    for j, m in rep.field_resonant:
        c = QQi(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
                Fraction(int(rng.integers(-2, 3)), 2))
        terms.append((j, m, c if exact else complex(c)))
    mode = MODE_EXACT if exact else MODE_FLOAT
    return GermSpec(a, PolyJet.build(a.dim, degree, mode, terms), degree), B


class TestLogSeriesMatchesReference:
    """The logarithm of the unipotent part against the averaging-operator
    solve: equal in exact mode, within 1e-12 of the scale in float mode,
    with the same obstruction degree, blocked set and entry order."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        G, B, tol = _fixture_germ(name)
        _assert_matches_reference(G, B, tol)

    @pytest.mark.parametrize("nil", (False, True))
    def test_random_resonant_normal_forms(self, nil):
        rng = np.random.default_rng(1600 + nil)
        for _ in range(4):
            G, B = random_resonant_normal_form(rng, degree=4, nil=nil)
            assert isinstance(_assert_matches_reference(G, B), FieldGerm)

    @pytest.mark.parametrize("size", (2, 3))
    @pytest.mark.parametrize("degree", (3, 5, 7))
    def test_exact_jordan(self, size, degree):
        rng = np.random.default_rng(10 * size + degree)
        G, B = _jordan_germ((size, 1), degree, True, rng)
        X = _assert_matches_reference(G, B)
        assert X.nonlinear.mode == MODE_EXACT

    @pytest.mark.parametrize("exact", (True, False))
    def test_long_series(self, exact):
        # three chained size-2 blocks keep D_k alive for 7 rounds at N = 3,
        # more than N times the largest block size
        G, B = _jordan_germ((2, 2, 2), 3, exact, np.random.default_rng(7))
        _assert_matches_reference(G, B)

    def test_float_branch_spectra_every_branch(self):
        rng = np.random.default_rng(1610)
        kinds = set()
        for branchable in (1, 1, 1, 2, 2, 2):
            a = random_branch_spectrum(rng, False, branchable)
            while not is_hyperbolic(a):  # a negative pair may draw -1
                a = random_branch_spectrum(rng, False, branchable)
            terms = [
                (j, m, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                for r in (2, 3)
                for m in multiindices(a.dim, r)
                for j in range(a.dim)
                if rng.random() < 0.3
            ]
            G = distinguished_normal_form(
                GermSpec(a, PolyJet.build(a.dim, 3, MODE_FLOAT, terms), 3)
            ).germ
            slots = [
                isinstance(b, (RotationBlock, NegativePairBlock)) for b in a.blocks
            ]
            for ls in itertools.product((-1, 0, 1), repeat=branchable):
                it = iter(ls)
                branch = BranchChoice(tuple(next(it) if s else 0 for s in slots))
                out = _assert_matches_reference(G, real_log(a, branch))
                kinds.add(type(out))
        assert kinds == {FieldGerm, Obstruction}

    def test_random_exact_germs(self):
        rng = np.random.default_rng(1620)
        for n, degree in ((2, 4), (3, 3), (3, 4)):
            spec = random_exact_germ(rng, n, degree)
            G = distinguished_normal_form(spec).germ
            _assert_matches_reference(G, real_log(spec.linear))

    @pytest.mark.parametrize("mode", (MODE_EXACT, MODE_FLOAT))
    def test_negative_pair_obstruction(self, mode):
        lam, c = Fraction(-5, 2), QQi(Fraction(2, 3), Fraction(1, 2))
        if mode == MODE_FLOAT:
            lam, c = float(lam), complex(c)
        a = BlockMatrix((NegativePairBlock(lam, 1), JordanBlock(lam * lam, 1)))
        terms = [(2, (2, 0, 0), c), (2, (0, 2, 0), c.conjugate()), (2, (1, 1, 0), c)]
        G = GermSpec(a, PolyJet.build(3, 4, mode, terms), 4)
        out = _assert_matches_reference(G, real_log(a))
        assert isinstance(out, Obstruction)


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

    def test_field_resonant_flow_solves_its_ode(self):
        # B = diag(8, 2 + pi i/2, 2 - pi i/2) and the solve's field
        # X = B y + c y_2^2 y_3^2 e_1, whose one term is field resonant: the
        # flow jet must satisfy d/dt phi = X(phi), checked by central
        # differences at two times.
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


def _resonant_field(blocks, degree, exact, rng):
    """Field B y + v with random coefficients on every field-resonant monomial."""
    from embedflow import field_resonances

    B = real_log(BlockMatrix(blocks))
    rep = field_resonances(B.triangular().eigen, degree)
    terms = []
    for j, m in rep.field_resonant:
        if exact:
            c = QQi(
                Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
                Fraction(int(rng.integers(-2, 3)), 2),
            )
        else:
            c = complex(*rng.uniform(-1.0, 1.0, size=2))
        terms.append((j, MultiIndex(m), c))
    mode = MODE_EXACT if exact else MODE_FLOAT
    v = PolyJet.build(B.dim, degree, mode, terms)
    return FieldGerm(B, v, degree)


def _weak_term_field():
    """The second embedding of test_weak_term_gives_second_embedding: the
    solve's field plus the weak term 0.35 y2^4 e1, as a WeakField, since
    FieldGerm refuses the weak term."""
    mu1 = EigenScalar.from_parts(rat=2)
    mu2 = EigenScalar.from_parts(rat=Fraction(1, 2), pi_part=Fraction(1, 2))
    a = BlockMatrix((
        JordanBlock(math.exp(2.0), 1, mu=mu1),
        RotationBlock(0.0, -math.exp(0.5), 1, mu=mu2),
    ))
    g = PolyJet.build(3, 4, MODE_FLOAT, [(0, MultiIndex((0, 2, 2)), 1.0)])
    X = solve_embedding(GermSpec(a, g, 4), real_log(a))
    terms = [(j, m, c) for (j, m), c in X.nonlinear.coeffs.items()]
    terms.append((0, MultiIndex((0, 4, 0)), 0.35))
    return WeakField(X.linear, PolyJet.build(3, 4, MODE_FLOAT, terms), 4)


# the weak monomials of _interacting_weak_field: <m, mu> is mu_1 +- 2*pi*i
# for y2^4 e1 and y3^4 e1 (mu_1 = 2), and mu_4 + 2*pi*i for y1^3 y2^4 e4
# and e5 (mu_4 = mu_5 = 8)
_WEAK = ((0, (0, 4, 0, 0, 0)), (0, (0, 0, 4, 0, 0)), (3, (3, 4, 0, 0, 0)), (4, (3, 4, 0, 0, 0)))


def _interacting_weak_field(mode):
    """mu = (2, 1/2 +- i pi/2, 8 on a size-2 Jordan block) at N = 8: random
    coefficients on every field-resonant monomial and on the weak ones of
    _WEAK, whose flows feed each other (y1 gains y2^4, which y1^3 y2^4
    carries into y4 and y5).  The Jordan block's eigenvalue is the integer
    2981 next to its exact log 8, so the coupling of the log, -1/2981, is
    a Gaussian rational and exact mode keeps an exact ring.  A WeakField,
    since FieldGerm refuses the weak terms."""
    rng = np.random.default_rng(2101)
    a = BlockMatrix((
        JordanBlock(math.exp(2.0), 1, mu=EigenScalar.from_parts(rat=2)),
        RotationBlock(
            0.0, -math.exp(0.5), 1,
            mu=EigenScalar.from_parts(rat=Fraction(1, 2), pi_part=Fraction(1, 2)),
        ),
        JordanBlock(2981, 2, mu=EigenScalar.from_parts(rat=8)),
    ))
    B = real_log(a)
    rep = field_resonances(B.triangular().eigen, 8)
    assert set(_WEAK) <= {(j, tuple(m)) for j, m, _ in rep.weak}
    terms = []
    for j, m in [*rep.field_resonant, *_WEAK]:
        c = QQi(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))), Fraction(1, 2))
        terms.append((j, MultiIndex(m), c if mode == MODE_EXACT else complex(c)))
    return WeakField(B, PolyJet.build(5, 8, mode, terms), 8)


# two Jordan chains feeding their squares, as (eigenvalue, size) cells
CHAINS = {"chain-3x2-9": ((3, 2), (9, 1)), "chain-2x4-4": ((2, 4), (4, 1))}


def _random_exact_normal_form(i):
    """The i-th germ of TestLogSeriesMatchesReference.test_random_exact_germs,
    as ``(G, B)``."""
    rng = np.random.default_rng(1620)
    for n, degree in ((2, 4), (3, 3), (3, 4))[: i + 1]:
        spec = random_exact_germ(rng, n, degree)
    return distinguished_normal_form(spec).germ, real_log(spec.linear)


def _solve_cases():
    """Germs that embed, as ``(id, build)`` with ``build() -> (G, B)``, built
    when run: the field-resonant cases of TestLogSeriesMatchesReference
    beyond the fixtures and random normal forms, the eighth-turn and a
    generic-angle rotation, and two Jordan chains at N = 5 in both modes."""
    cases = [
        (f"exact-jordan-{size}-{degree}", lambda size=size, degree=degree: _jordan_germ(
            (size, 1), degree, True, np.random.default_rng(10 * size + degree)
        ))
        for size in (2, 3)
        for degree in (3, 5, 7)
    ]
    cases += [(f"random-exact-{i}", lambda i=i: _random_exact_normal_form(i)) for i in range(3)]
    cases.append(("eighth-turn", lambda: _text_germ(EIGHTH_TURN)[:2]))
    cases.append(("generic-angle", lambda: _text_germ(GENERIC_ANGLE)[:2]))
    for exact in (True, False):
        mode = MODE_EXACT if exact else MODE_FLOAT
        cases.append((f"long-series-{mode}", lambda exact=exact: _jordan_germ(
            (2, 2, 2), 3, exact, np.random.default_rng(7)
        )))
        cases += [
            (f"{name}-{mode}", lambda cells=cells, exact=exact: _chain_germ(
                cells, 5, exact, np.random.default_rng(2600)
            ))
            for name, cells in CHAINS.items()
        ]
    return cases


def _flow_cases():
    """Fields for the flow against the reference flow, built when run."""
    cases = [(name, lambda name=name: _fixture_field(name)[1]) for name in FIXTURES]
    cases += [
        (f"normal-form-{i}", lambda i=i: solve_embedding(
            *random_resonant_normal_form(np.random.default_rng(1800 + i), degree=4, nil=i % 3 == 0)
        ))
        for i in range(20)
    ]
    blocks = {
        "diag": (JordanBlock(16, 1), JordanBlock(4, 1), JordanBlock(2, 1)),
        "jordan": (JordanBlock(4, 1), JordanBlock(2, 2), JordanBlock(8, 1)),
    }
    cases += [
        (f"resonant-{kind}-{'exact' if exact else 'float'}",
         lambda kind=kind, exact=exact: _resonant_field(blocks[kind], 5, exact, np.random.default_rng(1850)))
        for kind in blocks
        for exact in (True, False)
    ]
    cases += [(name, lambda build=build: solve_embedding(*build())) for name, build in _solve_cases()]
    return [pytest.param(build, id=name) for name, build in cases]


@pytest.mark.parametrize("build", _flow_cases())
def test_flow_matches_reference_flow(build):
    """The Lie series against the value-keyed ExpPoly flow of _expflow, to
    1e-14 of the jet's scale at each time."""
    X = build()
    assert isinstance(X, FieldGerm)
    got, want = flow_jet(X), _expflow.flow_jet(X)
    for t in (0.0, 0.3, 1.0, -0.7):
        want_t = want.at_time(t)
        assert jet_distance(got.at_time(t), want_t) <= 1e-14 * max(1.0, want_t.max_abs()), t


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(build, id=name)
        for name, build in [
            ("resonant-2d", lambda: _fixture_germ("resonant-2d")[:2]), *_solve_cases()
        ]
        if not name.endswith(MODE_FLOAT)
    ],
)
def test_lie_series_time_one_is_the_map_exactly(build):
    """In exact mode diag(lambda) sum_k P_k, the Lie series at t = 1 behind
    e^S, is G's map jet, coefficient for coefficient in QQi."""
    G, B = build()
    X = solve_embedding(G, B)
    assert isinstance(X, FieldGerm) and X.mode == MODE_EXACT
    lam = G.linear.triangular().diag
    phi = flow_jet(X)
    total = {}
    for P in phi.terms:
        for key, c in P.coeffs.items():
            total[key] = total[key] + c if key in total else c
    got = {(j, m): lam[j] * c for (j, m), c in total.items() if c}
    assert got == G.map_jet().coeffs


def test_exact_flow_refuses_a_float_coupling():
    """An exact field's flow is built in QQi: a logarithm whose Jordan
    coupling is a float raises, rather than fall back to float."""
    X = FieldGerm(real_log(BlockMatrix((JordanBlock(2.0, 2),))), PolyJet.zero(2, 2, MODE_EXACT), 2)
    with pytest.raises(ExactnessError):
        flow_jet(X)


def test_field_germ_refuses_a_weak_term():
    """A weakly resonant term does not commute with B's diagonal, and the
    flow's Lie series would miss it: FieldGerm refuses the weak term
    0.35 y2^4 e1 of _weak_term_field."""
    X = _weak_term_field()
    with pytest.raises(ValueError, match="field resonant"):
        FieldGerm(X.linear, X.nonlinear, X.degree, X.tol)
    solved = {k: c for k, c in X.nonlinear.coeffs.items() if k != (0, (0, 4, 0))}
    FieldGerm(X.linear, PolyJet(3, 4, X.mode, solved), 4, X.tol)


def _weak_cases():
    return [
        pytest.param(_weak_term_field, id="weak-second-embedding"),
        *(
            pytest.param(lambda mode=mode: _interacting_weak_field(mode), id=f"weak-interacting-{mode}")
            for mode in (MODE_EXACT, MODE_FLOAT)
        ),
    ]


@pytest.mark.parametrize("build", _weak_cases())
def test_reference_flow_of_weak_fields_matches_the_oracle(build):
    """Fields with weak terms, which the package's flow refuses: the
    reference flow at t = 1 and the ODE oracle, called directly, agree
    within the oracle's error estimate."""
    X = build()
    jet, err, _ = _ode_oracle(X.linear.triangular(), X.nonlinear, X.degree)
    assert jet_distance(_expflow.flow_jet(X).at_time(1.0), jet) <= err


def _frequency(a, mu):
    """l with a = mu + 2*pi*i*l, for an exponent ``a`` of the reference flow
    on a coordinate whose log eigenvalue is ``mu``; None off the lattice."""
    if isinstance(a, EigenScalar):
        return _expflow.two_pi_integer(a - mu)
    return _expflow.key_two_pi_l(complex(a) - complex(mu), DEFAULT_TOL)


@pytest.mark.parametrize("mode", (MODE_EXACT, MODE_FLOAT))
def test_interacting_weak_terms_flow_ring(mode):
    """Weak terms that feed each other on a Jordan block, on the reference
    flow (checked against the ODE oracle as weak-interacting-* above):
    exact mode keeps QQi/PiPoly coefficients, with powers of pi from the
    weak frequencies."""
    X = _interacting_weak_field(mode)
    phi = _expflow.flow_jet(X)
    coeffs = [c for p in phi.coeffs.values() for c in p.terms.values()]
    if mode == MODE_EXACT:
        assert all(isinstance(c, (QQi, PiPoly)) for c in coeffs)
        assert any(isinstance(c, PiPoly) and c.as_qqi() is None for c in coeffs)
    else:
        assert all(isinstance(c, complex) for c in coeffs)
    # the weak frequencies reach the Jordan block's two coordinates
    mu = X.linear.triangular().eigen.entries
    assert {
        j for (j, m), p in phi.coeffs.items() if any(_frequency(a, mu[j]) for _, a in p.terms)
    } >= {0, 3, 4}


class TestSubstitutionKernel:
    """``jets._OnlineComposition`` over a ring of time functions, the
    reference flow's ExpPoly, grown one degree of the flow at a time: at
    every fixed time it must be ``compose``."""

    @pytest.mark.parametrize(
        "blocks, exact",
        [
            # diagonal logarithms: exponents 0.8 = 2*0.4 = 4*0.2 ...
            ((JordanBlock(math.exp(0.8), 1), JordanBlock(math.exp(0.4), 1),
              JordanBlock(math.exp(0.2), 1)), False),
            ((JordanBlock(16, 1), JordanBlock(4, 1), JordanBlock(2, 1)), True),
            # Jordan blocks: nilpotent logarithms, t^k coefficients
            ((JordanBlock(math.exp(0.8), 1), JordanBlock(math.exp(0.4), 2)), False),
            ((JordanBlock(4, 1), JordanBlock(2, 2)), True),
        ],
        ids=["diag-float", "diag-exact", "jordan-float", "jordan-exact"],
    )
    def test_matches_compose_at_fixed_times(self, blocks, exact):
        degree = 4
        rng = np.random.default_rng(17 + 2 * len(blocks) + exact)
        X = _resonant_field(blocks, degree, exact, rng)
        tri = X.linear.triangular()
        assert _expflow.qqi_ring(tri, X.mode) == exact
        phi = _expflow.flow_jet(X)
        n = X.dim
        terms = []
        for r in range(1, degree + 1):
            for m in multiindices(n, r):
                for j in range(n):
                    if exact:
                        c = QQi(Fraction(int(rng.integers(-5, 6)), 3))
                    else:
                        c = complex(*rng.normal(size=2))
                    terms.append((j, m, c))
        x = PolyJet.build(n, degree, X.mode, terms)
        # the online composition over the flow's linear part, extended by
        # one slice of the flow per degree
        def flow_slice(r):
            return {k: p for k, p in phi.coeffs.items() if k[1].degree == r}

        online = jets._OnlineComposition(
            [{m: p for (j, m), p in flow_slice(1).items() if j == i} for i in range(n)], degree
        )
        slices = []
        for r in range(1, degree + 1):
            if r > 1:  # x's linear terms read the flow's degree-r slice
                online.extend(flow_slice(r))
            slices.append(_expflow.FlowJet(n, degree, online.degree_slice(x.coeffs, r)))
        if exact:
            for part in slices:
                for p in part.coeffs.values():
                    for c in p.terms.values():
                        assert isinstance(c, (QQi, PiPoly))
        for t in (0.0, 0.3, 1.0):
            want = compose(x.to_float(), phi.at_time(t), degree=degree)
            for r, part in enumerate(slices, start=1):
                want_r = want.degree_slice(r)
                got = part.at_time(t)
                assert jet_distance(got, want_r) <= 1e-12 * max(1.0, want_r.max_abs())


def _ode_rhs(tri, v, degree):
    """Right-hand side C -> B C + v(C) of the jet-coefficient equations.

    C is the flat vector of the coefficients of the returned columns, those
    that the plan's own walk reaches from the identity; v(C) is the jet of
    v composed with it, truncated at ``degree``.  B's entries, its diagonal
    too, are terms of degree one in the same plan as v's
    (``_coefficient_plan``).
    """
    units = [MultiIndex.unit(tri.dim, k) for k in range(tri.dim)]
    terms = [(j, units[j], complex(d)) for j, d in enumerate(tri.diag)]
    terms += [(i, units[k], complex(c)) for i, k, c in tri.nil]
    terms += [(j, m, complex(c)) for (j, m), c in v.coeffs.items()]
    return _coefficient_plan(terms, list(enumerate(units)), degree)


def _linear_on_columns(tri, cols, C):
    """B C on the columns ``cols`` of a flat coefficient vector C."""
    index = {col: s for s, col in enumerate(cols)}
    B = tri.dense()
    want = np.zeros(len(cols), dtype=complex)
    for s, (j, m) in enumerate(cols):
        for k in range(tri.dim):
            t = index.get((k, m))
            if t is not None:
                want[s] += B[j, k] * C[t]
    return want


def _oracle_inputs(X, G):
    """``(tri, v, N)`` of the ODE oracle for X against G, as ``time_one_steps``
    passes them: B's triangular form and v at the smaller jet degree N."""
    N = min(G.degree, X.degree)
    return X.linear.triangular(), X.nonlinear.truncate(N), N


def _oracle_case(case):
    """``(tri, v, N)`` of the ODE oracle on a fixture's field, a Jordan
    chain, a random resonant normal form or a diag(8, 2, 4) germ."""
    if case == "jordan":
        G, B = _jordan_germ((3, 1), 4, False, np.random.default_rng(3))
        X = solve_embedding(G, B)
    elif case == "random":
        G, B = random_resonant_normal_form(np.random.default_rng(1720), degree=5)
        X = solve_embedding(G, B)
    elif case == "diag-float":
        G, X = _resonant_diag_germ(MODE_FLOAT)
    else:
        G, X = _fixture_field(case)
    return _oracle_inputs(X, G)


def _reference_time_one(X, G):
    """``(residual_exp, residual_ode)`` as ``time_one_steps`` reads them, for
    a field that the package's flow refuses: the reference flow of _expflow
    at t = 1 and the ODE oracle, called directly, against G's map jet."""
    tri, v, N = _oracle_inputs(X, G)
    target = G.float_map_jet.truncate(N)
    ode, _, _ = _ode_oracle(tri, v, N)
    phi = _expflow.flow_jet(X, N).at_time(1.0).truncate(N)
    return jet_distance(phi, target), jet_distance(ode, target)


def _dp5_time_one(tri, v, degree, steps):
    """``(jet, err)`` of the ODE oracle's integration at a fixed step count:
    C(1) and the sum of the steps' local errors plus the roundoff floor."""
    plan = _dp5_plan(tri, v, degree)
    y, local, floor = _dp5_run(tri, plan, steps)
    return _dp5_jet(tri, plan[0], degree, y), local + floor


def _full_state_dp5(tri, v, degree, steps):
    """The ODE oracle's fixed-step integrating-factor DP5 over every column
    (j, m), m of degree 1 to ``degree``: the state before its restriction to
    the reachable columns, with e^(+-tD) formed afresh at every stage node:
    the plan is seeded with every column, so its walk adds none.  Returns
    ``(jet, err)`` as ``_dp5_time_one`` does."""
    n = tri.dim
    cols = [(j, m) for r in range(1, degree + 1) for j in range(n) for m in multiindices(n, r)]
    terms = [(i, MultiIndex.unit(n, k), complex(c)) for i, k, c in tri.nil]
    terms += [(j, m, complex(c)) for (j, m), c in v.coeffs.items()]
    reached, out, factors, mult = _plan(terms, cols, degree)
    assert reached == cols
    rate = np.array([complex(tri.diag[j]) for j, _ in cols])
    flat = np.ones(len(cols) + 1, dtype=complex)

    def deriv(t, z):
        flat[:-1] = np.exp(t * rate) * z
        contrib = flat[factors].prod(axis=0) * mult
        g = np.bincount(out, contrib.real, len(cols)) + 1j * np.bincount(
            out, contrib.imag, len(cols)
        )
        return np.exp(-t * rate) * g

    z = np.array([1.0 if m == MultiIndex.unit(n, j) else 0.0 for j, m in cols], dtype=complex)
    h = 1.0 / steps
    a, e = _DP_A * h, _DP_E * h
    K = np.empty((7, len(cols)), dtype=complex)
    K[0] = deriv(0.0, z)
    err = 0.0
    for i in range(steps):
        for s in range(1, 7):
            stage = z + a[s, :s] @ K[:s]
            K[s] = deriv((i + _DP_C[s]) * h, stage)
        z = stage
        err += float((np.abs(e @ K) * np.exp(rate.real)).max())
        K[0] = K[6]
    y = np.exp(rate) * z
    err += ODE_ROUNDOFF * float(np.abs(y).max())
    jet = PolyJet.build(n, degree, MODE_FLOAT, [(j, m, c) for (j, m), c in zip(cols, y) if c != 0])
    return jet, err


def _fixture_field(name):
    """A fixture's normal form and its field.  An obstructed fixture loses
    its blocked terms until it embeds, which leaves a field on the same
    spectrum."""
    G, B, tol = _fixture_germ(name)
    X = solve_embedding(G, B, tol=tol)
    while isinstance(X, Obstruction):
        blocked = {(j, tuple(m)) for j, m, *_ in X.entries}
        kept = [(j, m, c) for (j, m), c in G.nonlinear.coeffs.items() if (j, m) not in blocked]
        assert len(kept) < len(G.nonlinear.coeffs)
        G = GermSpec(G.linear, PolyJet.build(G.dim, G.degree, G.nonlinear.mode, kept), G.degree)
        X = solve_embedding(G, B, tol=tol)
    return G, X


def _resonant_diag_germ(mode):
    """A germ of the verify workload's shape: diag(8, 2, 4) at N = 5 with
    random coefficients on every field-resonant monomial, and its field."""
    rng = np.random.default_rng(2500)
    a = BlockMatrix(tuple(JordanBlock(c, 1) for c in (8, 2, 4)))
    B = real_log(a)
    terms = []
    for j, m in field_resonances(B.triangular().eigen, 5).field_resonant:
        c = QQi(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))))
        terms.append((j, m, c if mode == MODE_EXACT else complex(c)))
    G = GermSpec(a, PolyJet.build(3, 5, mode, terms), 5)
    return G, solve_embedding(G, B)


def _record_oracle_work(monkeypatch):
    """``(runs, plans)``: filled with the step count of every integration
    and the name of every plan-building call of the ODE oracle."""
    runs, plans = [], []

    def recorded(name, record):
        original = getattr(oracle, name)

        def wrapper(*args):
            record(args)
            return original(*args)

        monkeypatch.setattr(oracle, name, wrapper)

    recorded("_dp5_run", lambda args: runs.append(args[2]))
    recorded("_plan", lambda args: plans.append("_plan"))
    return runs, plans


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
        # one evaluation of the ODE oracle's right-hand side is B C + (v o C),
        # with v o C composed by the jet engine on the float jet of a random
        # C supported on the reachable columns, which v o C never leaves
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
        v = PolyJet.build(n, degree, MODE_FLOAT, terms)
        cols, deriv = _ode_rhs(tri, v, degree)
        C = rng.normal(size=len(cols)) + 1j * rng.normal(size=len(cols))
        got = deriv(C)
        jet = PolyJet.build(n, degree, MODE_FLOAT, [(j, m, c) for (j, m), c in zip(cols, C)])
        vc = compose(v, jet, degree=degree)
        index = {col: s for s, col in enumerate(cols)}
        assert set(vc.coeffs) <= set(index)
        want = _linear_on_columns(tri, cols, C)
        for col, c in vc.coeffs.items():
            want[index[col]] += complex(c)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_linear_field_rhs_is_linear_part(self):
        tri = real_log(BlockMatrix((JordanBlock(3, 2),))).triangular()
        v = PolyJet.build(2, 3, MODE_FLOAT, [])
        cols, deriv = _ode_rhs(tri, v, 3)
        C = np.arange(len(cols), dtype=complex)
        assert np.array_equal(deriv(C), _linear_on_columns(tri, cols, C))

    def test_shares_no_code_with_the_flow_solver(self, monkeypatch):
        # the ODE oracle must give the same jet with the composition kernel
        # and jacobian_apply, the kernel of the flow's Lie series, both
        # unavailable
        class Called(Exception):
            pass

        def boom(*args, **kwargs):
            raise Called

        G = _paper_23_germ(a_coeff=0.7)
        X = solve_embedding(G, real_log(G.linear))
        tri = X.linear.triangular()
        want, _ = _dp5_time_one(tri, X.nonlinear, X.degree, 1000)
        monkeypatch.setattr(jets._OnlineComposition, "__init__", boom)
        monkeypatch.setattr(jets, "jacobian_apply", boom)
        monkeypatch.setattr(flow, "jacobian_apply", boom)
        with pytest.raises(Called):
            flow_jet(X)
        got, _ = _dp5_time_one(tri, X.nonlinear, X.degree, 1000)
        assert got.coeffs == want.coeffs

    def test_solve_shares_no_code_with_the_flow_check(self, monkeypatch):
        # the solve must reach the same outcome with the exact-flow check's
        # Lie-series kernel, jacobian_apply, and its term type, FlowJet,
        # unavailable
        class Called(Exception):
            pass

        def boom(*args, **kwargs):
            raise Called

        cases = [_fixture_germ(name) for name in FIXTURES]
        G, B = _jordan_germ((3, 1), 5, True, np.random.default_rng(5))
        cases.append((G, B, DEFAULT_TOL))
        want = [solve_embedding(G, B, tol=tol) for G, B, tol in cases]
        monkeypatch.setattr(jets, "jacobian_apply", boom)
        monkeypatch.setattr(flow, "jacobian_apply", boom)
        monkeypatch.setattr(flow.FlowJet, "__init__", boom)
        with pytest.raises(Called):
            flow_jet(want[-1])
        for (G, B, tol), outcome in zip(cases, want):
            assert solve_embedding(G, B, tol=tol) == outcome

    @pytest.mark.parametrize("seed", range(8))
    def test_dp5_agrees_with_dop853_within_its_estimate(self, seed):
        # random small fields, n = 2 or 3, N <= 5, on diagonal and rotation
        # logs; the reference integrates the same coefficient equations,
        # split into real and imaginary parts, with scipy's adaptive DOP853
        rng = np.random.default_rng(seed)
        n = 2 + seed % 2
        degree = 3 + seed % 3
        if seed % 4 < 2:
            blocks = tuple(JordanBlock(float(rng.uniform(0.3, 3.0)), 1) for _ in range(n))
        else:
            blocks = (
                RotationBlock(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.5, 2.0)), 1),
            ) + tuple(JordanBlock(float(rng.uniform(0.3, 3.0)), 1) for _ in range(n - 2))
        tri = real_log(BlockMatrix(blocks)).triangular()
        exponents = [m for r in range(2, degree + 1) for m in multiindices(n, r)]
        picks = rng.choice(len(exponents), size=min(6, len(exponents)), replace=False)
        v = PolyJet.build(
            n,
            degree,
            MODE_FLOAT,
            [(int(rng.integers(n)), exponents[k], complex(*rng.normal(size=2))) for k in picks],
        )
        got, err = _dp5_time_one(tri, v, degree, ODE_STEPS)

        cols, deriv = _ode_rhs(tri, v, degree)
        C0 = np.zeros(len(cols), dtype=complex)
        for k in range(n):
            C0[cols.index((k, MultiIndex.unit(n, k)))] = 1.0

        def rhs(_, y):
            return deriv(y.view(complex)).view(np.float64)

        sol = solve_ivp(
            rhs, (0.0, 1.0), C0.view(np.float64), method="DOP853",
            rtol=1e-12, atol=1e-14,
        )
        assert sol.success
        ref = sol.y[:, -1].view(complex)
        want = PolyJet.build(n, degree, MODE_FLOAT, [(j, m, c) for (j, m), c in zip(cols, ref)])
        assert 0 < err < 1e-6 * max(1.0, want.max_abs())
        assert jet_distance(got, want) <= err

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_estimate_bounds_true_error(self, fixture):
        # the closed-form flow reproduces G to roundoff, so the ODE residual
        # is the oracle's true error, and its estimate must not undercut it
        G, X = _fixture_field(fixture)
        r_exp, r_ode, err, _ = time_one_steps(X, G)
        assert r_exp <= 1e-14 * max(1.0, G.map_jet().to_float().max_abs())
        assert r_ode <= err

    def test_estimate_bounds_true_error_resonant_normal_forms(self):
        rng = np.random.default_rng(1700)
        for i in range(12):
            G, B = random_resonant_normal_form(rng, degree=4 + i % 3, nil=(i % 4 == 0))
            X = solve_embedding(G, B)
            _, r_ode, err, _ = time_one_steps(X, G)
            assert r_ode <= err

    def test_estimate_bounds_true_error_branch_spectra(self):
        rng = np.random.default_rng(1710)
        fields = 0
        for branchable in (1, 1, 2, 2):
            a = random_branch_spectrum(rng, False, branchable)
            while not is_hyperbolic(a):  # a negative pair may draw -1
                a = random_branch_spectrum(rng, False, branchable)
            terms = [
                (j, m, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                for r in (2, 3, 4)
                for m in multiindices(a.dim, r)
                for j in range(a.dim)
                if rng.random() < 0.3
            ]
            G = distinguished_normal_form(
                GermSpec(a, PolyJet.build(a.dim, 4, MODE_FLOAT, terms), 4)
            ).germ
            slots = [isinstance(b, (RotationBlock, NegativePairBlock)) for b in a.blocks]
            for ls in itertools.product((-1, 0, 1), repeat=branchable):
                it = iter(ls)
                branch = BranchChoice(tuple(next(it) if s else 0 for s in slots))
                X = solve_embedding(G, real_log(a, branch))
                if isinstance(X, FieldGerm):
                    _, r_ode, err, _ = time_one_steps(X, G)
                    assert r_ode <= err
                    fields += 1
        assert fields >= 4

    def test_reachable_state(self):
        # paper-2.3: the identity and the one resonant column
        G, X = _fixture_field("paper-2.3")
        tri, v, N = _oracle_inputs(X, G)
        e = MultiIndex.unit
        assert _dp5_plan(tri, v, N)[0] == [(0, e(3, 0)), (1, e(3, 1)), (2, e(3, 2)), (0, (0, 4, 4))]
        G, X = _fixture_field("resonant-2d")
        tri, v, N = _oracle_inputs(X, G)
        assert _dp5_plan(tri, v, N)[0] == [(0, e(2, 0)), (1, e(2, 1)), (0, (0, 2))]
        # diag(8, 2, 4) with v = (y2^3 + y2 y3) e1 + y2^2 e3: y3 gains the
        # column y2^2, and y2 y3 then reaches y2^3 again; 6 of 165 entries
        tri = real_log(BlockMatrix(tuple(JordanBlock(c, 1) for c in (8, 2, 4)))).triangular()
        v = PolyJet.build(
            3, 5, MODE_FLOAT, [(0, (0, 3, 0), 1.0), (0, (0, 1, 1), 1.0), (2, (0, 2, 0), 1.0)]
        )
        assert _dp5_plan(tri, v, 5)[0] == [
            (0, e(3, 0)), (1, e(3, 1)), (2, e(3, 2)),
            (0, (0, 1, 1)), (2, (0, 2, 0)), (0, (0, 3, 0)),
        ]
        # a Jordan block couples y1's columns into y2's; v = y2^2 e1 then
        # reaches y1^2 and y1 y2 through the coupling
        tri = real_log(BlockMatrix((JordanBlock(3, 2),))).triangular()
        v = PolyJet.build(2, 2, MODE_FLOAT, [(0, (0, 2), 1.0)])
        assert _dp5_plan(tri, v, 2)[0] == [
            (0, e(2, 0)), (1, e(2, 1)), (1, e(2, 0)),
            (0, (0, 2)), (0, (1, 1)), (0, (2, 0)), (1, (0, 2)), (1, (1, 1)), (1, (2, 0)),
        ]

    @pytest.mark.parametrize(
        "case", ["paper-2.3", "resonant-2d", "paper-F1", "jordan", "random"]
    )
    def test_reachable_state_matches_full_state(self, case):
        # at ODE_STEPS steps the reachable oracle gives the jet and the
        # estimate of the full-state integration to 1e-15 of the
        # jet's scale.  The estimate is a difference of nearly equal slopes,
        # so relative to itself it shows the last-bit rounding of the stage
        # sums, which BLAS rounds differently at different state lengths
        tri, v, N = _oracle_case(case)
        got, err = _dp5_time_one(tri, v, N, ODE_STEPS)
        want, want_err = _full_state_dp5(tri, v, N, ODE_STEPS)
        assert set(got.coeffs) == set(want.coeffs)
        assert jet_distance(got, want) <= 1e-15 * want.max_abs()
        assert abs(err - want_err) <= 1e-15 * want.max_abs()

    @pytest.mark.parametrize(
        "case", ["paper-2.3", "resonant-2d", "paper-F1", "jordan", "random", "diag-float"]
    )
    def test_plan_is_triangular_by_degree(self, case, monkeypatch):
        # the rows come grouped by the degree of their output, and a row
        # with two or more factors reads only columns below that degree,
        # which the walk up the degrees has finished before it
        tri, v, N = _oracle_case(case)
        plan, built = oracle._plan, []

        def kept(*args):
            built.append(plan(*args))
            return built[-1]

        monkeypatch.setattr(oracle, "_plan", kept)
        _dp5_plan(tri, v, N)
        ((cols, out, factors, _),) = built
        degree = np.array([m.degree for _, m in cols] + [0])  # the pad slot reads 0
        assert len(out) and (np.diff(degree[out]) >= 0).all()
        wide = (factors < len(cols)).sum(axis=0) >= 2
        assert wide.any()
        assert (degree[factors[:, wide]] < degree[out[wide]]).all()
        assert (degree[factors[:, ~wide]].max(axis=0) == degree[out[~wide]]).all()

    @pytest.mark.parametrize("case", FIXTURES + ("diag-exact", "diag-float"))
    def test_rate_zero_fields_take_one_step(self, case, monkeypatch):
        # every row has rate 0 in the frame of B's diagonal, and one step's
        # local error is within the estimate's roundoff floor
        if case.startswith("diag-"):
            G, X = _resonant_diag_germ(MODE_EXACT if case == "diag-exact" else MODE_FLOAT)
        else:
            G, X = _fixture_field(case)
        runs, plans = _record_oracle_work(monkeypatch)
        _, r_ode, err, steps = time_one_steps(X, G)
        assert steps == 1 and runs == [1]
        assert plans == ["_plan"]
        assert r_ode <= err
        v = certify(G, X, X.tol)
        assert (v.residual_exp, v.residual_ode, v.residual_ode_err, v.ode_steps) == time_one_steps(X, G)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("sizes, degree", [((4, 1), 5), ((2, 2, 2), 3)])
    def test_long_jordan_chains_fall_back_to_ode_steps(
        self, sizes, degree, exact, monkeypatch
    ):
        # rate 0 too, but the chain makes the coefficients polynomials of
        # higher degree in t: one step's estimate reads about 1e-4, eight
        # decades above the roundoff floor, and the oracle reruns at
        # ODE_STEPS on the plan it built once
        G, B = _jordan_germ(sizes, degree, exact, np.random.default_rng(7))
        X = solve_embedding(G, B)
        tri, v, N = _oracle_inputs(X, G)
        want, want_err = _dp5_time_one(tri, v, N, ODE_STEPS)
        _, one_err = _dp5_time_one(tri, v, N, 1)
        assert one_err > 1e6 * ODE_ROUNDOFF * want.max_abs()
        runs, plans = _record_oracle_work(monkeypatch)
        jet, err, steps = _ode_oracle(tri, v, N)
        assert runs == [1, ODE_STEPS] and steps == ODE_STEPS == 23
        assert plans == ["_plan"]
        assert jet.coeffs == want.coeffs and err == want_err


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
            g = PolyJet.build(3, 4, MODE_FLOAT, terms)
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
        assert max(time_one_steps(Y, G)[:2]) > 1e-4

    def test_weak_term_gives_second_embedding(self):
        # weakly resonant monomials are map-resonant (lambda^m = lambda_j),
        # so a weak term commutes with G and averages to zero over [0,1]:
        # shifting the solution by one is invisible to both residuals.  The
        # solver returns the distinguished representative (weak coeff 0),
        # and FieldGerm refuses the other, so the time-one map is read off
        # the reference flow.
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
        Y = WeakField(B, PolyJet.build(3, 4, MODE_FLOAT, terms), 4)
        assert embedding_residual(G, Y).max_abs() < 1e-12
        assert max(_reference_time_one(Y, G)) < 1e-9

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
        assert max(time_one_steps(Y, G)[:2]) > 1e-4
