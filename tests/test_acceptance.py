"""Acceptance suite: one test per item of the project's requirements.

Each test prints a single verdict line to the real stdout, bypassing
pytest capture, so a full run ends with a nine-line scoreboard no matter
how the individual assertions are reported.
"""

import contextlib
import io
import math
import time
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from scipy.linalg import expm

from embedflow import (
    MODE_FLOAT,
    BlockMatrix,
    EigenData,
    EigenScalar,
    FieldGerm,
    JordanBlock,
    MultiIndex,
    NearResonanceError,
    NegativePairBlock,
    PolyJet,
    QQi,
    RotationBlock,
    classify_2d,
    compose,
    distinguished_normal_form,
    field_resonances,
    flow_jet,
    jacobian_apply,
    jet_distance,
    map_resonances,
    multiindices,
    pair_negative_blocks,
    parse_germ,
    parse_machine,
    real_log,
    solve_embedding,
    time_one_residuals,
)
from embedflow.cli import main as cli_main
from _expflow import Tr_matrix
from _gens import (
    random_exact_germ,
    random_hyperbolic_germ,
    random_loggable_blocks,
    random_resonant_normal_form,
)
from _reference import appendix_identity_check, operator_L_field_spectrum, operator_L_map_spectrum


_CAPTURE = None


@pytest.fixture(autouse=True)
def _scoreboard_capture(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _say(line):
    if _CAPTURE is None:
        print(line, flush=True)
        return
    with _CAPTURE.disabled():
        print(line, flush=True)


def _verdict(num, label, body):
    try:
        body()
    except BaseException:
        _say(f"[acceptance {num}] FAIL {label}")
        raise
    _say(f"[acceptance {num}] PASS {label}")


def _multiset_close(got, want, tol):
    pool = [complex(w) for w in want]
    assert len(got) == len(pool)
    for z in got:
        z = complex(z)
        k = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
        assert abs(pool[k] - z) <= tol
        pool.pop(k)


def _fixture_text(name: str) -> str:
    path = resources.files("embedflow") / "fixtures" / f"{name}.germ"
    return path.read_text()


def _run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_01_worked_spectrum_resonances():
    def body():
        t0 = time.perf_counter()
        eigen = EigenData((
            EigenScalar.from_parts(rat=8),
            EigenScalar.from_parts(rat=1, pi_part=Fraction(1, 4)),
            EigenScalar.from_parts(rat=1, pi_part=Fraction(-1, 4)),
        ))
        assert eigen.exact
        rep = map_resonances(eigen, 8)
        assert rep.map_set() == {
            (0, (0, 4, 4)),
            (0, (0, 8, 0)),
            (0, (0, 0, 8)),
        }
        fld = field_resonances(eigen, 8)
        assert fld.field_set() == {(0, (0, 4, 4))}
        assert set(fld.weak) == {(0, (0, 8, 0), -1), (0, (0, 0, 8), 1)}
        assert fld.near == ()
        assert time.perf_counter() - t0 < 1.0

    _verdict(1, "exact resonance analysis of the worked 3d spectrum", body)


def test_02_real_logarithms():
    def body():
        for lam in (3.0, 0.5):
            a = BlockMatrix((JordanBlock(-lam, 1), JordanBlock(-lam, 1)))
            paired, _ = pair_negative_blocks(a)
            got = np.array(real_log(paired).to_dense(), dtype=float)
            want = np.array([
                [math.log(lam), math.pi],
                [-math.pi, math.log(lam)],
            ])
            assert np.max(np.abs(got - want)) <= 1e-12

        a = BlockMatrix(
            (JordanBlock(4, 1), JordanBlock(-2, 1), JordanBlock(-2, 1))
        )
        paired, _ = pair_negative_blocks(a)
        got = np.array(real_log(paired).to_dense(), dtype=float)
        want = np.array([
            [2 * math.log(2), 0.0, 0.0],
            [0.0, math.log(2), math.pi],
            [0.0, -math.pi, math.log(2)],
        ])
        assert np.max(np.abs(got - want)) <= 1e-12

        rng = np.random.default_rng(20260814)
        for _ in range(100):
            a = random_loggable_blocks(rng, 6)
            paired, _ = pair_negative_blocks(a)
            dense_b = real_log(paired).to_dense().astype(complex)
            target = paired.to_dense().astype(complex)
            scale = max(1.0, np.max(np.abs(target)))
            assert np.max(np.abs(expm(dense_b) - target)) <= 1e-10 * scale
            assert np.max(np.abs(dense_b.imag)) == 0.0

    _verdict(2, "real logarithms, negative pairs, 100 round-trips", body)


def _assembled_spectrum(linear, n, r, field):
    """Eigenvalues of the homological operator built column by column."""
    basis = tuple((j, tuple(m)) for m in multiindices(n, r) for j in range(n))
    index = {key: k for k, key in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, (j, m) in enumerate(basis):
        probe = PolyJet.build(n, r, MODE_FLOAT, [(j, MultiIndex(m), 1.0)])
        if field:
            image = jacobian_apply(probe, linear, degree=r) - compose(
                linear, probe, degree=r
            )
        else:
            image = compose(linear, probe, degree=r) - compose(
                probe, linear, degree=r
            )
        for (jj, mm), val in image.coeffs.items():
            mat[index[(jj, tuple(mm))], col] = complex(val)
    return np.linalg.eigvals(mat)


def test_03_operator_spectra_match_assembled_matrices():
    def body():
        cases = (
            BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1))),
            BlockMatrix((JordanBlock(2, 2),)),
            BlockMatrix((JordanBlock(3, 1), RotationBlock(1.0, 2.0, 1))),
            BlockMatrix(
                (JordanBlock(8, 1), JordanBlock(4, 1), JordanBlock(2, 1))
            ),
            BlockMatrix((NegativePairBlock(-2.0, 1), JordanBlock(4, 1))),
        )
        for a in cases:
            n = a.to_dense().shape[0]
            paired, _ = pair_negative_blocks(a)
            b = real_log(paired)
            a_jet = paired.triangular().linear_jet(4, MODE_FLOAT)
            b_jet = b.triangular().linear_jet(4, MODE_FLOAT)
            for r in (2, 3, 4):
                got = operator_L_map_spectrum(paired.triangular().eigen, r)
                want = _assembled_spectrum(a_jet, n, r, field=False)
                _multiset_close(got, want, 1e-8)
                got = operator_L_field_spectrum(b.triangular().eigen, r)
                want = _assembled_spectrum(b_jet, n, r, field=True)
                _multiset_close(got, want, 1e-8)

    _verdict(3, "homological operator spectra vs assembled matrices", body)


def test_04_normal_form_batch():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(41)
        done = 0
        while done < 40:
            n = int(rng.integers(2, 4))
            degree = int(rng.integers(2, 7))
            germ = random_hyperbolic_germ(rng, n, degree)
            try:
                result = distinguished_normal_form(germ)
            except NearResonanceError:
                continue
            assert result.residual <= 1e-9
            res_set = map_resonances(germ.linear.eigen(), degree).map_set()
            for j, m in result.germ.nonlinear.support():
                assert (j, tuple(m)) in res_set
            for j, m in result.transform.support():
                assert (j, tuple(m)) not in res_set
            done += 1
        for _ in range(10):
            n = int(rng.integers(2, 4))
            degree = int(rng.integers(3, 5))
            germ = random_exact_germ(rng, n, degree)
            result = distinguished_normal_form(germ)
            assert result.residual == 0.0
            res_set = map_resonances(germ.linear.eigen(), degree).map_set()
            for j, m in result.germ.nonlinear.support():
                assert (j, tuple(m)) in res_set
            for j, m in result.transform.support():
                assert (j, tuple(m)) not in res_set
        assert time.perf_counter() - t0 < 30.0

    _verdict(4, "normal forms of 50 random hyperbolic germs", body)


def test_05_solve_matrix_unit_lower_triangular():
    def body():
        rng = np.random.default_rng(2718)
        weak_rows_seen = 0
        for i in range(20):
            if i < 10:
                _, B = random_resonant_normal_form(rng, degree=4, nil=True)
                degrees = (2, 3, 4)
            else:
                # exact family with genuine weak rows: a nilpotent cell on
                # lambda^2 next to a paired negative eigenvalue -lambda
                lam = Fraction((2, 3, 5, 7, 2, 3, 5, 7, 4, 9)[i - 10])
                a = BlockMatrix((
                    JordanBlock(lam * lam, 2),
                    NegativePairBlock(-lam, 1),
                ))
                B = real_log(a)
                degrees = (2,)
            assert B.triangular().nil
            for r in degrees:
                M, basis = Tr_matrix(B, r)
                weak = field_resonances(B.triangular().eigen, r).weak_set()
                k = len(basis)
                for row in range(k):
                    key = (basis[row][0], tuple(basis[row][1]))
                    if key in weak:
                        assert not M[row][row]
                        weak_rows_seen += 1
                    else:
                        assert complex(M[row][row]) == 1.0
                    for col in range(row + 1, k):
                        assert not M[row][col]
        assert weak_rows_seen >= 10

    _verdict(5, "solve matrix unit lower triangular, weak diagonal zero", body)


def test_06_flows_reproduce_their_maps():
    def body():
        rng = np.random.default_rng(6281)
        for i in range(20):
            germ, B = random_resonant_normal_form(
                rng, degree=int(rng.integers(3, 5)), nil=(i % 3 == 0)
            )
            X = solve_embedding(germ, B)
            assert isinstance(X, FieldGerm)
            scale = max(1.0, germ.map_jet().to_float().max_abs())
            r_exp, r_ode = time_one_residuals(X, germ)
            assert r_exp <= 1e-9 * scale
            assert r_ode <= 1e-6 * scale
            phi = flow_jet(X)
            s, t = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
            lhs = phi.at_time(s + t)
            rhs = compose(phi.at_time(s), phi.at_time(t), degree=X.degree)
            assert jet_distance(lhs, rhs) <= 1e-9

    _verdict(6, "time-one flows match their maps on 20 normal forms", body)


def test_07_worked_example_embeds_and_sibling_is_blocked():
    def body():
        code, out = _run_cli("embed", "--fixture", "paper-2.3-blocked")
        assert code == 2
        m = parse_machine(out)
        assert m["status"] == "obstruction"
        assert m["blocked_degree"] == "8"
        assert set(m["blocked"].split(";")) == {
            "(1,(0,8,0),-1)",
            "(1,(0,0,8),1)",
        }

        gf = parse_germ(_fixture_text("paper-2.3"))
        spec, paired, _ = gf.to_spec()
        nf = distinguished_normal_form(spec)
        B = real_log(paired)
        X = solve_embedding(nf.germ, B)
        assert isinstance(X, FieldGerm)
        phi1 = flow_jet(X).at_time(1.0)
        lam8 = math.exp(8.0)
        first = {
            tuple(m): complex(v)
            for (j, m), v in phi1.coeffs.items()
            if j == 0
        }
        assert abs(first.pop((1, 0, 0)) - lam8) <= 1e-10 * lam8
        assert abs(first.pop((0, 4, 4)) - 0.7) <= 1e-10
        for leftover in first.values():
            assert abs(leftover) <= 1e-10 * lam8

    _verdict(7, "worked example embeds; blocked sibling exits 2", body)


def test_08_planar_classification():
    def body():
        ln2, ln3 = math.log(2), math.log(3)
        cases = (
            (
                BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1))),
                True,
                "no-negative-eigenvalues",
                [[2 * ln2, 0.0], [0.0, ln2]],
            ),
            (
                BlockMatrix((JordanBlock(-3, 1), JordanBlock(-3, 1))),
                True,
                "equal-negative-diagonalizable",
                [[ln3, math.pi], [-math.pi, ln3]],
            ),
            (
                BlockMatrix((JordanBlock(-2, 2),)),
                False,
                "unpaired-negative-block",
                None,
            ),
            (
                BlockMatrix((JordanBlock(-4, 1), JordanBlock(-2, 1))),
                False,
                "distinct-negative-eigenvalues",
                None,
            ),
            (
                BlockMatrix((JordanBlock(4, 1), JordanBlock(-2, 1))),
                False,
                "unpaired-negative-block",
                None,
            ),
        )
        embeddable = 0
        for a, want_emb, want_reason, want_log in cases:
            v = classify_2d(a)
            assert v.embeddable is want_emb
            assert v.reason == want_reason
            if want_emb:
                embeddable += 1
                got = np.array(v.log.to_dense(), dtype=float)
                assert np.max(np.abs(got - np.array(want_log))) <= 1e-12
                back = expm(got)
                target = np.array(a.to_dense(), dtype=float)
                assert np.max(np.abs(back - target)) <= 1e-10
            else:
                assert v.log is None
        assert embeddable == 2

    _verdict(8, "five planar classes, two with explicit logarithms", body)


def test_09_commutation_identity():
    def body():
        rng = np.random.default_rng(9099)
        done = 0
        while done < 50:
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
            assert appendix_identity_check(B, g).max_abs() == 0.0
            done += 1

        a = BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1)))
        B = real_log(a)
        lams = (4.0, 2.0)
        for (j, m), c in (
            ((0, (0, 3)), 1.0),
            ((1, (2, 0)), -2.5),
            ((0, (1, 2)), 0.8),
        ):
            g = PolyJet.build(2, 3, MODE_FLOAT, [(j, MultiIndex(m), c)])
            out = appendix_identity_check(B, g)
            mult = math.log(lams[0] ** m[0] * lams[1] ** m[1] / lams[j])
            assert complex(out.coeffs[(j, m)]) == pytest.approx(
                c * mult, abs=1e-12
            )

    _verdict(9, "commutation identity exact on resonant fields", body)
