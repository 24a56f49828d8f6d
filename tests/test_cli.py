"""End-to-end command-line runs against the bundled fixtures.

Every test drives ``embedflow.cli.main`` in-process and inspects the
machine tail of the report plus the exit code.
"""

import io
import math
import os
import re
import subprocess
import sys
from importlib import resources

import pytest

import embedflow
from embedflow import parse_machine
from embedflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(out: str) -> dict:
    return parse_machine(out)


def clear_process_tables():
    """Empty every process-wide table of the package: the shared LINEAR
    matrices, with every analysis kept on them, and the caches by size."""
    from embedflow import cli, germfile, graded

    germfile._linear_parts.clear()
    for cached in (
        cli._build_parser, graded._grading, graded.product_bound,
    ):
        cached.cache_clear()


def field_dict(value: str) -> dict:
    """A machine jet ``(j,(m)):c;...`` as {entry: complex c}."""
    out = {}
    for entry in value.split(";"):
        key, val = entry.rsplit(":", 1)
        out[key] = complex(val[:-1] + "j" if val.endswith("i") else val)
    return out


class TestEmbed:
    def test_resonant_2d_exact(self, capsys):
        code, out, _ = run(capsys, "embed", "--fixture", "resonant-2d")
        m = machine(out)
        assert code == 0
        assert m["status"] == "field"
        assert m["field"] == "(1,(0,2)):0.25"
        assert m["residual_exp"] == "0.0"
        assert m["residual_embedding"] == "0.0"
        assert float(m["residual_ode"]) < 1e-6
        assert float(m["residual_ode"]) <= float(m["residual_ode_err"]) < 1e-6
        assert "time_s" in m

    def test_paper_23_coefficient(self, capsys):
        code, out, _ = run(capsys, "embed", "--fixture", "paper-2.3")
        m = machine(out)
        assert code == 0 and m["status"] == "field"
        fields = field_dict(m["field"])
        assert set(fields) == {"(1,(0,4,4))"}
        want = 0.7 * math.exp(-8.0)
        assert abs(fields["(1,(0,4,4))"] - want) < 1e-18
        assert float(m["residual_exp"]) < 1e-9
        assert float(m["residual_ode"]) < 1e-6
        # realified back to x2, x3: binomial spread of 0.7 e^-8 (x2^2+x3^2)^4
        reals = field_dict(m["field_real"])
        assert len(reals) == 5
        assert abs(reals["(1,(0,8,0))"] - want) < 1e-18
        assert abs(reals["(1,(0,4,4))"] - 6 * want) < 1e-17

    @pytest.mark.parametrize("verb", ["embed", "verify"])
    def test_ode_steps_from_the_reachable_rate(self, capsys, verb):
        # paper-2.3's one field term is field-resonant, so every row of the
        # oracle's equations has rate 0 in the frame of B's diagonal, and one
        # step's local error is within the estimate's roundoff floor: it
        # takes 1 step, where the rate 8 of e^(tB) would ask for 184
        code, out, _ = run(capsys, verb, "--fixture", "paper-2.3")
        m = machine(out)
        assert code == 0
        assert int(m["ode_steps"]) == 1
        assert "ODE oracle steps:               1\n" in out
        assert float(m["residual_ode"]) <= float(m["residual_ode_err"])

    def test_paper_23_blocked(self, capsys):
        code, out, _ = run(capsys, "embed", "--fixture", "paper-2.3-blocked")
        m = machine(out)
        assert code == 2
        assert m["status"] == "obstruction"
        assert m["blocked_degree"] == "8"
        assert set(m["blocked"].split(";")) == {
            "(1,(0,8,0),-1)",
            "(1,(0,0,8),1)",
        }
        assert "demand" in out

    def test_paper_f1_blocked(self, capsys):
        code, out, _ = run(capsys, "embed", "--fixture", "paper-F1")
        m = machine(out)
        assert code == 2
        assert set(m["blocked"].split(";")) == {
            "(3,(2,0,0),1)",
            "(3,(0,2,0),-1)",
        }

    def test_paper_astar_blocked(self, capsys):
        # negpair logs carry mu_z = ln|lambda| - i pi, so the weak shifts
        # have the opposite sign to the rotation-exp fixtures
        code, out, _ = run(capsys, "embed", "--fixture", "paper-Astar")
        m = machine(out)
        assert code == 2
        assert set(m["blocked"].split(";")) == {
            "(1,(0,2,0),1)",
            "(1,(0,0,2),-1)",
        }

    def test_degree_override(self, capsys):
        code, out, _ = run(
            capsys, "embed", "--fixture", "resonant-2d", "--degree", "3"
        )
        m = machine(out)
        assert code == 0 and m["status"] == "field"
        assert m["field"] == "(1,(0,2)):0.25"

    def test_branch_on_branchless_germ(self, capsys):
        code, out, _ = run(
            capsys, "embed", "--fixture", "resonant-2d", "--branch", "k=1"
        )
        m = machine(out)
        assert code == 3
        assert m["status"] == "error"
        assert "branch" in m["error"]

    def test_mode_mismatch(self, capsys):
        code, out, err = run(
            capsys, "embed", "--fixture", "paper-2.3", "--mode", "exact"
        )
        assert code == 3
        assert "mode is fixed by the germ file" in err

    def test_stdin(self, capsys, monkeypatch):
        text = (
            "HEADER\ndimension 2\ndegree 4\nmode exact\nLINEAR\n"
            "jordan 4 1\njordan 2 1\nNONLINEAR\n1 0 2 1\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "embed", "-")
        m = machine(out)
        assert code == 0
        assert m["field"] == "(1,(0,2)):0.25"


class TestAnalyze:
    def test_astar_resonances(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "paper-Astar")
        m = machine(out)
        assert code == 0 and m["status"] == "ok"
        assert set(m["map_resonant"].split(";")) == {
            "(1,(0,1,1))",
            "(1,(0,2,0))",
            "(1,(0,0,2))",
        }
        assert m["field_resonant"] == "(1,(0,1,1))"
        assert set(m["weak"].split(";")) == {
            "(1,(0,2,0),1)",
            "(1,(0,0,2),-1)",
        }
        assert m["weakly_nonresonant_branch"] == "none"
        assert m["branch_bound"] == "3"
        assert "no weakly nonresonant branch with |k|,|l| <= 3" in out
        assert m["real_log"] == "yes"

    def test_principal_log_scanned_once(self, capsys, monkeypatch):
        # on the principal branch the printed resonances and the branch
        # search read one scan
        from embedflow import resonance

        calls = []
        classify = resonance._classify

        def counted(*args):
            calls.append(args)
            return classify(*args)

        monkeypatch.setattr(resonance, "_classify", counted)
        clear_process_tables()  # paper-Astar's scans are kept from earlier tests
        code, out, _ = run(capsys, "analyze", "--fixture", "paper-Astar")
        assert code == 0
        assert machine(out)["weakly_nonresonant_branch"] == "none"
        assert len(calls) == 1

    def test_resonant_2d(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "resonant-2d")
        m = machine(out)
        assert code == 0
        assert m["field_resonant"] == "(1,(0,2))"
        assert m["weak"] == ""

    def test_branch_search_uses_tol(self, capsys, monkeypatch):
        """The second pair is (-7, -24) relative 1e-7 off, so its squares are
        weak only up to --tol 1e-6; the search must use that tolerance too."""
        text = (
            "HEADER\ndimension 4\ndegree 2\nmode float\nLINEAR\n"
            "rotation -3 4 1\nrotation -7.0000007 -24.0000024 1\nNONLINEAR\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "analyze", "-", "--tol", "1e-6")
        m = machine(out)
        assert code == 0
        assert m["weak"] == "(3,(2,0,0,0),1);(4,(0,2,0,0),-1)"
        assert m["weakly_nonresonant_branch"] == "0:1"

    def test_no_real_log(self, capsys, monkeypatch):
        text = (
            "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
            "jordan -2 1\njordan -4 1\nNONLINEAR\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "analyze", "-")
        m = machine(out)
        assert code == 3
        assert m["status"] == "no-real-log"
        assert m["real_log"] == "no"

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_non_adjacent_negative_pairs(self, capsys, monkeypatch, mode):
        """-2 pairs with the last block and -3 with the middle two, so a real
        logarithm exists; analyze, embed and verify must all use it."""
        text = (
            f"HEADER\ndimension 4\ndegree 3\nmode {mode}\nLINEAR\n"
            "jordan -2 1\njordan -3 1\njordan -3 1\njordan -2 1\nNONLINEAR\n"
            "1 0 2 0 0 1\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "analyze", "-")
        m = machine(out)
        assert code == 0
        assert m["real_log"] == "yes" and m["status"] == "ok"
        assert "coordinate order (0, 3, 1, 2)" in out
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "embed", "-")
        m = machine(out)
        assert code == 0
        assert m["real_log"] == "yes" and m["status"] == "field"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "verify", "-")
        m = machine(out)
        assert code == 0
        assert m["status"] == "field" and m["verified"] == "yes"


class TestModuleEntry:
    def test_python_m_embedflow(self):
        """``python -m embedflow`` runs the same CLI as the installed script."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(embedflow.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "embedflow", "analyze", "--fixture", "paper-F1"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert machine(proc.stdout)["status"] == "ok"


# diag(e^2) + a rotation cell of log 1/2 + i*pi/2, with the field-resonant
# |z|^4 e1: test_embedding's test_weak_term_gives_second_embedding germ
WEAK_GERM = (
    "HEADER\ndimension 3\ndegree 4\nmode float\nLINEAR\n"
    "jordan-exp 2 1\nrotation-exp 1/2 1/2 1\nNONLINEAR\n"
    "1 0 4 0 1\n1 0 2 2 2\n1 0 0 4 1\n"
)


# a near-resonant float spectrum on which the solve meets a stray demand
STRAY_GERM = (
    "HEADER\ndimension 6\ndegree 3\nmode float\nLINEAR\n"
    "rotation 1.910672978251212 -0.5910404133226791 1\n"
    "rotation 3.3013424576579076 -2.2585698922249993 1\n"
    "rotation 5.797724061190874 -14.912625348632895 1\n"
    "NONLINEAR\n3 2 0 0 0 0 0 1\n3 0 2 0 0 0 0 -1\n4 1 1 0 0 0 0 2\n"
    "5 0 0 2 0 0 0 1\n5 0 0 0 2 0 0 -1\n6 0 0 1 1 0 0 2\n"
)


def _verify_weak_field(capsys, monkeypatch, steps):
    """``verify`` on WEAK_GERM, with the solve's field plus the weak term
    0.35 z^4 e1: a second embedding, whose oracle row z^4 e1 moves at
    2*pi in the frame of B's diagonal.  FieldGerm refuses the weak term, so
    the field is a test-side WeakField and the verdict reads its time-one
    map off the reference flow.  ``steps`` forces the oracle's fixed
    count ODE_STEPS; None keeps it.  Returns the exit code and the machine
    tail."""
    import _expflow
    from embedflow import oracle, pipeline, verdict
    from embedflow.jets import MultiIndex, PolyJet

    solve = pipeline.solve_embedding

    def with_weak_term(G, B, tol):
        X = solve(G, B, tol=tol)
        terms = [(j, m, c) for (j, m), c in X.nonlinear.coeffs.items()]
        terms.append((0, MultiIndex((0, 4, 0)), 0.35))
        return _expflow.WeakField(B, PolyJet.build(3, 4, X.mode, terms), 4, tol)

    monkeypatch.setattr(pipeline, "solve_embedding", with_weak_term)
    monkeypatch.setattr(verdict, "flow_jet", _expflow.flow_jet)
    if steps is not None:
        monkeypatch.setattr(oracle, "ODE_STEPS", steps)
    monkeypatch.setattr(sys, "stdin", io.StringIO(WEAK_GERM))
    code, out, _ = run(capsys, "verify", "-")
    m = machine(out)
    assert m["field"] == "(1,(0,2,2)):0.1353352832366127;(1,(0,4,0)):0.35"
    return code, m


class TestVerify:
    def test_paper_23_verifies(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "paper-2.3")
        m = machine(out)
        assert code == 0
        assert m["verified"] == "yes"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_log_series_ends_at_its_round_cap(self, capsys, monkeypatch):
        # lambda = (2, 1/2) keeps x1^2 x2 e1 resonant with its 1e200, so the
        # log series meets inf and nan, D o U - D stops cancelling, and only
        # the cap N(2s - 1) - s = 4 ends the solve; the non-finite field is
        # then refused (exit 3) before any verdict reads it
        from embedflow import embedding

        rounds, composer = [], embedding._composer

        def counted(U, N):
            compose = composer(U, N)

            def one_round(D):
                rounds.append(D)
                assert len(rounds) <= 100, "the log series did not end"
                return compose(D)

            return one_round

        monkeypatch.setattr(embedding, "_composer", counted)
        germ = (
            "HEADER\ndimension 2\ndegree 5\nmode float\nLINEAR\njordan 2 1\n"
            "jordan 0.5 1\nNONLINEAR\n1 2 1 1e200\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(germ))
        code, out, _ = run(capsys, "verify", "-")
        m = machine(out)
        assert code == 3 and m["status"] == "error" and "verified" not in m
        assert m["error"] == "the embedding field has a non-finite coefficient at (1,(3,2))"
        assert len(rounds) == 4

    def test_ode_estimate_within_a_tenth_of_the_bound(self, capsys):
        from embedflow.tolerances import ODE_BOUND, ODE_ERR_SHARE

        code, out, _ = run(capsys, "verify", "--fixture", "paper-2.3")
        m = machine(out)
        assert code == 0 and m["verified"] == "yes"
        scale = math.exp(8.0)  # the largest coefficient of the map jet
        assert float(m["residual_ode_err"]) <= ODE_ERR_SHARE * ODE_BOUND * scale
        assert "ODE oracle error estimate:" in out

    def test_one_step_oracle_fails_verification(self, capsys, monkeypatch):
        # on the weak field the oracle's one step spans a whole turn of
        # e^(2*pi*i*t), and its time-one map misses by 0.1 against a bound
        # of 7.4e-6
        code, m = _verify_weak_field(capsys, monkeypatch, steps=1)
        assert float(m["residual_ode"]) > 7.4e-6
        assert code == 3 and m["verified"] == "no"

    def test_estimate_gate_alone_fails_verification(self, capsys, monkeypatch):
        # at 8 steps the weak field's ODE residual (4e-16) is inside its
        # bound 7.4e-6, but the estimate (1.1e-5) is above a tenth of it
        code, m = _verify_weak_field(capsys, monkeypatch, steps=8)
        assert float(m["residual_ode"]) <= 7.4e-6 < 10 * float(m["residual_ode_err"])
        assert code == 3 and m["verified"] == "no"

    def test_weak_field_verifies_at_its_own_rate(self, capsys, monkeypatch):
        # one step misses the weak row, which moves at 2*pi, so the oracle
        # reruns at ODE_STEPS and its estimate passes the gate
        code, m = _verify_weak_field(capsys, monkeypatch, steps=None)
        assert int(m["ode_steps"]) == 23
        assert float(m["residual_ode"]) <= float(m["residual_ode_err"])
        assert code == 0 and m["verified"] == "yes"

    def test_blocked_fixture_exits_2(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "paper-2.3-blocked")
        assert code == 2
        assert machine(out)["status"] == "obstruction"

    def test_field_checked_at_germ_tol(self, capsys, monkeypatch):
        """z zbar in the first component is field resonant only within the
        germ's tol 1e-6 (|lambda_z|^2 = 1 + 2.0000001^2 misses lambda_1 = 5
        by 4e-7); the field and its flow must use that tolerance, not the
        default."""
        text = (
            "HEADER\ndimension 3\ndegree 2\nmode float\nLINEAR\n"
            "jordan 5 1\nrotation 1 2.0000001 1\nNONLINEAR\n1 0 2 0 1\n"
            "OPTIONS\ntol 1e-6\n"
        )
        for verb in ("embed", "verify"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code, out, _ = run(capsys, verb, "-")
            m = machine(out)
            assert code == 0, out
            assert m["status"] == "field"
            assert set(field_dict(m["field"])) == {"(1,(0,1,1))"}
        assert m["verified"] == "yes"
        assert float(m["residual_exp"]) < 1e-12

    def test_stray_nonresonant_demand_is_refused(self, capsys, monkeypatch):
        """lambda2 = lambda1^2 e^-d and lambda3 = lambda2^2 e^-d with
        d = 6e-10 < tol: the normal form keeps both squares, but lambda3
        misses lambda1^2 lambda2 by 2d, so log U meets z1^2 z2 in the
        fifth coordinate (and its conjugate in the sixth), neither field
        resonant nor weak.  embed and verify refuse the germ, naming those
        monomials, with exit 3 and no traceback."""
        for verb in ("embed", "verify"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(STRAY_GERM))
            code, out, err = run(capsys, verb, "-")
            m = machine(out)
            assert (code, m["status"], err) == (3, "error", ""), out
            assert "[(5,(2,0,1,0,0,0)), (6,(0,2,0,1,0,0))]" in m["error"]


# each residual of the verdict and the bound that gates it
GATES = {
    "residual_exp": "bound_exp",
    "residual_ode": "bound_ode",
    "residual_ode_err": "bound_err",
    "residual_embedding": "bound_exp",
}


def _certify_paper_23(capsys, monkeypatch):
    """``(G, X, tol, verdict)`` of the one ``certify`` call that ``verify``
    makes on paper-2.3."""
    from embedflow import pipeline, verdict

    calls = []

    def record(G, X, tol):
        calls.append((G, X, tol, verdict.certify(G, X, tol)))
        return calls[-1][-1]

    monkeypatch.setattr(pipeline, "certify", record)
    run(capsys, "verify", "--fixture", "paper-2.3")
    monkeypatch.undo()
    (call,) = calls
    return call


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
@pytest.mark.parametrize("residual", list(GATES))
def test_each_residual_alone_gates_the_verdict(capsys, monkeypatch, residual, above):
    """paper-2.3 passes with every residual far inside its bound.  Raising
    one residual alone to its bound keeps the verdict (the rule is <=); one
    ulp above it fails the verdict and ``verify`` exits 3."""
    from embedflow import verdict
    from embedflow.jets import MODE_FLOAT, MultiIndex, PolyJet

    G, X, tol, base = _certify_paper_23(capsys, monkeypatch)
    assert base.ok
    bound = getattr(base, GATES[residual])
    value = math.nextafter(bound, math.inf) if above else bound
    if residual == "residual_embedding":
        jet = PolyJet.build(X.dim, X.degree, MODE_FLOAT, [(0, MultiIndex((2, 0, 0)), value)])
        monkeypatch.setattr(verdict, "embedding_residual", lambda G, X: jet)
    else:
        index = ("residual_exp", "residual_ode", "residual_ode_err").index(residual)
        time_one_steps = verdict.time_one_steps

        def raised(X, G):
            out = list(time_one_steps(X, G))
            out[index] = value
            return tuple(out)

        monkeypatch.setattr(verdict, "time_one_steps", raised)
    got = verdict.certify(G, X, tol)
    assert getattr(got, residual) == value
    assert got.ok is not above
    code, out, _ = run(capsys, "verify", "--fixture", "paper-2.3")
    m = machine(out)
    assert m[residual] == repr(value)
    assert (code, m["verified"]) == ((3, "no") if above else (0, "yes"))


class TestNormalForm:
    def test_resonant_2d(self, capsys):
        code, out, _ = run(capsys, "normal-form", "--fixture", "resonant-2d")
        m = machine(out)
        assert code == 0 and m["status"] == "ok"
        assert m["normal_form"] == "(1,(0,2)):1.0"
        assert m["residual_conjugacy"] == "0.0"
        # x1 x2 is nonresonant for (4, 2); it moves into the transform
        assert "(1,(1,1)):" in m["transform"]

    def test_linear_germ_solves_nothing(self, capsys, monkeypatch):
        text = (
            "HEADER\ndimension 2\ndegree 3\nmode exact\nLINEAR\n"
            "jordan 4 1\njordan 2 1\nNONLINEAR\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "normal-form", "-")
        m = machine(out)
        assert code == 0 and m["status"] == "ok"
        assert "min divisor none" in out

    def test_exact_eigenvalues_refuse_small_divisor(self, capsys, monkeypatch):
        """2 and 4.0000004 are exact, so x1^2 is decided nonresonant whatever
        the tol; tol 1e-6 then only sets the divisor floor, and the divisor
        4e-7 is below it."""
        text = (
            "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
            "jordan 2 1\njordan 4.0000004 1\nNONLINEAR\n2 2 0 1\n"
            "OPTIONS\ntol 1e-6\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "normal-form", "-")
        m = machine(out)
        assert code == 3 and m["status"] == "error"
        assert "near-resonant divisor" in m["error"]
        assert m["error"].endswith(" at (2,(2,0))")  # 1-based, as the report


class TestOneResonanceRule:
    """x2^2 + x3^2 in the first component over lambda = (1/5, 0.2 +- 0.4i):
    |lambda_z|^2 misses 1/5 by 5e-10, which is 2.5e-9 in the logs.  At the
    default tol 1e-9 every verb calls the pair nonresonant, so its divisor
    is refused; at tol 1e-8 every verb calls it field resonant."""

    TEXT = (
        "HEADER\ndimension 3\ndegree 2\nmode float\nLINEAR\n"
        "jordan 1/5 1\nrotation 0.2 0.40000000062499996 1\nNONLINEAR\n"
        "1 0 2 0 1\n1 0 0 2 1\n"
    )

    def _run(self, capsys, monkeypatch, verb, *flags):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.TEXT))
        code, out, _ = run(capsys, verb, "-", *flags)
        return code, out, machine(out)

    def test_analyze_map_is_field_plus_weak(self, capsys, monkeypatch):
        code, out, m = self._run(capsys, monkeypatch, "analyze")
        assert code == 0
        assert m["map_resonant"] == m["field_resonant"] == m["weak"] == ""
        assert "near-resonances (within 100*tol): 1" in out

    @pytest.mark.parametrize("verb", ["normal-form", "embed"])
    def test_divisor_refused(self, capsys, monkeypatch, verb):
        code, out, m = self._run(capsys, monkeypatch, verb)
        assert code == 3 and m["status"] == "error"
        assert "near-resonant divisor" in m["error"]
        assert "not in distinguished normal form" not in out

    def test_verifies_at_looser_tol(self, capsys, monkeypatch):
        code, out, m = self._run(capsys, monkeypatch, "verify", "--tol", "1e-8")
        assert code == 0, out
        assert m["verified"] == "yes"


class TestClassify2d:
    def test_equal_negative_pair(self, capsys, monkeypatch):
        text = (
            "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
            "negpair -3 1\nNONLINEAR\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "classify2d", "-")
        m = machine(out)
        assert code == 0
        assert m["embeddable"] == "yes"
        assert m["reason"] == "equal-negative-diagonalizable"
        rows = [
            [float(v) for v in row.split(",")] for row in m["log"].split(";")
        ]
        assert rows[0][0] == pytest.approx(math.log(3), abs=1e-15)
        assert rows[0][1] == pytest.approx(math.pi, abs=1e-15)
        assert rows[1][0] == pytest.approx(-math.pi, abs=1e-15)

    def test_distinct_negative(self, capsys, monkeypatch):
        text = (
            "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
            "jordan -2 1\njordan -4 1\nNONLINEAR\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "classify2d", "-")
        m = machine(out)
        assert code == 2
        assert m["embeddable"] == "no"
        assert m["reason"] == "distinct-negative-eigenvalues"
        assert "log" not in m


# one linear part per planar class: (LINEAR lines, classify2d exit code)
PLANAR_CLASSES = {
    "positive-cells": (["jordan 3 1", "jordan 1/2 1"], 0),
    "positive-chain": (["jordan 3 2"], 0),
    "rotation": (["rotation 1 2 1"], 0),
    "rotation-small": (["rotation 1/3 1/4 1"], 0),
    "rotation-eighth": (["rotation 2 2 1"], 0),
    "rotation-exp": (["rotation-exp 1/2 1/3 1"], 0),
    "negpair": (["negpair -2 1"], 0),
    "equal-negative": (["jordan -3 1", "jordan -3 1"], 0),
    "negative-chain": (["jordan -3 2"], 2),
    "negative-beside-positive": (["jordan -3 1", "jordan 2 1"], 2),
    "distinct-negative": (["jordan -3 1", "jordan -2 1"], 2),
}

def _planar_cases():
    for name, (lines, want) in PLANAR_CLASSES.items():
        for mode in ("exact", "float"):
            for seed in range(2):
                yield pytest.param(lines, want, mode, seed, id=f"{name}-{mode}-{seed}")


def _planar_germ(lines, mode, seed) -> str:
    """A planar germ at N = 4 on the LINEAR ``lines``, with each quadratic
    and cubic monomial of each component kept with probability 1/2 and a
    small rational coefficient."""
    import random

    rng = random.Random(f"planar-{seed}")
    terms = [
        f"{j} {a} {r - a} {rng.choice([-3, -1, 1, 2])}/{rng.choice([2, 3, 5, 7])}"
        for r in (2, 3)
        for a in range(r + 1)
        for j in (1, 2)
        if rng.random() < 0.5
    ]
    return "\n".join(
        ["HEADER", "dimension 2", "degree 4", f"mode {mode}", "LINEAR", *lines, "NONLINEAR", *terms]
    ) + "\n"


class TestThirdTheorem:
    """A planar hyperbolic germ embeds exactly when its linear part has a
    real logarithm: the classify2d verdict, which reads the linear part
    only, must agree with what verify finds for the whole germ."""

    @pytest.mark.parametrize("lines, want, mode, seed", _planar_cases())
    def test_classify2d_agrees_with_verify(self, capsys, monkeypatch, lines, want, mode, seed):
        text = _planar_germ(lines, mode, seed)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "classify2d", "-")
        assert code == want, out
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "verify", "-")
        m = machine(out)
        if mode == "exact" and lines[0].startswith("rotation-exp"):
            # exact mode refuses the -exp blocks, which classify2d never builds
            assert code == 3 and "use float mode" in m["error"], out
        elif want == 0:
            assert (code, m.get("verified")) == (0, "yes"), out
        else:
            assert code == 3 and "no real logarithm" in m["error"], out


class TestErrors:
    def test_missing_fixture(self, capsys):
        code, out, err = run(capsys, "embed", "--fixture", "nope")
        assert code == 4
        assert "no fixture named" in err
        assert out == ""

    def test_parse_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("garbage here\n"))
        code, out, err = run(capsys, "embed", "-")
        assert code == 4
        assert "parse error" in err

    def test_no_input(self, capsys):
        code, out, err = run(capsys, "embed")
        assert code == 4
        assert "no input" in err

    def test_nonhyperbolic(self, capsys, monkeypatch):
        text = (
            "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
            "jordan 1 2\nNONLINEAR\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "embed", "-")
        m = machine(out)
        assert code == 3
        assert "hyperbolic" in m["error"]


class TestDegreeFlag:
    """--degree is refused below 2, as a germ file's degree is, by every
    verb and before it runs."""

    @pytest.mark.parametrize("value", ["1", "0", "-3"])
    @pytest.mark.parametrize("verb", ["analyze", "normal-form", "embed", "verify", "classify2d"])
    def test_below_two_refused(self, capsys, monkeypatch, verb, value):
        text = (
            "HEADER\ndimension 2\ndegree 3\nmode float\nLINEAR\n"
            "jordan 2 1\njordan 3 1\nNONLINEAR\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, verb, "-", "--degree", value)
        assert code == 4 and out == ""
        assert err == f"error: --degree must be at least 2, got {value}\n"


class TestTolerance:
    """A tolerance must be a finite positive number: every bound of the
    verdict is tol times a scale, and every float resonance test reads it."""

    @pytest.mark.parametrize("value, shown", [
        ("inf", "inf"), ("-inf", "-inf"), ("nan", "nan"), ("-1", "-1.0"), ("0", "0.0"),
    ])
    def test_flag_refused(self, capsys, value, shown):
        code, out, err = run(capsys, "verify", "--fixture", "paper-2.3", f"--tol={value}")
        assert code == 4 and out == ""
        assert err == f"error: --tol must be a finite positive number, got {shown}\n"

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_germ_file_option_refused(self, capsys, monkeypatch, value):
        text = (resources.files("embedflow") / "fixtures" / "paper-2.3.germ").read_text()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text + f"OPTIONS\ntol {value}\n"))
        code, out, err = run(capsys, "verify", "-")
        assert code == 4 and out == ""
        assert err.startswith("parse error: line ")
        assert f"tol must be positive, got {value!r}" in err

    def test_small_tolerance_still_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "paper-2.3", "--tol", "1e-6")
        assert code == 0 and machine(out)["verified"] == "yes"

    def test_file_tol_reaches_the_hyperbolicity_refusal(self, capsys, monkeypatch):
        # |lambda| = 1.00018 lies within tol 1e-3 of the unit circle, and the
        # tol that decides the resonances decides hyperbolicity too: every
        # verb refuses the germ, whether the file or --tol sets that tol
        from embedflow import parse_germ
        from embedflow.spectral import is_hyperbolic

        text = (
            "HEADER\ndimension 2\ndegree 3\nmode float\nLINEAR\nrotation 0.6003 0.8 1\n"
            "NONLINEAR\n1 2 0 1/3\n2 1 1 -1/2\n"
        )
        blocks = parse_germ(text).blocks
        assert is_hyperbolic(blocks) and not is_hyperbolic(blocks, 1e-3)
        for verb in ("analyze", "normal-form", "embed", "verify", "classify2d"):
            for germ, flags in ((text + "OPTIONS\ntol 1e-3\n", ()), (text, ("--tol", "1e-3"))):
                monkeypatch.setattr(sys, "stdin", io.StringIO(germ))
                code, out, _ = run(capsys, verb, "-", *flags)
                assert (code, machine(out)["error"]) == (3, "linear part must be hyperbolic"), verb


def _fixture_with(name: str, old: str, new: str) -> str:
    """A bundled fixture's text with the line ``old`` replaced by ``new``."""
    text = (resources.files("embedflow") / "fixtures" / f"{name}.germ").read_text()
    assert f"\n{old}\n" in text
    return text.replace(f"\n{old}\n", f"\n{new}\n")


class TestFloatRange:
    """Inputs beyond the float range end in a documented exit code."""

    @pytest.mark.parametrize("verb", ["analyze", "verify"])
    @pytest.mark.parametrize(
        "old, new",
        [
            ("jordan-exp 8 1", "jordan-exp 1000 1"),  # e^u overflows
            ("jordan-exp 8 1", "jordan-exp -1000 1"),  # e^u underflows to 0
            ("rotation-exp 1 1/4 1", "rotation-exp 1e308 1/4 1"),
            ("rotation-exp 1 1/4 1", "rotation-exp -1000 1/4 1"),
        ],
    )
    def test_exp_blocks_refused_at_their_line(self, capsys, monkeypatch, verb, old, new):
        monkeypatch.setattr(sys, "stdin", io.StringIO(_fixture_with("paper-2.3", old, new)))
        code, out, err = run(capsys, verb, "-")
        assert code == 4 and out == ""
        assert "e^u is not a finite nonzero float" in err
        assert repr(new) in err and "line " in err

    @pytest.mark.parametrize("verb", ["analyze", "verify"])
    def test_huge_exact_eigenvalue(self, capsys, monkeypatch, verb):
        # lambda_1 = 1e308 is exact; analyze reads it, but the embedding
        # residual would reach lambda * ln lambda = 7e310, past the float
        # range, so verify refuses it before the work
        text = _fixture_with("resonant-2d", "jordan 4 1", "jordan 1e308 1")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, verb, "-")
        m = machine(out)
        if verb == "analyze":
            assert code == 0 and m["status"] == "ok"
        else:
            assert code == 3 and m["status"] == "error"
            assert "MAX_FIELD_SCALE" in m["error"]
            assert "residual_embedding" not in m

    @pytest.mark.parametrize("verb", ["normal-form", "verify"])
    def test_float_eigenvalue_power_overflow_refused(self, capsys, monkeypatch, verb):
        text = (
            "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
            "jordan 4 1\njordan 1e308 1\nNONLINEAR\n1 0 2 1\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, verb, "-")
        m = machine(out)
        assert code == 3 and m["status"] == "error"
        assert "outside the float range" in m["error"]

    @pytest.mark.parametrize("token", ["1e400", "1e-400"])
    def test_numbers_outside_the_float_range_refused(self, capsys, monkeypatch, token):
        text = _fixture_with("resonant-2d", "1 1 1 1", f"1 1 1 {token}")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "analyze", "-")
        assert code == 4 and out == ""
        assert f"'{token}' is outside the float range" in err

    def test_exact_coefficients_beyond_the_float_range_print(self, capsys, monkeypatch):
        text = _fixture_with("resonant-2d", "1 1 1 1", "1 1 1 -1e308")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "normal-form", "-")
        assert code == 0
        assert "(1,(0,4)):-inf" in machine(out)["transform"]


class TestArgumentOrder:
    def test_flag_before_or_after_the_file(self, capsys):
        path = str(resources.files("embedflow") / "fixtures" / "paper-2.3.germ")
        outs = []
        for argv in (
            ["verify", "--branch", "l=-1", path],
            ["verify", path, "--branch", "l=-1"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            m = machine(out)
            assert m["branch"] == "0:-1" and m["verified"] == "yes"
            outs.append(re.sub(r"time_s=.*", "", out))
        assert outs[0] == outs[1]


class TestRefusals:
    """analyze reads only the pairing of the germ, yet refuses a germ for
    the reasons, and with the messages, of the verbs that complexify its
    jet."""

    NONHYPERBOLIC = (  # test_nonhyperbolic's germ
        "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
        "jordan 1 2\nNONLINEAR\n"
    )
    IMAGINARY = (
        "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
        "jordan 2 1\njordan 4 1\nNONLINEAR\n1 0 2 1 0.5\n"
    )
    RESONANT_2D = (
        "HEADER\ndimension 2\ndegree 3\nmode exact\nLINEAR\n"
        "jordan 2 1\njordan 4 1\nNONLINEAR\n2 2 0 1\n2 3 0 1\n"
    )

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            (NONHYPERBOLIC, (), "linear part must be hyperbolic"),
            (IMAGINARY, (), "complexify expects a real-coefficient jet"),
            (RESONANT_2D, ("--degree", "2"), "term of degree 3 exceeds truncation 2"),
        ],
    )
    @pytest.mark.parametrize("verb", ["analyze", "normal-form", "embed"])
    def test_same_refusal(self, capsys, monkeypatch, verb, text, flags, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, verb, "-", *flags)
        m = machine(out)
        assert code == 3
        assert m["status"] == "error" and m["error"] == message


class TestJetSizeLimit:
    """A germ whose header asks for more than MAX_JET_SIZE jet coefficients
    is refused before any exponent table or normal form is built."""

    @staticmethod
    def _germ(dim, degree):
        # a header-only germ: one Jordan block and no terms
        return f"HEADER\ndimension {dim}\ndegree {degree}\nmode float\nLINEAR\njordan 2 {dim}\n"

    @staticmethod
    def _forbid_the_work(monkeypatch):
        from embedflow import normal_form, resonance

        def started(*args):
            raise AssertionError("the work started")

        monkeypatch.setattr(resonance, "_grading", started)
        monkeypatch.setattr(normal_form, "_grading", started)

    @pytest.mark.parametrize("dim, degree, flags", [(8, 12, ()), (8, 2, ("--degree", "12"))])
    @pytest.mark.parametrize("verb", ["analyze", "normal-form", "embed", "verify"])
    def test_refused_before_the_work(self, capsys, monkeypatch, verb, dim, degree, flags):
        # 8 * C(20, 8) = 1,007,760 coefficients
        self._forbid_the_work(monkeypatch)
        monkeypatch.setattr(sys, "stdin", io.StringIO(self._germ(dim, degree)))
        code, out, _ = run(capsys, verb, "-", *flags)
        m = machine(out)
        assert code == 3 and m["status"] == "error"
        assert m["error"] == (
            "dimension 8 at degree 12 asks for n*C(N+n, n) = 1007760 jet "
            "coefficients, above MAX_JET_SIZE = 100000"
        )

    def test_admitted_shape_runs(self, capsys, monkeypatch):
        # 6 * C(16, 6) = 48,048 coefficients
        monkeypatch.setattr(sys, "stdin", io.StringIO(self._germ(6, 10)))
        code, out, _ = run(capsys, "analyze", "-")
        assert code == 0 and machine(out)["status"] == "ok"


FIXTURES = ("paper-2.3", "paper-2.3-blocked", "paper-Astar", "paper-F1", "resonant-2d")


class TestProductLimit:
    """normal-form, embed and verify refuse a germ whose normal form may
    form more than MAX_PRODUCTS coefficient products, before any exponent
    table or product list is built; the verbs that compose nothing do not."""

    @staticmethod
    def _germ(dim, degree, mode="float"):
        blocks = "".join(f"jordan {p} 1\n" for p in (2, 3, 5, 7, 11, 13)[:dim])
        first = " ".join(["2"] + ["0"] * (dim - 1))
        return (
            f"HEADER\ndimension {dim}\ndegree {degree}\nmode {mode}\nLINEAR\n{blocks}"
            f"NONLINEAR\n2 {first} 1\n"
        )

    @staticmethod
    def _forbid_the_work(monkeypatch):
        from embedflow import normal_form, resonance

        def started(*args):
            raise AssertionError("the work started")

        for module in (resonance, normal_form):
            monkeypatch.setattr(module, "_grading", started)

    @pytest.mark.parametrize("verb", ["normal-form", "embed", "verify"])
    def test_planar_degree_120_refused_at_once(self, capsys, monkeypatch, verb):
        # 2 * C(122, 2) = 14,762 coefficients pass MAX_JET_SIZE; the normal
        # form would form up to 9.28e10 products
        import time

        self._forbid_the_work(monkeypatch)
        monkeypatch.setattr(sys, "stdin", io.StringIO(self._germ(2, 120)))
        start = time.perf_counter()
        code, out, _ = run(capsys, verb, "-")
        assert time.perf_counter() - start < 1.0
        m = machine(out)
        assert code == 3 and m["status"] == "error"
        assert m["error"] == (
            "dimension 2 at degree 120 lets the normal form form up to 9.28e+10 "
            "coefficient products, above MAX_PRODUCTS = 1e+09"
        )

    @pytest.mark.parametrize("verb, want", [("analyze", 0), ("classify2d", 0)])
    def test_verbs_that_compose_nothing_take_it(self, capsys, monkeypatch, verb, want):
        from embedflow import graded

        def builder(*args):
            raise AssertionError("a product list was built")

        for method in ("_pairs", "products", "lowest"):  # no product list either
            monkeypatch.setattr(graded._Grading, method, builder)
        graded._grading.cache_clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(self._germ(2, 120)))
        code, out, _ = run(capsys, verb, "-")
        assert code == want and machine(out)["status"] == "ok"

    def test_fixtures_workloads_and_the_baseline_sizes_are_admitted(self, monkeypatch):
        import importlib.util
        from pathlib import Path

        from embedflow import parse_germ
        from embedflow.graded import product_bound
        from embedflow.tolerances import MAX_PRODUCTS

        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("_bench_gen", root / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look it up
        spec.loader.exec_module(gen)
        texts = [(resources.files("embedflow") / "fixtures" / f"{name}.germ").read_text()
                 for name in FIXTURES]
        for workload in gen.WORKLOADS:
            stream = gen.cases(workload, 1)
            texts += [case.text for case in (next(stream) for _ in range(gen.cycle_length(workload)))
                      if case.text is not None]
        sizes = {(gf.dim, gf.degree) for gf in map(parse_germ, texts)}
        sizes |= {(2, 40), (6, 8), (3, 20)}  # the largest high-degree germs measured
        assert max(product_bound(n, N) for n, N in sizes) <= MAX_PRODUCTS

    @pytest.mark.parametrize("verb", ["normal-form", "verify"])
    def test_admitted_germ_runs(self, capsys, monkeypatch, verb):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self._germ(2, 12)))
        code, out, _ = run(capsys, verb, "-")
        assert code == 0 and machine(out)["status"] in ("ok", "field")


VERBS = ("analyze", "normal-form", "embed", "verify", "classify2d")


def _germ_text(dim, degree, mode, lines, terms=()) -> str:
    return "\n".join(
        ["HEADER", f"dimension {dim}", f"degree {degree}", f"mode {mode}", "LINEAR", *lines,
         "NONLINEAR", *terms]
    ) + "\n"


class TestAdmission:
    """One table says what each verb needs of a germ: a germ that fails a
    need is refused, exit 3 with that need's message, by every verb that
    needs it, and every other verb runs it to its usual exit code."""

    NEEDS = {
        "analyze": {"size", "real", "hyperbolic"},
        "normal-form": {"size", "work", "real", "hyperbolic", "exact"},
        "embed": {"size", "work", "real", "hyperbolic", "exact", "scale", "finite"},
        "verify": {"size", "work", "real", "hyperbolic", "exact", "scale", "finite"},
        "classify2d": {"planar", "real", "hyperbolic"},
    }
    PLANAR_TERMS = ("1 2 0 1/3", "2 1 1 -1/2", "1 0 3 1/5")
    HYPERBOLIC = "linear part must be hyperbolic"
    EXACT = "exact mode needs Gaussian-rational linear entries; use float mode"
    PLANAR = "classify_2d expects order 2"
    # name, germ text or fixture name, {need it fails: message}, and the
    # exit codes of the verbs (in VERBS order) that do not need it
    GERMS = [
        ("1e200", _germ_text(2, 5, "float", ["jordan 2 1", "jordan 0.5 1"], ["1 2 1 1e200"]),
         {"finite": "the embedding field has a non-finite coefficient at (1,(3,2))"},
         (0, 0, None, None, 0)),
        ("rotation-exp", _germ_text(2, 4, "exact", ["rotation-exp 1/2 1/3 1"], PLANAR_TERMS),
         {"exact": EXACT}, (0, None, None, None, 0)),
        ("jordan-exp", _germ_text(2, 4, "exact", ["jordan-exp 1/2 1", "jordan 3 1"], PLANAR_TERMS),
         {"exact": EXACT}, (0, None, None, None, 0)),
        ("tol-1e-3", _germ_text(2, 3, "float", ["rotation 0.6003 0.8 1"], PLANAR_TERMS[:2]
                                + ("OPTIONS", "tol 1e-3")),
         {"hyperbolic": HYPERBOLIC}, ()),
        ("imaginary", _germ_text(2, 2, "float", ["jordan 2 1", "jordan 4 1"], ["1 0 2 1 0.5"]),
         {"real": "complexify expects a real-coefficient jet"}, ()),
        ("unit-chain", _germ_text(2, 2, "float", ["jordan 1 2"]), {"hyperbolic": HYPERBOLIC}, ()),
        ("unit-cell", _germ_text(2, 2, "float", ["jordan 1 1", "jordan 2 1"]),
         {"hyperbolic": HYPERBOLIC}, ()),
        ("minus-one", _germ_text(2, 2, "float", ["jordan -1 1", "jordan 2 1"]),
         {"hyperbolic": HYPERBOLIC}, ()),
        ("8x12", _germ_text(8, 12, "float", ["jordan 2 8"]),
         {"planar": PLANAR, "size": "dimension 8 at degree 12 asks for n*C(N+n, n) = 1007760 jet "
                                   "coefficients, above MAX_JET_SIZE = 100000"}, ()),
        ("planar-120", _germ_text(2, 120, "float", ["jordan 2 1", "jordan 3 1"], ["2 2 0 1"]),
         {"work": "dimension 2 at degree 120 lets the normal form form up to 9.28e+10 "
                  "coefficient products, above MAX_PRODUCTS = 1e+09"},
         (0, None, None, None, 0)),
        ("paper-2.3", "paper-2.3", {"planar": PLANAR}, (0, 0, 0, 0, None)),
        ("paper-2.3-blocked", "paper-2.3-blocked", {"planar": PLANAR}, (0, 0, 2, 2, None)),
        ("paper-Astar", "paper-Astar", {"planar": PLANAR}, (0, 0, 2, 2, None)),
        ("paper-F1", "paper-F1", {"planar": PLANAR}, (0, 0, 2, 2, None)),
        ("resonant-2d", "resonant-2d", {}, (0, 0, 0, 0, 0)),
    ]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("name, germ, fails, codes", GERMS, ids=[g[0] for g in GERMS])
    def test_each_verb_refuses_by_its_needs(self, capsys, monkeypatch, verb, name, germ, fails, codes):
        if name in FIXTURES:
            code, out, _ = run(capsys, verb, "--fixture", germ)
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(germ))
            code, out, _ = run(capsys, verb, "-")
        m = machine(out)
        refusals = [message for need, message in fails.items() if need in self.NEEDS[verb]]
        assert len(refusals) <= 1
        if refusals:
            assert (code, m["status"], m["error"]) == (3, "error", refusals[0]), out
        else:
            assert code == codes[VERBS.index(verb)] and "error" not in m, out


class TestWithoutProductLists:
    """The verbs that compose nothing never build a product list: with the
    product-list builders raising, analyze and classify2d still end every
    fixture as the console-script table says."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_analyze_and_classify2d(self, capsys, monkeypatch, name):
        from embedflow import graded

        def builder(*args):
            raise AssertionError("a product list was built")

        for method in ("_pairs", "products", "lowest"):
            monkeypatch.setattr(graded._Grading, method, builder)
        graded._grading.cache_clear()
        for verb, want in (("analyze", 0), ("classify2d", 0 if name == "resonant-2d" else 3)):
            code, out, _ = run(capsys, verb, "--fixture", name)
            assert code == want and "status" in machine(out), (verb, out)


class TestOneProcess:
    ARGVS = [
        ("analyze", "--fixture", "paper-Astar"),
        ("embed", "--fixture", "resonant-2d", "--canonical"),
        ("verify", "--fixture", "paper-Astar", "--branch", "k=1"),
        ("normal-form", "--fixture", "resonant-2d", "--degree", "3"),
        ("verify", "--fixture", "paper-2.3"),
        ("analyze", "--fixture", "resonant-2d"),
    ]

    def test_back_to_back_calls_print_what_separate_calls_print(self, capsys):
        # the parser is built on the first call and shared by the later ones;
        # a flag given to one call must not leak into the next
        from embedflow import cli

        def masked(argv):
            code, out, err = run(capsys, *argv)
            return code, re.sub(r"time_s=.*", "time_s=", out), err

        separate = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            separate.append(masked(argv))
        cli._build_parser.cache_clear()
        assert [masked(argv) for argv in self.ARGVS] == separate
        assert cli._build_parser.cache_info().misses == 1

    @pytest.mark.parametrize(
        "flags, scans, blocked",
        [
            ((), 1, {"(1,(0,2,0),1)", "(1,(0,0,2),-1)"}),
            (("--branch", "k=1"), 2, {"(1,(0,2,0),3)", "(1,(0,0,2),-3)"}),
        ],
    )
    def test_resonances_scanned_once_per_log(self, capsys, monkeypatch, flags, scans, blocked):
        # on the principal branch B's logs are A's, and the solve reads the
        # normal form's scan; k = 1 moves the negative pair's logs by 2*pi*i,
        # and the solve scans them anew: the weak witnesses go from 1 to 3
        from embedflow import resonance

        calls = []
        classify = resonance._classify

        def counted(*args):
            calls.append(args)
            return classify(*args)

        monkeypatch.setattr(resonance, "_classify", counted)
        clear_process_tables()  # paper-Astar's scans are kept from earlier tests
        code, out, _ = run(capsys, "verify", "--fixture", "paper-Astar", *flags)
        assert code == 2
        assert set(machine(out)["blocked"].split(";")) == blocked
        assert len(calls) == scans

    def test_field_reads_the_solve_scan(self, capsys, monkeypatch):
        # FieldGerm checks the field's support against the scan that the
        # solve kept on B's eigen data: every _classify runs inside a scan
        from embedflow import resonance

        inside, outside, scanning = [], [], []
        classify, scan = resonance._classify, resonance._scan

        def counted(*args):
            (inside if scanning else outside).append(args)
            return classify(*args)

        def scanned(*args):
            scanning.append(args)
            try:
                return scan(*args)
            finally:
                scanning.pop()

        monkeypatch.setattr(resonance, "_classify", counted)
        monkeypatch.setattr(resonance, "_scan", scanned)
        clear_process_tables()  # paper-2.3's scans are kept from earlier tests
        code, out, _ = run(capsys, "verify", "--fixture", "paper-2.3")
        assert code == 0 and machine(out)["verified"] == "yes"
        assert inside and not outside


class TestSharedLinearParts:
    """Germs of one process that share a LINEAR section share its analyses;
    every call must print what it prints in a fresh process."""

    FIXTURES = ["paper-2.3", "paper-2.3-blocked", "paper-Astar", "paper-F1", "resonant-2d"]

    def _sequence(self, tmp_path):
        calls = []
        for name in self.FIXTURES:
            text = (resources.files("embedflow") / "fixtures" / f"{name}.germ").read_text()
            path, twin = tmp_path / f"{name}.germ", tmp_path / f"{name}-twin.germ"
            path.write_text(text)
            # the same LINEAR lines in the other coefficient mode
            flipped = {"mode exact": "mode float", "mode float": "mode exact"}
            twin.write_text(re.sub("mode (exact|float)", lambda m: flipped[m.group(0)], text))
            calls += [
                ("verify", str(path)),
                ("verify", str(twin)),
                ("analyze", str(path), "--branch", "k=1"),
                ("verify", str(path), "--branch", "l=-1"),
                ("normal-form", str(path), "--degree", "3"),
                ("verify", str(path), "--degree", "2"),  # below a term's degree on most
                ("embed", str(twin), "--tol", "1e-6"),
                ("analyze", str(twin), "--degree", "4", "--tol", "1e-3"),
                ("classify2d", str(path)),
                ("verify", "--fixture", name),
                ("analyze", str(path)),
            ]
        return calls

    def test_many_germs_print_what_fresh_tables_print(self, capsys, tmp_path):
        def masked(argv):
            code, out, err = run(capsys, *argv)
            return code, re.sub(r"time_s=.*", "time_s=", out), err

        calls = self._sequence(tmp_path)
        clear_process_tables()
        shared = [masked(argv) for argv in calls]
        fresh = []
        for argv in calls:
            clear_process_tables()
            fresh.append(masked(argv))
        for argv, got, want in zip(calls, shared, fresh):
            assert got == want, argv
        codes = [code for code, _, _ in shared]
        assert codes.count(0) >= 20 and codes.count(2) >= 5 and codes.count(3) >= 10

    def test_one_call_builds_each_analysis_once(self, capsys, monkeypatch):
        from embedflow import resonance, spectral

        built = []
        for module, name in (
            (spectral, "_has_real_log"), (spectral, "_pair_negative_blocks"),
            (spectral, "_is_hyperbolic"), (spectral, "_real_log"), (resonance, "_scan"),
        ):
            def counted(*args, _build=getattr(module, name), _name=name):
                built.append((_name, *(id(a) if isinstance(a, spectral.BlockMatrix) else a
                                       for a in args)))
                return _build(*args)

            monkeypatch.setattr(module, name, counted)
        clear_process_tables()
        for argv in (("verify", "--fixture", "paper-Astar"), ("verify", "--fixture", "paper-2.3")):
            built.clear()
            code, _, _ = run(capsys, *argv)
            assert code in (0, 2)
            assert len(set(map(repr, built))) == len(built), built
            scans = [(tuple(b[1].entries), *b[2:]) for b in built if b[0] == "_scan"]
            assert len(scans) == len(set(scans)) == 1  # the solve reads the normal form's scan
        before = len(built)
        run(capsys, "verify", "--fixture", "paper-2.3")
        assert len(built) == before  # a second call on the same section builds nothing


class TestCanonical:
    def test_echo_matches_serializer(self, capsys):
        from importlib import resources

        from embedflow import parse_germ, serialize_germ

        code, out, _ = run(
            capsys, "analyze", "--fixture", "resonant-2d", "--canonical"
        )
        assert code == 0
        text = (
            resources.files("embedflow") / "fixtures" / "resonant-2d.germ"
        ).read_text()
        canon = serialize_germ(parse_germ(text))
        for line in canon.splitlines():
            assert line in out


def _exact_germ_text(spec) -> str:
    """Germ-file text of an exact-mode diagonal GermSpec (``_gens``), its
    coefficients cut to their real parts: germ files are real."""
    lines = [
        "HEADER", f"dimension {spec.dim}", f"degree {spec.degree}", "mode exact", "LINEAR",
        *(f"jordan {b.eigenvalue} 1" for b in spec.linear.blocks),
        "NONLINEAR",
    ]
    for (j, m), c in sorted(spec.nonlinear.coeffs.items()):
        if c.re:
            lines.append(f"{j + 1} {' '.join(map(str, m))} {c.re}")
    return "\n".join(lines) + "\n"


class TestModeAgreement:
    """An exact germ re-run as ``mode float`` keeps its exit code, status
    and supports, and its coefficients agree to roundoff."""

    JETS = ("normal_form", "transform", "field", "blocked")

    def _runs(self, capsys, monkeypatch, text):
        out = {}
        for mode in ("exact", "float"):
            for verb in ("normal-form", "verify"):
                monkeypatch.setattr(sys, "stdin", io.StringIO(text.replace("mode exact", f"mode {mode}")))
                code, report, _ = run(capsys, verb, "-")
                out[mode, verb] = code, machine(report)
        return out

    def _agree(self, runs):
        for verb in ("normal-form", "verify"):
            (code, exact), (code_f, floats) = runs["exact", verb], runs["float", verb]
            assert code == code_f and exact["status"] == floats["status"]
            for key in self.JETS:
                if key not in exact:
                    assert key not in floats
                    continue
                if key == "blocked" or not exact[key]:
                    assert exact[key] == floats[key], key
                    continue
                want, got = field_dict(exact[key]), field_dict(floats[key])
                assert want.keys() == got.keys(), key
                scale = max(abs(c) for c in want.values())
                assert max(abs(got[k] - c) for k, c in want.items()) <= 1e-13 * scale, key

    def test_random_exact_germs(self, capsys, monkeypatch):
        from _gens import random_exact_germ
        import numpy as np

        rng = np.random.default_rng(2610)
        for i in range(12):
            spec = random_exact_germ(rng, 2 + i % 2, 3 + i % 3)
            self._agree(self._runs(capsys, monkeypatch, _exact_germ_text(spec)))

    @pytest.mark.parametrize(
        "name, status", [("resonant-2d", "field"), ("paper-Astar", "obstruction"), ("paper-F1", "obstruction")]
    )
    def test_rational_fixtures(self, capsys, monkeypatch, name, status):
        text = (resources.files("embedflow") / "fixtures" / f"{name}.germ").read_text()
        runs = self._runs(capsys, monkeypatch, text.replace("mode float", "mode exact"))
        self._agree(runs)
        assert runs["float", "verify"][1]["status"] == status

    @pytest.mark.parametrize(
        "text",
        [
            # a Jordan chain feeding its square: the coupled exact kernel and
            # the float _triangular_rows
            "dimension 3\ndegree 5\nmode exact\nLINEAR\njordan 3 2\njordan 9 1\nNONLINEAR\n"
            "3 2 0 0 1/2\n3 1 1 0 1/4\n3 0 2 0 -1/3\n1 1 1 0 1/3\n2 0 2 0 -2/7\n3 1 1 1 1/5\n",
            # a rotation by a quarter turn, its parameters kept exact
            "dimension 3\ndegree 4\nmode exact\nLINEAR\nrotation 0 2 1\njordan 4 1\nNONLINEAR\n"
            "3 2 0 0 1/3\n3 0 2 0 1/3\n1 1 0 1 1/5\n",
            # two coupled rotation cells and a Jordan block fed by z * conj(z)
            "dimension 5\ndegree 3\nmode exact\nLINEAR\nrotation 0 2 2\njordan 4 1\nNONLINEAR\n"
            "5 2 0 0 0 0 1/3\n5 0 0 2 0 0 1/3\n5 1 0 1 0 0 -1/2\n1 2 0 0 0 0 1/3\n"
            "3 0 1 1 0 0 -1/4\n4 0 0 1 2 0 1/5\n",
            # a rotation by an eighth turn: lambda = 1 -+ i has the exact
            # log ln(2)/2 -+ i*pi/4
            "dimension 3\ndegree 4\nmode exact\nLINEAR\nrotation 1 1 1\njordan 4 1\nNONLINEAR\n"
            "3 2 2 0 1/3\n",
            # rotations by a generic angle: lambda = 1 -+ 2i has float logs,
            # and the solve stays exact on the Gaussian-rational lambda
            "dimension 2\ndegree 4\nmode exact\nLINEAR\nrotation 1 2 1\nNONLINEAR\n"
            "1 2 0 1/3\n2 1 1 -1/2\n1 0 3 1/5\n",
            "dimension 3\ndegree 4\nmode exact\nLINEAR\nrotation 1 2 1\njordan 5 1\nNONLINEAR\n"
            "3 2 0 0 1/3\n3 0 2 0 1/3\n1 1 0 1 1/5\n3 2 0 1 1/7\n",
        ],
        ids=["jordan-chain", "rotation", "rotation-cells", "eighth-turn", "generic-planar", "generic-angle"],
    )
    def test_coupled_and_rotation_germs(self, capsys, monkeypatch, text):
        runs = self._runs(capsys, monkeypatch, "HEADER\n" + text)
        self._agree(runs)
        for mode in ("exact", "float"):
            code, tail = runs[mode, "verify"]
            assert code == 0 and tail["status"] == "field" and tail["verified"] == "yes", mode
