"""End-to-end command-line runs against the bundled fixtures.

Every test drives ``embedflow.cli.main`` in-process and inspects the
machine tail of the report plus the exit code.
"""

import io
import math
import sys

import pytest

from embedflow import parse_machine
from embedflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(out: str) -> dict:
    return parse_machine(out)


def field_dict(value: str) -> dict:
    out = {}
    for entry in value.split(";"):
        key, val = entry.rsplit(":", 1)
        out[key] = float(val.replace("i", "j").replace("+-", "-"))
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
        assert m["real_log"] == "yes"

    def test_resonant_2d(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "resonant-2d")
        m = machine(out)
        assert code == 0
        assert m["field_resonant"] == "(1,(0,2))"
        assert m["weak"] == ""

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


class TestVerify:
    def test_paper_23_verifies(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "paper-2.3")
        m = machine(out)
        assert code == 0
        assert m["verified"] == "yes"

    def test_blocked_fixture_exits_2(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "paper-2.3-blocked")
        assert code == 2
        assert machine(out)["status"] == "obstruction"


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
