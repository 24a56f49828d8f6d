"""Germ file parsing, canonical serialization, and complexification."""

import math
import re
from fractions import Fraction
from importlib import resources

import pytest

from embedflow import (
    MODE_EXACT,
    germfile,
    BlockMatrix,
    GermFile,
    GermParseError,
    JordanBlock,
    NegativePairBlock,
    QQi,
    RotationBlock,
    parse_germ,
    serialize_germ,
)

from _reference import permute_jet

BASIC = """\
# a comment
HEADER
dimension 2
degree 4

mode float
LINEAR
jordan 4 1
jordan 2 1   # inline comment
NONLINEAR
1 0 2 1
1 0 3 -0.5 2.25
"""


def _fixture_text(name: str) -> str:
    path = resources.files("embedflow") / "fixtures" / f"{name}.germ"
    return path.read_text()


class TestParse:
    def test_basic(self):
        gf = parse_germ(BASIC)
        assert (gf.dim, gf.degree, gf.mode) == (2, 4, "float")
        assert gf.blocks == BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1)))
        assert gf.terms == (
            (0, (0, 2), (1 + 0j)),
            (0, (0, 3), complex(-0.5, 2.25)),
        )
        assert gf.tol == 1e-9
        assert gf.branch_k == () and gf.branch_l == ()

    def test_exact_mode_keeps_fractions(self):
        gf = parse_germ(
            "HEADER\ndimension 2\ndegree 4\nmode exact\nLINEAR\n"
            "jordan 4 1\njordan 2 1\nNONLINEAR\n1 0 2 7/10 -1/3\n"
        )
        c = gf.terms[0][2]
        assert isinstance(c, QQi)
        assert c == QQi(Fraction(7, 10), Fraction(-1, 3))

    def test_exact_mode_keeps_rotation_fractions(self):
        text = "HEADER\ndimension 2\ndegree 2\nmode {}\nLINEAR\nrotation 3/2 -1/3 1\nNONLINEAR\n"
        (exact,) = parse_germ(text.format("exact")).blocks.blocks
        assert (exact.alpha, exact.beta) == (Fraction(3, 2), Fraction(-1, 3))
        assert isinstance(exact.alpha, Fraction) and isinstance(exact.beta, Fraction)
        (floats,) = parse_germ(text.format("float")).blocks.blocks
        assert (floats.alpha, floats.beta) == (1.5, -1 / 3)
        assert isinstance(floats.alpha, float) and isinstance(floats.beta, float)

    def test_rational_literal_in_float_mode(self):
        gf = parse_germ(
            "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
            "jordan 4 1\njordan 2 1\nNONLINEAR\n1 0 2 7/10\n"
        )
        assert gf.terms[0][2] == complex(0.7, 0.0)

    def test_exp_blocks(self):
        gf = parse_germ(
            "HEADER\ndimension 3\ndegree 2\nmode float\nLINEAR\n"
            "jordan-exp 8 1\nrotation-exp 1 1/4 1\nNONLINEAR\n"
        )
        jb, rb = gf.blocks.blocks
        assert jb.eigenvalue == pytest.approx(math.exp(8.0))
        assert jb.mu.rat == 8
        assert rb.alpha == pytest.approx(math.e * math.cos(math.pi / 4))
        assert rb.beta == pytest.approx(-math.e * math.sin(math.pi / 4))
        assert rb.mu.pi_part == Fraction(1, 4)

    def test_options(self):
        gf = parse_germ(
            "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
            "negpair -2 1\nNONLINEAR\nOPTIONS\ntol 1e-7\n"
            "branch-k 1 -2\nbranch-l 0\n"
        )
        assert gf.tol == 1e-7
        assert gf.branch_k == (1, -2)
        assert gf.branch_l == (0,)

    @pytest.mark.parametrize(
        "mangle,needle",
        [
            ("dimension 2", "HEADER is missing"),  # drops the dimension line
            ("jordan 4 1", "LINEAR blocks cover"),
            ("1 0 2 1", "record needs"),
            ("mode float", "mode must be one of"),
        ],
    )
    def test_structural_errors(self, mangle, needle):
        if mangle == "1 0 2 1":
            text = BASIC.replace("1 0 2 1", "1 0 2")
        elif mangle == "mode float":
            text = BASIC.replace("mode float", "mode decimal")
        else:
            text = BASIC.replace(mangle, "")
        with pytest.raises(GermParseError, match=needle):
            parse_germ(text)

    def test_content_before_section(self):
        with pytest.raises(GermParseError, match="before a section"):
            parse_germ("dimension 2\nHEADER\n")

    def test_component_out_of_range(self):
        with pytest.raises(GermParseError, match="out of range"):
            parse_germ(BASIC.replace("1 0 2 1", "3 0 2 1"))

    def test_exponent_degree_out_of_range(self):
        with pytest.raises(GermParseError, match="outside 2..4"):
            parse_germ(BASIC.replace("1 0 2 1", "1 0 1 1"))
        with pytest.raises(GermParseError, match="outside 2..4"):
            parse_germ(BASIC.replace("1 0 2 1", "1 0 5 1"))

    def test_duplicate_record(self):
        with pytest.raises(GermParseError, match="duplicate record"):
            parse_germ(BASIC + "1 0 2 3\n")

    def test_unknown_block_kind(self):
        with pytest.raises(GermParseError, match="unknown linear block"):
            parse_germ(BASIC.replace("jordan 4 1", "spiral 4 1"))

    def test_zero_eigenvalue(self):
        with pytest.raises(GermParseError, match="zero eigenvalue"):
            parse_germ(BASIC.replace("jordan 4 1", "jordan 0 1"))

    def test_rotation_needs_beta(self):
        with pytest.raises(GermParseError, match="beta != 0"):
            parse_germ(
                "HEADER\ndimension 2\ndegree 2\nmode float\nLINEAR\n"
                "rotation 2 0 1\nNONLINEAR\n"
            )

    def test_unknown_option(self):
        with pytest.raises(GermParseError, match="unknown option"):
            parse_germ(BASIC + "OPTIONS\nfancy 3\n")

    def test_bad_number_names_line(self):
        with pytest.raises(GermParseError, match="line 11"):
            parse_germ(BASIC.replace("1 0 2 1", "1 0 2 one"))

    @pytest.mark.parametrize(
        "old, new, line_no, needle",
        [
            ("dimension 2", "dimension 0", 3, "dimension must be positive"),
            ("degree 4", "degree 1", 4, "degree must be at least 2"),
            ("jordan 4 1", "jordan 2 0", 8, "block size must be positive"),
            ("jordan 4 1", "jordan-exp 1 0", 8, "block size must be positive"),
            ("jordan 4 1", "rotation 1 1 0", 8, "cell count must be positive"),
            ("jordan 4 1", "negpair -2 0", 8, "cell count must be positive"),
            ("jordan 4 1", "negpair 2 1", 8, "negative-pair block needs a negative eigenvalue"),
            ("1 0 2 1", "1 -1 3 1", 11, "multi-index entries must be nonnegative"),
            ("2.25", "2.25\n1 0 2 3", 13, "duplicate record for component 1, exponent (0, 2)"),
        ],
    )
    def test_malformed_line_is_named(self, old, new, line_no, needle):
        # a check of a block, a multi-index or the header, and the second
        # of two records for one (j, m), each name the line that fails it
        with pytest.raises(GermParseError) as info:
            parse_germ(BASIC.replace(old, new))
        assert info.value.line_no == line_no
        assert str(info.value).startswith(f"line {line_no}: {needle}")

    def test_degree_floor(self):
        with pytest.raises(GermParseError, match="at least 2"):
            parse_germ(BASIC.replace("degree 4", "degree 1"))

    @pytest.mark.parametrize(
        "value, needle",
        [
            ("-1", "tol must be positive, got '-1'"),
            ("0", "tol must be positive, got '0'"),
            ("-1/2", "tol must be positive, got '-1/2'"),
            ("0.0", "tol must be positive, got '0.0'"),
            ("inf", "got 'inf'"),
            ("nan", "got 'nan'"),
            ("1e-400", "'1e-400' is outside the float range"),
        ],
    )
    def test_tol_must_be_a_finite_positive_number(self, value, needle):
        with pytest.raises(GermParseError, match=re.escape(needle)) as info:
            parse_germ(BASIC + f"OPTIONS\ntol {value}\n")
        assert info.value.line_no == 14


class TestSerialize:
    def test_canonical_idempotent(self):
        canon = serialize_germ(parse_germ(BASIC))
        assert serialize_germ(parse_germ(canon)) == canon

    def test_roundtrip_equality(self):
        gf = parse_germ(BASIC)
        assert parse_germ(serialize_germ(gf)) == gf

    def test_sorts_records(self):
        swapped = BASIC.replace(
            "1 0 2 1\n1 0 3 -0.5 2.25", "1 0 3 -0.5 2.25\n1 0 2 1"
        )
        assert serialize_germ(parse_germ(swapped)) == serialize_germ(
            parse_germ(BASIC)
        )

    def test_default_options_omitted(self):
        text = BASIC + "OPTIONS\ntol 1e-9\n"
        assert "OPTIONS" not in serialize_germ(parse_germ(text))

    def test_non_default_options_survive(self):
        text = BASIC + "OPTIONS\ntol 1e-7\nbranch-k 1\n"
        canon = serialize_germ(parse_germ(text))
        assert "tol 1e-07" in canon and "branch-k 1" in canon
        assert serialize_germ(parse_germ(canon)) == canon

    def test_exact_fractions_survive(self):
        text = (
            "HEADER\ndimension 2\ndegree 4\nmode exact\nLINEAR\n"
            "jordan 4 1\njordan 1/2 1\nNONLINEAR\n1 0 2 7/10 -1/3\n"
        )
        canon = serialize_germ(parse_germ(text))
        assert "jordan 1/2 1" in canon
        assert "1 0 2 7/10 -1/3" in canon
        assert serialize_germ(parse_germ(canon)) == canon

    def test_exact_rotation_prints_fractions(self):
        text = (
            "HEADER\ndimension 2\ndegree 2\nmode exact\nLINEAR\n"
            "rotation 3/2 -1/3 1\nNONLINEAR\n1 2 0 1/7\n"
        )
        canon = serialize_germ(parse_germ(text))
        assert "rotation 3/2 -1/3 1" in canon
        assert serialize_germ(parse_germ(canon)) == canon

    def test_all_block_kinds(self):
        gf = parse_germ(
            "HEADER\ndimension 9\ndegree 2\nmode float\nLINEAR\n"
            "jordan 4 2\njordan-exp 8 1\nrotation 1 2 1\n"
            "rotation-exp 1 1/4 1\nnegpair -2 1\nNONLINEAR\n"
        )
        canon = serialize_germ(gf)
        for line in (
            "jordan 4 2",
            "jordan-exp 8 1",
            "rotation 1.0 2.0 1",
            "rotation-exp 1 1/4 1",
            "negpair -2 1",
        ):
            assert line in canon
        assert parse_germ(canon) == gf


class TestToSpec:
    def test_complexifies_quadratic(self):
        # a x1 x2 + b x1^2 on the third component with an adjacent negative
        # pair: z^2 gets ((b - c) - i a)/4, z zbar (b + c)/2, zbar^2 the
        # conjugate, with c = 0 here
        gf = parse_germ(_fixture_text("paper-F1"))
        spec, paired, perm = gf.to_spec()
        assert perm == (0, 1, 2)
        assert isinstance(paired.blocks[0], NegativePairBlock)
        assert isinstance(paired.blocks[1], JordanBlock)
        want = {
            (2, (2, 0, 0)): complex(0.25, -0.25),
            (2, (1, 1, 0)): complex(0.5, 0.0),
            (2, (0, 2, 0)): complex(0.25, 0.25),
        }
        got = {k: complex(v) for k, v in spec.nonlinear.coeffs.items()}
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-15)

    def test_rotation_invariant_sum_collapses(self):
        # 0.7 (x2^2 + x3^2)^4 must become the single monomial
        # 0.7 z^4 zbar^4; binomial cross terms cancel exactly
        gf = parse_germ(_fixture_text("paper-2.3"))
        spec, _, _ = gf.to_spec()
        got = {k: complex(v) for k, v in spec.nonlinear.coeffs.items()}
        assert set(got) == {(0, (0, 4, 4))}
        assert got[(0, (0, 4, 4))] == pytest.approx(0.7, abs=1e-15)

    def test_blocked_fixture_adds_eighth_powers(self):
        gf = parse_germ(_fixture_text("paper-2.3-blocked"))
        spec, _, _ = gf.to_spec()
        got = {k: complex(v) for k, v in spec.nonlinear.coeffs.items()}
        assert set(got) == {(0, (0, 4, 4)), (0, (0, 8, 0)), (0, (0, 0, 8))}
        assert got[(0, (0, 8, 0))] == pytest.approx(0.3, abs=1e-14)
        assert got[(0, (0, 0, 8))] == pytest.approx(0.3, abs=1e-14)

    def test_nontrivial_permutation(self):
        gf = parse_germ(
            "HEADER\ndimension 4\ndegree 2\nmode float\nLINEAR\n"
            "jordan -2 2\njordan -2 2\nNONLINEAR\n1 1 0 1 0 1\n"
        )
        spec, paired, perm = gf.to_spec()
        assert perm == (0, 2, 1, 3)
        assert isinstance(paired.blocks[0], NegativePairBlock)
        assert paired.blocks[0].cells == 2
        # evaluation identity: the complexified jet at z(x) reproduces the
        # permuted real jet at x
        x = [0.3, -1.1, 0.7, 0.2]
        xp = [x[perm[i]] for i in range(4)]
        z = [
            complex(xp[0], xp[1]),
            complex(xp[0], -xp[1]),
            complex(xp[2], xp[3]),
            complex(xp[2], -xp[3]),
        ]
        fp = permute_jet(gf.real_jet(), perm)
        vx = fp.evaluate(xp)
        vz = spec.nonlinear.evaluate(z)
        assert vz[0] == pytest.approx(complex(vx[0], vx[1]), abs=1e-14)
        assert vz[1] == pytest.approx(complex(vx[0], -vx[1]), abs=1e-14)

    def test_all_fixtures_parse_and_lift(self):
        for name in (
            "paper-2.3",
            "paper-2.3-blocked",
            "paper-F1",
            "paper-Astar",
            "resonant-2d",
        ):
            gf = parse_germ(_fixture_text(name))
            canon = serialize_germ(gf)
            assert serialize_germ(parse_germ(canon)) == canon
            spec, _, _ = gf.to_spec()
            assert spec.dim == gf.dim and spec.degree == gf.degree

    def test_mode_propagates(self):
        gf = parse_germ(_fixture_text("resonant-2d"))
        spec, _, _ = gf.to_spec()
        assert gf.mode == MODE_EXACT
        assert spec.mode == MODE_EXACT
        assert all(isinstance(c, QQi) for c in spec.nonlinear.coeffs.values())


class TestSharedLinearPart:
    """Germs whose LINEAR sections have the same lines share one matrix,
    from a table of the last ``LINEAR_PARTS`` sections."""

    @pytest.fixture(autouse=True)
    def own_table(self, monkeypatch):
        monkeypatch.setattr(germfile, "_linear_parts", {})

    def test_same_lines_share_one_matrix(self):
        a = parse_germ(BASIC).blocks
        exact = BASIC.replace("mode float", "mode exact").replace("degree 4", "degree 3")
        assert parse_germ(exact).blocks is a
        assert parse_germ(BASIC.replace("1 0 3 -0.5 2.25\n", "")).blocks is a

    def test_equal_values_on_other_lines_do_not_share(self):
        a = parse_germ(BASIC).blocks
        b = parse_germ(BASIC.replace("jordan 4 1", "jordan 8/2 1")).blocks
        assert a == b and a is not b

    def test_table_keeps_the_last_used_sections(self):
        def text(k):
            return BASIC.replace("jordan 4 1", f"jordan {k + 5} 1")

        first = [parse_germ(text(k)).blocks for k in range(germfile.LINEAR_PARTS)]
        assert parse_germ(text(0)).blocks is first[0]  # now the most recent
        parse_germ(text(germfile.LINEAR_PARTS))  # a full table drops section 1
        assert len(germfile._linear_parts) == germfile.LINEAR_PARTS
        assert parse_germ(text(0)).blocks is first[0]
        assert parse_germ(text(2)).blocks is first[2]
        assert parse_germ(text(1)).blocks is not first[1]

    def test_a_refused_germ_keeps_no_matrix(self):
        with pytest.raises(GermParseError, match="record needs"):
            parse_germ(BASIC.replace("1 0 2 1", "1 0 2"))
        assert germfile._linear_parts == {}

    @pytest.mark.parametrize("first", ["float", "exact"])
    def test_rotation_lines_are_kept_apart_by_mode(self, first):
        # float germs read rotation parameters as floats and exact germs as
        # fractions, so the same lines give each mode its own matrix, in
        # either order
        text = "HEADER\ndimension 3\ndegree 2\nmode {}\nLINEAR\nrotation 0 2 1\njordan 4 1\nNONLINEAR\n"
        second = "exact" if first == "float" else "float"
        blocks = {mode: parse_germ(text.format(mode)).blocks for mode in (first, second)}
        assert isinstance(blocks["float"].blocks[0].alpha, float)
        assert isinstance(blocks["exact"].blocks[0].alpha, Fraction)
        assert blocks["exact"].eigen().exact and not blocks["float"].eigen().exact
        for mode in (first, second):
            assert parse_germ(text.format(mode)).blocks is blocks[mode]
