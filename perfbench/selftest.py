"""Self-tests of the benchmark: generator, checker, scan and tail statistic.

Run from the repository root:

    python3 perfbench/selftest.py

The generator must be byte-identical for one seed and differ for another;
the checker must catch deliberately wrong outcomes; the exact resonance
scan must reproduce the resonance sets worked out by hand in the fixtures;
and the first round of every workload must pass the checker against the
program in ``src/``.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _texts(workload, seed, rounds=2):
    stream = gen.cases(workload, seed)
    k = rounds * gen.cycle_length(workload)
    return [c.text or c.fixture for c in itertools.islice(stream, k)]


def _first(workload, family_prefix):
    for case in itertools.islice(gen.cases(workload, 5), 3 * gen.cycle_length(workload)):
        if case.family.startswith(family_prefix):
            return case
    raise LookupError(family_prefix)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_is_byte_identical(self):
        for w in gen.WORKLOADS:
            self.assertEqual(_texts(w, 7), _texts(w, 7), w)

    def test_other_seed_differs(self):
        for w in gen.WORKLOADS:
            a, b = _texts(w, 7), _texts(w, 8)
            self.assertNotEqual(a, b, w)
            generated = [t for t in a if "\n" in t]
            self.assertTrue(set(generated).isdisjoint(b), w)

    def test_germs_are_distinct_within_a_run(self):
        for w in gen.WORKLOADS:
            generated = [t for t in _texts(w, 3, rounds=6) if "\n" in t]
            self.assertEqual(len(generated), len(set(generated)), w)

    def test_map_resonant_integer_test(self):
        self.assertEqual(gen.map_resonant([4, 2], 3), [(0, (0, 2))])
        found = set(gen.map_resonant([8, 2, 4], 3))
        self.assertEqual(found, {(0, (0, 1, 1)), (2, (0, 2, 0)), (0, (0, 3, 0))})

    def test_negpair_quadratic_is_never_rotation_invariant(self):
        for case in itertools.islice(gen.cases("verify", 11), 200):
            if case.family.startswith("negpair"):
                coeffs = {tuple(map(int, line.split()[1:4])): Fraction(line.split()[4])
                          for line in case.text.split("NONLINEAR\n")[1].splitlines()}
                a, b, c = (coeffs.get(m, 0) for m in ((2, 0, 0), (1, 1, 0), (0, 2, 0)))
                self.assertNotEqual((a - c, b), (0, 0))


class ScanTest(unittest.TestCase):
    def test_paper_23_spectrum(self):
        want = check.scan(gen._PAPER23, 8)
        self.assertEqual(want["weak"], {"(1,(0,8,0),-1)", "(1,(0,0,8),1)"})
        self.assertEqual(want["field_resonant"], {"(1,(0,4,4))"})
        self.assertEqual(want["branch"], "none")

    def test_paper_astar_spectrum(self):
        want = check.scan((("jordan", Fraction(4)), ("pair", Fraction(-2))), 2)
        self.assertEqual(want["map_resonant"], {"(1,(0,1,1))", "(1,(0,2,0))", "(1,(0,0,2))"})
        self.assertEqual(want["field_resonant"], {"(1,(0,1,1))"})
        self.assertEqual(want["weak"], {"(1,(0,2,0),1)", "(1,(0,0,2),-1)"})
        self.assertEqual(want["branch"], "none")

    def test_free_blocks_take_the_principal_branch(self):
        spec = (("jordan", Fraction(3)), ("negpair", Fraction(-5)),
                ("rotation-exp", Fraction(7, 5), Fraction(2, 9)))
        want = check.scan(spec, 5)
        self.assertEqual((want["map_resonant"], want["branch"]), (frozenset(), "0:0:0"))

    def test_one_weak_block_shifts_away(self):
        # mu = (4, 1 + i*pi/2, 1 - i*pi/2): (1,(0,4,0)) has i*pi coefficient
        # -2 + 8l on branch l, never 0, so every candidate is weak at degree 4;
        # below degree 4 nothing resonates and the principal branch is found
        spec = (("jordan-exp", Fraction(4)), ("rotation-exp", Fraction(1), Fraction(1, 2)))
        self.assertEqual(check.scan(spec, 4)["branch"], "none")
        self.assertEqual(check.scan(spec, 3)["branch"], "0:0")


class CheckerTest(unittest.TestCase):
    def test_catches_wrong_blocked_set(self):
        case = _first("verify", "negpair")
        good = {"status": "obstruction", "blocked_degree": "2",
                "blocked": "(3,(0,2,0),-1);(3,(2,0,0),1)"}
        self.assertEqual(check.causes(case, 2, good, None), [])
        bad = dict(good, blocked="(3,(2,0,0),1)")
        self.assertEqual(check.causes(case, 2, bad, None), ["blocked"])
        self.assertEqual(check.causes(case, 0, good, None), ["exit"])

    def test_catches_unverified_field(self):
        case = _first("verify", "resonant")
        self.assertEqual(check.causes(case, 0, {"status": "field", "verified": "yes"}, None), [])
        self.assertIn("verified=no", check.causes(case, 3, {"status": "field", "verified": "no"}, None))

    def test_catches_residual_and_exception(self):
        case = _first("normalize", "diag(8,2,4)")
        bound = case.expect["residual_max"]
        ok = {"status": "ok", "residual_conjugacy": repr(bound / 2)}
        self.assertEqual(check.causes(case, 0, ok, None), [])
        high = dict(ok, residual_conjugacy=repr(bound * 2))
        self.assertEqual(check.causes(case, 0, high, None), ["residual"])
        self.assertEqual(check.causes(case, None, {}, TypeError("x")), ["exception:TypeError"])

    def test_catches_wrong_resonance_set_and_branch(self):
        case = _first("spectrum", "two blocks, weak on every branch")
        want = check.scan(case.spec, case.expect["degree"])
        good = {"status": "ok", "real_log": "yes", "weakly_nonresonant_branch": want["branch"]}
        good.update({k: ";".join(sorted(want[k])) for k in ("map_resonant", "field_resonant", "weak")})
        self.assertEqual(check.causes(case, 0, good, None), [])
        dropped = ";".join(sorted(want["weak"])[1:])
        self.assertEqual(check.causes(case, 0, dict(good, weak=dropped), None), ["resonance:weak"])
        self.assertEqual(check.causes(case, 0, dict(good, weakly_nonresonant_branch="0:0:0"), None),
                         ["branch"])

    def test_catches_wrong_planar_verdict(self):
        case = _first("spectrum", "planar N=8")
        want = case.expect
        flipped = "no" if want["embeddable"] == "yes" else "yes"
        self.assertEqual(check.causes(case, want["exit"], {"embeddable": flipped}, None), ["embeddable"])

    def test_known_defects_only_cover_normal_form(self):
        nf = _first("normalize", "diag(4,2)")
        nf_float = _first("normalize", "diag(4,2) N=10 float")
        vf = _first("verify", "negpair")
        self.assertEqual(check.unknown([(nf, "exception:TypeError"), (nf_float, "residual")]), [])
        self.assertEqual(check.unknown([(nf, "residual")]), ["residual"])
        self.assertEqual(check.unknown([(vf, "blocked")]), ["blocked"])


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        import tracing

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(k, unit) for k, (unit, _) in tracing.REPORTED.items()])
        samples = [run.Sample(_first("verify", f"negpair (l,l,l^2) {m}"), 0.01, [])
                   for m in ("exact", "float")]
        e2e = run._end_to_end(samples, 0.5)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         [(k, unit) for k, (_, unit) in e2e.items()])

    def test_fails_without_the_source_tree(self):
        root = os.path.join(run.OUT, f"bare-{os.getpid()}")
        try:
            shutil.copytree(HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify", "--seconds", "1"],
                cwd=root, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct = run._tail([float(i) for i in range(1, 101)])
        self.assertEqual(value, 90.0)
        self.assertAlmostEqual(pct, 90.0)


class ProgramTest(unittest.TestCase):
    """The first round of each workload passes the checker (or fails as known)."""

    def test_first_round(self):
        from embedflow import cli, parse_machine

        work = os.path.join(run.OUT, f"selftest-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            for w in gen.WORKLOADS:
                _, cases, paths = run._first_round(w, 2, work)
                failures = []
                for case, path in zip(cases, paths):
                    with redirect_stdout(io.StringIO()):
                        sample = run._run_case(cli, parse_machine, case, path)
                    failures += [(case, c) for c in sample.causes[:1]]
                self.assertEqual(check.unknown(failures), [], w)
        finally:
            for name in os.listdir(work):
                os.remove(os.path.join(work, name))
            os.rmdir(work)


if __name__ == "__main__":
    unittest.main()
