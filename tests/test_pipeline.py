"""The run record holds what the stages return when called in order.

``pipeline.run`` takes a germ file through complexify, normal form, branch,
real logarithm, solve and certify; each value of its record must equal the
value of that stage called directly on the previous stage's output.
"""

from dataclasses import replace
from importlib import resources

import pytest

from embedflow import (
    BranchChoice,
    Obstruction,
    certify,
    distinguished_normal_form,
    parse_germ,
    real_log,
    realify,
    run,
    run_normal_form,
    solve_embedding,
)

FIXTURES = ["paper-2.3", "paper-2.3-blocked", "paper-Astar", "paper-F1", "resonant-2d"]
CASES = [(name, ()) for name in FIXTURES] + [
    ("paper-2.3", (-1,)),
    ("paper-2.3-blocked", (1,)),
]


def _germ(name, branch_l):
    text = resources.files("embedflow").joinpath("fixtures", f"{name}.germ").read_text()
    return replace(parse_germ(text), branch_l=branch_l)


def _stages(gf):
    """``(spec, paired, perm, normal form)`` of the stages called directly."""
    spec, paired, perm = gf.to_spec()
    return spec, paired, perm, distinguished_normal_form(spec, tol=gf.tol)


@pytest.mark.parametrize("name, branch_l", CASES)
def test_record_matches_the_stages_in_order(name, branch_l):
    gf = _germ(name, branch_l)
    record = run(gf)
    spec, paired, perm, nf = _stages(gf)
    branch = BranchChoice.assign(paired, (), branch_l)
    B = real_log(paired, branch)
    outcome = solve_embedding(nf.germ, B, tol=gf.tol)
    assert (record.spec, record.pairing, record.perm) == (spec, paired.pairing(), perm)
    assert record.normal_form == nf
    assert (record.branch, record.B) == (branch, B)
    assert record.outcome == outcome
    if isinstance(outcome, Obstruction):
        assert (record.field_real, record.verdict) == (None, None)
    else:
        assert record.verdict == certify(nf.germ, outcome, gf.tol)
        pairing = paired.pairing()
        if not pairing.trivial:
            assert record.field_real == realify(outcome.nonlinear.to_float(), pairing)
        assert record.verdict.ok


@pytest.mark.parametrize("name", FIXTURES)
def test_normal_form_record_stops_at_the_normal_form(name):
    gf = _germ(name, ())
    record = run_normal_form(gf)
    spec, _, perm, nf = _stages(gf)
    assert (record.spec, record.perm, record.normal_form) == (spec, perm, nf)
    assert record.branch is record.B is record.outcome is record.verdict is None
    assert record.field_real is None
