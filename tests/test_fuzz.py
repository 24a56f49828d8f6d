"""Seeded mutational fuzz of the command line over the bundled fixtures.

Each mutant is a fixture with one line dropped, duplicated or swapped, or
one number replaced by an extreme value.  Every verb must end it in a
documented exit code (0, 2, 3 or 4) and, short of a parse error, print a
machine tail that says how it ended.  Runs are in-process through
``cli.main`` and start no subprocess.
"""

import io
import random
import re
import sys
from importlib import resources

import pytest

from embedflow import parse_machine
from embedflow.cli import main

FIXTURES = ("paper-2.3", "paper-2.3-blocked", "paper-Astar", "paper-F1", "resonant-2d")
VERBS = ("analyze", "normal-form", "embed", "verify", "classify2d")
EXTREMES = (
    "0", "-0", "1/0", "nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "1e400", "-1e-400",
    "123456789012345678901234567890", "-98765432109876543210",
)
NUMBER = re.compile(r"[-+]?[0-9][0-9./eE+-]*")
MUTANTS_PER_FIXTURE = 60


def _lines(name: str) -> list:
    text = resources.files("embedflow").joinpath("fixtures", f"{name}.germ").read_text()
    return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]


def mutate(lines: list, rng: random.Random) -> str:
    """One structural or numeric mutation of a germ file's lines."""
    lines = list(lines)
    kind = rng.choice(("drop", "duplicate", "swap", "number", "number", "number"))
    i = rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        k = rng.randrange(len(lines))
        lines[i], lines[k] = lines[k], lines[i]
    else:
        spots = [
            (row, col)
            for row, line in enumerate(lines)
            for col, tok in enumerate(line.split())
            if NUMBER.fullmatch(tok)
        ]
        row, col = rng.choice(spots)
        toks = lines[row].split()
        toks[col] = rng.choice(EXTREMES)
        lines[row] = " ".join(toks)
    return "\n".join(lines) + "\n"


def mutants(name: str, seed: int, count: int):
    """``count`` seeded mutants of the fixture ``name``."""
    rng = random.Random(f"{seed}:{name}")
    lines = _lines(name)
    return [mutate(lines, rng) for _ in range(count)]


@pytest.mark.parametrize("name", FIXTURES)
def test_every_mutant_ends_in_a_documented_exit_code(name, capsys, monkeypatch):
    for text in mutants(name, 2600, MUTANTS_PER_FIXTURE):
        for verb in VERBS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = main([verb, "-"])
            out = capsys.readouterr().out
            assert code in (0, 2, 3, 4), (verb, text)
            if code != 4:
                assert "status" in parse_machine(out), (verb, text, out)
