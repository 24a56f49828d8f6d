"""Command-line front end.

Verbs:

    analyze     hyperbolicity, real-log existence, branch search, resonances
    normal-form distinguished normal form with conjugacy diagnostics
    embed       full pipeline: normalize, pick/validate B, solve, verify
    verify      embed plus a hard pass/fail on the time-one residuals of
                both routes, the ODE oracle's error estimate and the
                embedding-equation residual (verdict.certify)
    classify2d  planar embeddability verdict with the explicit logarithm

Exit codes: 0 success (field constructed / embeddable), 2 obstruction or
not embeddable, 3 precondition failure (a germ the verb does not admit, no
real log, verification failure, a near-resonance: a normal-form divisor
below max(tol, DIVISOR_FLOOR), a nonresonant coefficient above
STRAY_DEMAND that the solve meets in log U, or an inf or nan in a float
G, h or field), 4 parse error (including a tolerance that is not a finite
positive number and a ``--degree`` below 2).

:func:`embedflow.pipeline.admit` decides once, before the verb's handler
and from one table of what each verb needs, whether the verb takes the
germ; hyperbolicity reads the germ's tol.  normal-form, embed and verify
then compute the germ's record (:mod:`embedflow.pipeline`) and print it;
a refusal prints the Error section alone.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from functools import cache
from importlib import resources

from .classify import classify_2d
from .embedding import Obstruction
from .germfile import GermFile, GermParseError, parse_germ, serialize_germ
from .pipeline import GermRun, admit, run, run_normal_form
from .reports import Report, fmt_complex, fmt_entry
from .resonance import map_resonances
from .spectral import (
    BRANCH_BOUND,
    BranchChoice,
    SpectralError,
    has_real_log,
    pair_negative_blocks,
    real_log,
    weakly_nonresonant_branch,
)
from .tolerances import NEAR_FACTOR

__all__ = ["main"]

EXIT_OK = 0
EXIT_OBSTRUCTION = 2
EXIT_PRECONDITION = 3
EXIT_PARSE = 4


def _read_source(args) -> str:
    if args.fixture:
        ref = resources.files("embedflow").joinpath(
            "fixtures", f"{args.fixture}.germ"
        )
        if not ref.is_file():
            raise FileNotFoundError(f"no fixture named {args.fixture!r}")
        return ref.read_text()
    if args.file == "-":
        return sys.stdin.read()
    if args.file is None:
        raise FileNotFoundError("no input: give a germ file, '-', or --fixture NAME")
    with open(args.file, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_branch_flag(text: str):
    """--branch "k=1:0,l=2" -> (ks, ls); colon-separated integer lists."""
    ks: tuple = ()
    ls: tuple = ()
    for part in text.replace(";", ",").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"branch segment {part!r} is not NAME=INTS")
        name, vals = part.split("=", 1)
        ints = tuple(int(v) for v in vals.split(":") if v != "")
        if name.strip() == "k":
            ks = ints
        elif name.strip() == "l":
            ls = ints
        else:
            raise ValueError(f"unknown branch name {name!r} (use k or l)")
    return ks, ls


def _apply_overrides(gf: GermFile, args) -> GermFile:
    changes = {}
    if args.degree is not None:
        if args.degree < 2:
            raise ValueError(f"--degree must be at least 2, got {args.degree}")
        changes["degree"] = args.degree
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError(f"--tol must be a finite positive number, got {args.tol!r}")
        changes["tol"] = args.tol
    if args.mode is not None and args.mode != gf.mode:
        raise SpectralError(
            "coefficient mode is fixed by the germ file; "
            f"file says {gf.mode!r}"
        )
    if args.branch:
        ks, ls = _parse_branch_flag(args.branch)
        changes["branch_k"] = ks
        changes["branch_l"] = ls
    return replace(gf, **changes)


def _put_resonances(report: Report, eigen, degree: int, tol: float):
    rep = map_resonances(eigen, degree, tol)
    report.section("Resonances")
    report.line(f"map-resonant monomials: {len(rep.map_resonant)}")
    for j, m in sorted(rep.map_resonant):
        report.line(f"  {fmt_entry(j, m)}")
    report.line(f"field-resonant monomials: {len(rep.field_resonant)}")
    for j, m in sorted(rep.field_resonant):
        report.line(f"  {fmt_entry(j, m)}")
    report.line(f"weakly resonant monomials: {len(rep.weak)}")
    for j, m, l in sorted(rep.weak):
        report.line(f"  {fmt_entry(j, m, l)}")
    if rep.near:
        report.line(f"near-resonances (within {NEAR_FACTOR:g}*tol): {len(rep.near)}")
    report.put_set("map_resonant", (fmt_entry(j, m) for j, m in rep.map_resonant))
    report.put_set(
        "field_resonant", (fmt_entry(j, m) for j, m in rep.field_resonant)
    )
    report.put_set("weak", (fmt_entry(j, m, l) for j, m, l in rep.weak))


def _put_jet(report: Report, key: str, jet, show: bool = True):
    """Put the jet's coefficients as the machine set ``key`` and, when
    ``show``, print them as human lines in (j, m) order; each is formatted
    once for both."""
    entries = [(fmt_entry(j, m), fmt_complex(c)) for (j, m), c in sorted(jet.coeffs.items())]
    if show:
        for entry, value in entries:
            report.line(f"  {entry}: {value}")
    report.put_set(key, (f"{entry}:{value}" for entry, value in entries))


def _linear_section(gf: GermFile, report: Report, ok: bool):
    report.section("Linear part")
    report.line(f"dimension {gf.dim}, degree {gf.degree}, mode {gf.mode}")
    report.line(f"real logarithm exists: {'yes' if ok else 'no'}")
    report.put("real_log", "yes" if ok else "no")


def _coordinates_section(gf: GermFile, report: Report, perm, mus):
    """Print the coordinate order and the principal log eigenvalues."""
    if perm != tuple(range(gf.dim)):
        report.line(f"negative pairs interleaved; coordinate order {perm}")
    report.line("log eigenvalues (principal): " + ", ".join(fmt_complex(m) for m in mus))


def _run_sections(gf: GermFile, report: Report, record: GermRun):
    """Print the linear part of a record, which exists only when the
    germ's negative blocks paired, so when a real logarithm exists."""
    _linear_section(gf, report, True)
    _coordinates_section(gf, report, record.perm, record.mus)


def cmd_analyze(gf: GermFile, report: Report) -> int:
    _linear_section(gf, report, has_real_log(gf.blocks)[0])
    try:
        paired, perm = pair_negative_blocks(gf.blocks)
    except SpectralError as exc:
        # unpaired negative blocks: the resonance structure is still
        # defined through the principal complex logarithm
        _put_resonances(report, gf.blocks.eigen(), gf.degree, gf.tol)
        report.section("Error")
        report.line(str(exc))
        report.line("resonances above use the principal complex logarithm")
        report.put("status", "no-real-log")
        return EXIT_PRECONDITION
    _coordinates_section(
        gf, report, perm, [complex(m) for m in paired.triangular().eigen.entries]
    )
    B = real_log(paired, BranchChoice.assign(paired, gf.branch_k, gf.branch_l))
    _put_resonances(report, B.triangular().eigen, gf.degree, gf.tol)
    # on the principal branch B's eigen data are A's, and the branch search
    # reads the scan just printed
    found = weakly_nonresonant_branch(paired, gf.degree, gf.tol)
    report.section("Branch search")
    if found is None:
        report.line(
            f"no weakly nonresonant branch with |k|,|l| <= {BRANCH_BOUND}"
        )
        report.put("weakly_nonresonant_branch", "none")
    else:
        report.line(
            "weakly nonresonant branch (per block): "
            + ":".join(map(str, found.values))
        )
        report.put(
            "weakly_nonresonant_branch", ":".join(map(str, found.values))
        )
    report.put("branch_bound", BRANCH_BOUND)
    report.put("status", "ok")
    return EXIT_OK


def cmd_normal_form(gf: GermFile, report: Report) -> int:
    record = run_normal_form(gf)
    result = record.normal_form
    _run_sections(gf, report, record)
    report.section("Distinguished normal form")
    report.line("resonant coefficients g (complexified coordinates):")
    _put_jet(report, "normal_form", result.germ.nonlinear)
    report.line("transform h (nonresonant coefficients):")
    _put_jet(report, "transform", result.transform)
    report.line(f"conjugacy residual: {result.residual:.3e}")
    for degree, resonant, solved, divisor in result.diagnostics:
        # a degree that solves no coefficient has no divisor
        shown = "none" if divisor is None else f"{divisor:.3e}"
        report.line(
            f"  degree {degree}: {resonant} resonant, {solved} solved, "
            f"min divisor {shown}"
        )
    report.put("residual_conjugacy", repr(result.residual))
    report.put("status", "ok")
    return EXIT_OK


def _embed_sections(gf: GermFile, report: Report, record: GermRun):
    """Print the sections that embed and verify share."""
    _run_sections(gf, report, record)
    result = record.normal_form
    report.section("Normal form")
    report.line(f"conjugacy residual {result.residual:.3e}")
    _put_jet(report, "normal_form", result.germ.nonlinear, show=False)
    report.section("Logarithm")
    report.put("branch", ":".join(map(str, record.branch.values)))
    mus = [complex(m) for m in record.B.triangular().eigen.entries]
    report.line("field eigenvalues: " + ", ".join(fmt_complex(m) for m in mus))
    outcome = record.outcome
    if isinstance(outcome, Obstruction):
        report.section("Obstruction")
        report.line(outcome.cause)
        report.line(f"blocked at degree {outcome.degree}:")
        for j, m, l, res in outcome.entries:
            report.line(
                f"  {fmt_entry(j, m, l)} demand {fmt_complex(res)}"
            )
        report.put("status", "obstruction")
        report.put("blocked_degree", outcome.degree)
        report.put_set(
            "blocked", (fmt_entry(j, m, l) for j, m, l, _ in outcome.entries)
        )
        return
    report.section("Embedding field")
    report.line("nonlinear coefficients (complexified coordinates):")
    _put_jet(report, "field", outcome.nonlinear)
    if record.field_real is not None:
        report.line("realified coefficients:")
        _put_jet(report, "field_real", record.field_real)
    elif not record.pairing.trivial:
        report.line("field is not conjugate-symmetric; left complex")
    verdict = record.verdict
    report.section("Verification")
    report.line(f"time-one residual (exact flow): {verdict.residual_exp:.3e}")
    report.line(f"time-one residual (ODE oracle): {verdict.residual_ode:.3e}")
    report.line(f"ODE oracle steps:               {verdict.ode_steps}")
    report.line(f"ODE oracle error estimate:      {verdict.residual_ode_err:.3e}")
    report.line(f"embedding-equation residual:    {verdict.residual_embedding:.3e}")
    report.put("residual_exp", repr(verdict.residual_exp))
    report.put("residual_ode", repr(verdict.residual_ode))
    report.put("residual_ode_err", repr(verdict.residual_ode_err))
    report.put("ode_steps", verdict.ode_steps)
    report.put("residual_embedding", repr(verdict.residual_embedding))
    report.put("status", "field")


def cmd_embed(gf: GermFile, report: Report) -> int:
    record = run(gf)
    _embed_sections(gf, report, record)
    if isinstance(record.outcome, Obstruction):
        return EXIT_OBSTRUCTION
    return EXIT_OK


def cmd_verify(gf: GermFile, report: Report) -> int:
    record = run(gf)
    _embed_sections(gf, report, record)
    if isinstance(record.outcome, Obstruction):
        return EXIT_OBSTRUCTION
    verdict = record.verdict
    report.section("Verdict")
    report.line(
        f"verified: {'yes' if verdict.ok else 'NO'} "
        f"(exact-flow bound {verdict.bound_exp:.1e}, ODE bound {verdict.bound_ode:.1e}, "
        f"ODE estimate bound {verdict.bound_err:.1e})"
    )
    report.put("verified", "yes" if verdict.ok else "no")
    return EXIT_OK if verdict.ok else EXIT_PRECONDITION


def cmd_classify2d(gf: GermFile, report: Report) -> int:
    verdict = classify_2d(gf.blocks)
    report.section("Planar classification")
    report.line(f"embeddable: {'yes' if verdict.embeddable else 'no'}")
    report.line(f"reason: {verdict.reason}")
    report.put("embeddable", "yes" if verdict.embeddable else "no")
    report.put("reason", verdict.reason)
    if verdict.log is not None:
        dense = verdict.log.to_dense()
        report.line("logarithm:")
        for row in dense:
            report.line("  [" + ", ".join(f"{v:+.12f}" for v in row) + "]")
        report.put(
            "log",
            ";".join(",".join(repr(float(v)) for v in row) for row in dense),
        )
    report.put("status", "ok")
    return EXIT_OBSTRUCTION if verdict.log is None else EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "normal-form": cmd_normal_form,
    "embed": cmd_embed,
    "verify": cmd_verify,
    "classify2d": cmd_classify2d,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later :func:`main` call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="embedflow",
        description="Embedding flows for hyperbolic polynomial germs.",
    )
    parser.add_argument("verb", choices=sorted(_COMMANDS))
    parser.add_argument("file", nargs="?", help="germ file path, or '-' for stdin")
    parser.add_argument("--fixture", help="name of a builtin fixture germ")
    parser.add_argument("--degree", type=int, help="override jet truncation")
    parser.add_argument("--tol", type=float, help="override tolerance")
    parser.add_argument("--mode", choices=("float", "exact"), help="expected mode")
    parser.add_argument(
        "--branch", help="logarithm branch, e.g. 'k=1:0,l=2' (colon-separated)"
    )
    parser.add_argument(
        "--canonical", action="store_true",
        help="also print the canonical serialization of the input",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # a FILE after a flag; the intermixed parse, ten times slower, places it
        args = parser.parse_intermixed_args(argv)
    report = Report(f"embedflow {args.verb}")
    start = time.monotonic()
    try:
        text = _read_source(args)
        gf = parse_germ(text)
    except GermParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        gf = _apply_overrides(gf, args)
    except SpectralError as exc:
        # file parsed fine; the flags contradict it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.canonical:
        report.section("Canonical form")
        for line in serialize_germ(gf).splitlines():
            report.line(line)
    try:
        admit(gf, args.verb)
        code = _COMMANDS[args.verb](gf, report)
    except (ValueError, ArithmeticError) as exc:
        report.section("Error")
        report.line(str(exc))
        report.put("status", "error")
        report.put("error", str(exc))
        code = EXIT_PRECONDITION
    report.put("time_s", f"{time.monotonic() - start:.3f}")
    print(report.render(), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
