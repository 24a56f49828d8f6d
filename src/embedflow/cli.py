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
not embeddable, 3 precondition failure (non-hyperbolic, no real log,
verification failure, a header above MAX_JET_SIZE or MAX_PRODUCTS, an
eigenvalue beyond MAX_FIELD_SCALE in embed or verify), 4 parse error.
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
from .embedding import Obstruction, solve_embedding
from .germfile import GermFile, GermParseError, parse_germ, serialize_germ
from .graded import product_bound
from .jets import realify
from .normal_form import NearResonanceError, distinguished_normal_form
from .reports import Report, fmt_complex, fmt_entry
from .resonance import map_resonances
from .scalars import ExactnessError
from .spectral import (
    BRANCH_BOUND,
    BranchChoice,
    SpectralError,
    has_real_log,
    real_log,
    weakly_nonresonant_branch,
)
from .tolerances import MAX_FIELD_SCALE, MAX_JET_SIZE, MAX_PRODUCTS, NEAR_FACTOR
from .verdict import certify

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
        changes["degree"] = args.degree
    if args.tol is not None:
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


def _branch_for(gf: GermFile, paired):
    if gf.branch_k or gf.branch_l:
        return BranchChoice.assign(paired, gf.branch_k, gf.branch_l)
    return BranchChoice.zeros(paired)


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
    return rep


def _put_jet(report: Report, key: str, jet):
    report.put_set(
        key,
        (
            f"{fmt_entry(j, m)}:{fmt_complex(c)}"
            for (j, m), c in jet.coeffs.items()
        ),
    )


def _linear_section(gf: GermFile, report: Report) -> bool:
    report.section("Linear part")
    report.line(f"dimension {gf.dim}, degree {gf.degree}, mode {gf.mode}")
    ok, _ = has_real_log(gf.blocks)
    report.line(f"real logarithm exists: {'yes' if ok else 'no'}")
    report.put("real_log", "yes" if ok else "no")
    return ok


def _coordinates_section(gf: GermFile, report: Report, paired, perm):
    """Print the coordinate order and the principal log eigenvalues, which
    it returns."""
    if perm != tuple(range(gf.dim)):
        report.line(f"negative pairs interleaved; coordinate order {perm}")
    mus = [complex(m) for m in paired.triangular().eigen.entries]
    report.line("log eigenvalues (principal): " + ", ".join(fmt_complex(m) for m in mus))
    return mus


def _refuse_oversize(gf: GermFile):
    """Raise before any work on a germ whose header asks for more than
    MAX_JET_SIZE jet coefficients."""
    n, N = gf.dim, gf.degree
    size = n * math.comb(N + n, n)
    if size > MAX_JET_SIZE:
        raise ValueError(
            f"dimension {n} at degree {N} asks for n*C(N+n, n) = {size} jet "
            f"coefficients, above MAX_JET_SIZE = {MAX_JET_SIZE}"
        )


def _refuse_overwork(gf: GermFile):
    """Raise before any work on a germ whose normal form may form more
    than MAX_PRODUCTS coefficient products."""
    n, N = gf.dim, gf.degree
    products = product_bound(n, N)
    if products > MAX_PRODUCTS:
        raise ValueError(
            f"dimension {n} at degree {N} lets the normal form form up to "
            f"{products:.3g} coefficient products, above MAX_PRODUCTS = {MAX_PRODUCTS:.0e}"
        )


def _prepare(gf: GermFile, report: Report):
    """Refuse an oversized germ, complexify it and print its linear part:
    (spec, paired, perm, principal log eigenvalues)."""
    _refuse_oversize(gf)
    _refuse_overwork(gf)
    spec, paired, perm = gf.to_spec()
    _linear_section(gf, report)
    return spec, paired, perm, _coordinates_section(gf, report, paired, perm)


def cmd_analyze(gf: GermFile, report: Report) -> int:
    _refuse_oversize(gf)
    _linear_section(gf, report)
    try:
        paired, perm = gf.linear_spec()
    except SpectralError as exc:
        # unpaired negative blocks: the resonance structure is still
        # defined through the principal complex logarithm
        _put_resonances(report, gf.blocks.eigen(), gf.degree, gf.tol)
        report.section("Error")
        report.line(str(exc))
        report.line("resonances above use the principal complex logarithm")
        report.put("status", "no-real-log")
        return EXIT_PRECONDITION
    _coordinates_section(gf, report, paired, perm)
    branch = _branch_for(gf, paired)
    try:
        B = real_log(paired, branch)
    except SpectralError as exc:
        _put_resonances(report, paired.triangular().eigen, gf.degree, gf.tol)
        report.section("Error")
        report.line(str(exc))
        report.put("status", "no-real-log")
        return EXIT_PRECONDITION
    rep = _put_resonances(report, B.triangular().eigen, gf.degree, gf.tol)
    # on the principal branch that scan is the one the branch search reads
    found = weakly_nonresonant_branch(
        paired, gf.degree, tol=gf.tol, principal=None if any(branch.values) else rep
    )
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
    spec, _, _, _ = _prepare(gf, report)
    result = distinguished_normal_form(spec, tol=gf.tol)
    report.section("Distinguished normal form")
    report.line("resonant coefficients g (complexified coordinates):")
    for (j, m), c in sorted(result.germ.nonlinear.coeffs.items()):
        report.line(f"  {fmt_entry(j, m)}: {fmt_complex(c)}")
    report.line("transform h (nonresonant coefficients):")
    for (j, m), c in sorted(result.transform.coeffs.items()):
        report.line(f"  {fmt_entry(j, m)}: {fmt_complex(c)}")
    report.line(f"conjugacy residual: {result.residual:.3e}")
    for degree, resonant, solved, divisor in result.diagnostics:
        # a degree that solves no coefficient has no divisor
        shown = "none" if divisor is None else f"{divisor:.3e}"
        report.line(
            f"  degree {degree}: {resonant} resonant, {solved} solved, "
            f"min divisor {shown}"
        )
    _put_jet(report, "normal_form", result.germ.nonlinear)
    _put_jet(report, "transform", result.transform)
    report.put("residual_conjugacy", repr(result.residual))
    report.put("status", "ok")
    return EXIT_OK


def _refuse_field_overflow(mus):
    """Raise, before the normal form, on log eigenvalues ``mus`` with an
    eigenvalue lambda whose |lambda * ln lambda|, the scale of the
    embedding residual, is above MAX_FIELD_SCALE; compared in logarithms,
    which stay finite."""
    for mu in mus:
        if mu and mu.real + math.log(abs(mu)) > math.log(MAX_FIELD_SCALE):
            raise ValueError(
                f"eigenvalue e^({mu.real:.6g}{mu.imag:+.6g}i): |lambda * ln lambda|, "
                "the scale of the embedding residual, is outside the float range "
                f"(above MAX_FIELD_SCALE = {MAX_FIELD_SCALE:.6g})"
            )


def _embed_pipeline(gf: GermFile, report: Report):
    """Normalize, solve and certify, printing each stage: ``(outcome,
    verdict)``, the verdict None when the outcome is an obstruction."""
    spec, paired, perm, mus = _prepare(gf, report)
    _refuse_field_overflow(mus)
    result = distinguished_normal_form(spec, tol=gf.tol)
    G = result.germ
    report.section("Normal form")
    report.line(f"conjugacy residual {result.residual:.3e}")
    _put_jet(report, "normal_form", G.nonlinear)
    branch = _branch_for(gf, paired)
    branch.validate(paired)
    B = real_log(paired, branch)
    report.section("Logarithm")
    report.put("branch", ":".join(map(str, branch.values)))
    mus = [complex(m) for m in B.triangular().eigen.entries]
    report.line("field eigenvalues: " + ", ".join(fmt_complex(m) for m in mus))
    outcome = solve_embedding(G, B, tol=gf.tol)
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
        return outcome, None
    X = outcome
    report.section("Embedding field")
    report.line("nonlinear coefficients (complexified coordinates):")
    for (j, m), c in sorted(X.nonlinear.coeffs.items()):
        report.line(f"  {fmt_entry(j, m)}: {fmt_complex(c)}")
    _put_jet(report, "field", X.nonlinear)
    pairing = paired.pairing()
    if not pairing.trivial:
        try:
            real_v = realify(X.nonlinear.to_float(), pairing)
            report.line("realified coefficients:")
            for (j, m), c in sorted(real_v.coeffs.items()):
                report.line(f"  {fmt_entry(j, m)}: {fmt_complex(c)}")
            _put_jet(report, "field_real", real_v)
        except ValueError:
            report.line("field is not conjugate-symmetric; left complex")
    verdict = certify(G, X, gf.tol)
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
    return X, verdict


def cmd_embed(gf: GermFile, report: Report) -> int:
    outcome, _ = _embed_pipeline(gf, report)
    if isinstance(outcome, Obstruction):
        return EXIT_OBSTRUCTION
    return EXIT_OK


def cmd_verify(gf: GermFile, report: Report) -> int:
    outcome, verdict = _embed_pipeline(gf, report)
    if isinstance(outcome, Obstruction):
        return EXIT_OBSTRUCTION
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
        code = _COMMANDS[args.verb](gf, report)
    except (SpectralError, NearResonanceError, ExactnessError, ValueError) as exc:
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
