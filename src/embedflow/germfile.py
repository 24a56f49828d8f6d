"""Plain-text germ specifications.

A germ file is line oriented with four sections:

    # comments and blank lines are ignored
    HEADER
    dimension 3
    degree 8
    mode float
    LINEAR
    jordan-exp 8 1
    rotation-exp 1 1/4 1
    NONLINEAR
    1 0 4 4 7/10
    OPTIONS
    tol 1e-09

HEADER fixes the dimension n, the jet truncation N, and the coefficient
mode.  LINEAR lists diagonal blocks in coordinate order:

    jordan LAMBDA SIZE          real eigenvalue, unit subdiagonal cells
    jordan-exp U SIZE           eigenvalue e^U with exact log U (rational)
    rotation ALPHA BETA CELLS   [[a, b], [-b, a]] cells, lambda_z = a - i*b
    rotation-exp U Q CELLS      lambda_z = e^(U + i*pi*Q), exact log
    negpair LAMBDA CELLS        paired equal negative eigenvalue

NONLINEAR records are ``j m_1 .. m_n re [im]`` with 1-based component j
and real coordinates; im defaults to 0.  OPTIONS may set ``tol`` and the
logarithm branch integers ``branch-k``/``branch-l`` (one per negative
pair / rotation block).  Rational literals (``7/10``) parse in either
mode; decimals are accepted and, in exact mode, converted exactly.  Every
number must convert to a finite float, nonzero when it is, and e^U of a
``-exp`` block too; ``tol`` must be positive, the degree at least 2, block
sizes and cell counts positive, a ``negpair`` eigenvalue negative and
exponents nonnegative, and no two records may share (j, m).  Each such
error is a parse error that names its line; a missing HEADER key and
LINEAR blocks that do not cover the dimension, which no one line holds,
read line 0.

Every germ of a process whose LINEAR section has the same lines gets the
same :class:`BlockMatrix` object, from a table of the last
``LINEAR_PARTS`` sections, so that the spectral analyses kept on it
(:mod:`embedflow.spectral`) are computed once per distinct section.  Only
``rotation`` lines parse differently by mode, to floats in float mode and
to fractions in exact mode, and they are keyed apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .jets import MODE_EXACT, MODE_FLOAT, MultiIndex, PolyJet, complexify
from .normal_form import GermSpec
from .scalars import EigenScalar, QQi
from .spectral import (
    BlockMatrix,
    JordanBlock,
    NegativePairBlock,
    RotationBlock,
    pair_negative_blocks,
)
from .tolerances import DEFAULT_TOL

__all__ = ["GermFile", "GermParseError", "parse_germ", "serialize_germ"]


class GermParseError(ValueError):
    """Malformed germ file; message names the offending line."""

    def __init__(self, line_no: int, line: str, message: str):
        self.line_no = line_no
        self.line = line
        super().__init__(f"line {line_no}: {message} (in {line!r})")


@dataclass(frozen=True)
class GermFile:
    """Parsed germ specification in real coordinates.

    ``terms`` holds (j, m, coeff) with 0-based j; ``branch_k``/``branch_l``
    are the optional logarithm branch integers in block order.
    """

    dim: int
    degree: int
    mode: str
    blocks: BlockMatrix
    terms: tuple
    tol: float = DEFAULT_TOL
    branch_k: tuple = ()
    branch_l: tuple = ()

    def real_jet(self) -> PolyJet:
        """The jet of ``terms``, built once per germ file."""
        return self._real_jet

    @cached_property
    def _real_jet(self) -> PolyJet:
        return PolyJet.build(self.dim, self.degree, self.mode, self.terms)

    def to_spec(self):
        """Complexified GermSpec plus the pairing permutation used.

        Negative Jordan blocks are paired (raises SpectralError when
        impossible), and one call of :func:`complexify` relabels the
        coordinates accordingly and pushes the jet into complex pair
        coordinates.
        """
        paired, perm = pair_negative_blocks(self.blocks)
        zjet = complexify(self.real_jet(), paired.pairing(), perm)
        return GermSpec(paired, zjet, self.degree), paired, perm


_MODES = (MODE_FLOAT, MODE_EXACT)
_SECTIONS = ("HEADER", "LINEAR", "NONLINEAR", "OPTIONS")

# The parsed LINEAR sections of the process, keyed by their split lines (not
# by block values: ``JordanBlock(2.0, 1)`` equals ``JordanBlock(Fraction(2),
# 1)``, yet the two analyse differently), least recently used first.  A kept
# linear part with its analyses takes 7-12 KB on germs with n <= 5 and
# N <= 10 (tracemalloc), and up to 6.6 MB when one resonance scan lists all
# ~95,000 (j, m) pairs that a MAX_JET_SIZE header allows: 32 of them hold
# under 0.5 MB in the common case and about 210 MB at worst.
LINEAR_PARTS = 32
_linear_parts: dict = {}


def _shared_linear_part(key: tuple, blocks: list) -> BlockMatrix:
    """The table's matrix for the LINEAR lines ``key``, made from ``blocks``
    on a miss; the least recently used one leaves a full table."""
    bm = _linear_parts.pop(key, None)
    if bm is None:
        bm = BlockMatrix(tuple(blocks))
        if len(_linear_parts) >= LINEAR_PARTS:
            del _linear_parts[next(iter(_linear_parts))]
    _linear_parts[key] = bm
    return bm


def _float_range(value: Fraction, tok: str, line_no: int, line: str) -> Fraction:
    """``value``, refused unless it is a finite float, nonzero when it is."""
    try:
        if float(value) or not value:
            return value
    except OverflowError:
        pass
    raise GermParseError(line_no, line, f"{tok!r} is outside the float range")


def _parse_fraction(tok: str, line_no: int, line: str) -> Fraction:
    try:
        value = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise GermParseError(line_no, line, f"expected a rational number, got {tok!r}")
    return _float_range(value, tok, line_no, line)


def _parse_number(tok: str, mode: str, line_no: int, line: str):
    """Coefficient literal: Fraction in exact mode, float otherwise."""
    try:
        value = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise GermParseError(line_no, line, f"bad number {tok!r}")
    _float_range(value, tok, line_no, line)
    return value if mode == MODE_EXACT else float(value)


def _parse_int(tok: str, line_no: int, line: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GermParseError(line_no, line, f"expected an integer, got {tok!r}")


def _exp(u, line_no, line) -> float:
    """e^u, refused unless it is a finite nonzero float."""
    try:
        if r := math.exp(u):
            return r
    except OverflowError:
        pass
    raise GermParseError(line_no, line, "e^u is not a finite nonzero float")


def _linear_block(parts, line_no, line):
    kind = parts[0]
    args = parts[1:]

    def need(k):
        if len(args) != k:
            raise GermParseError(
                line_no, line, f"{kind} takes {k} arguments, got {len(args)}"
            )

    if kind == "jordan":
        need(2)
        lam = _parse_fraction(args[0], line_no, line)
        size = _parse_int(args[1], line_no, line)
        if lam == 0:
            raise GermParseError(line_no, line, "zero eigenvalue")
        return JordanBlock(lam, size)
    if kind == "jordan-exp":
        need(2)
        u = _parse_fraction(args[0], line_no, line)
        size = _parse_int(args[1], line_no, line)
        return JordanBlock(
            _exp(u, line_no, line), size, mu=EigenScalar.from_parts(rat=u)
        )
    if kind == "rotation":
        need(3)
        alpha = _parse_fraction(args[0], line_no, line)
        beta = _parse_fraction(args[1], line_no, line)
        cells = _parse_int(args[2], line_no, line)
        if beta == 0:
            raise GermParseError(line_no, line, "rotation needs beta != 0")
        return RotationBlock(alpha, beta, cells)
    if kind == "rotation-exp":
        need(3)
        u = _parse_fraction(args[0], line_no, line)
        q = _parse_fraction(args[1], line_no, line)
        cells = _parse_int(args[2], line_no, line)
        r = _exp(u, line_no, line)
        theta = math.pi * float(q)
        # lambda_z = alpha - i*beta = e^u * e^(i*pi*q)
        block = RotationBlock(
            r * math.cos(theta),
            -r * math.sin(theta),
            cells,
            mu=EigenScalar.from_parts(rat=u, pi_part=q),
        )
        return block
    if kind == "negpair":
        need(2)
        lam = _parse_fraction(args[0], line_no, line)
        cells = _parse_int(args[1], line_no, line)
        return NegativePairBlock(lam, cells)
    raise GermParseError(line_no, line, f"unknown linear block kind {kind!r}")


def parse_germ(text: str) -> GermFile:
    header: dict = {}
    blocks: list = []
    linear: list = []  # the split LINEAR lines, the key of the shared matrix
    records: list = []
    options: dict = {}
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in _SECTIONS:
            section = line
            continue
        parts = line.split()
        if section == "HEADER":
            if len(parts) != 2 or parts[0] not in ("dimension", "degree", "mode"):
                raise GermParseError(line_no, raw, "expected 'dimension|degree|mode VALUE'")
            key = parts[0]
            if key == "mode":
                if parts[1] not in _MODES:
                    raise GermParseError(line_no, raw, f"mode must be one of {_MODES}")
                header[key] = parts[1]
            else:
                header[key] = _parse_int(parts[1], line_no, raw)
                if key == "dimension" and header[key] < 1:
                    raise GermParseError(line_no, raw, "dimension must be positive")
                if key == "degree" and header[key] < 2:
                    raise GermParseError(line_no, raw, "degree must be at least 2")
        elif section == "LINEAR":
            try:
                blocks.append(_linear_block(parts, line_no, raw))
            except GermParseError:
                raise
            except ValueError as exc:  # a block's own check: its size, cells or sign
                raise GermParseError(line_no, raw, str(exc)) from None
            linear.append(tuple(parts))
        elif section == "NONLINEAR":
            records.append((line_no, raw, parts))
        elif section == "OPTIONS":
            if not parts:
                continue
            key, vals = parts[0], parts[1:]
            if key == "tol":
                if len(vals) != 1:
                    raise GermParseError(line_no, raw, "tol takes one value")
                tol = float(_parse_fraction(vals[0], line_no, raw))
                if tol <= 0:
                    raise GermParseError(line_no, raw, f"tol must be positive, got {vals[0]!r}")
                options["tol"] = tol
            elif key in ("branch-k", "branch-l"):
                options[key] = tuple(_parse_int(v, line_no, raw) for v in vals)
            else:
                raise GermParseError(line_no, raw, f"unknown option {key!r}")
        else:
            raise GermParseError(line_no, raw, "content before a section header")
    for key in ("dimension", "degree", "mode"):
        if key not in header:
            raise GermParseError(0, "", f"HEADER is missing {key!r}")
    n, N, mode = header["dimension"], header["degree"], header["mode"]
    if mode == MODE_FLOAT:
        # float germs read rotation parameters as floats; their key tells
        # them from the same lines of an exact germ, which keeps fractions
        for i, parts in enumerate(linear):
            if parts[0] == "rotation":
                b = blocks[i]
                blocks[i] = RotationBlock(float(b.alpha), float(b.beta), b.cells)
                linear[i] = (MODE_FLOAT, *parts)
    covered = sum(b.order for b in blocks)
    if covered != n:
        raise GermParseError(
            0, "", f"LINEAR blocks cover {covered} coordinates, dimension says {n}"
        )
    terms, seen = [], set()
    for line_no, raw, parts in records:
        if len(parts) not in (n + 2, n + 3):
            raise GermParseError(
                line_no, raw,
                f"record needs 'j m_1..m_{n} re [im]' ({n + 2} or {n + 3} fields)",
            )
        j = _parse_int(parts[0], line_no, raw)
        if not 1 <= j <= n:
            raise GermParseError(line_no, raw, f"component {j} out of range 1..{n}")
        exponents = [_parse_int(t, line_no, raw) for t in parts[1 : n + 1]]
        try:
            m = MultiIndex(exponents)
        except ValueError as exc:  # a negative entry
            raise GermParseError(line_no, raw, str(exc)) from None
        if not 2 <= m.degree <= N:
            raise GermParseError(
                line_no, raw, f"exponent degree {m.degree} outside 2..{N}"
            )
        re = _parse_number(parts[n + 1], mode, line_no, raw)
        if len(parts) == n + 3:
            im = _parse_number(parts[n + 2], mode, line_no, raw)
        else:
            im = 0
        if mode == MODE_EXACT:
            coeff = QQi(re, im)
        else:
            coeff = complex(re, im)
        if (j, m) in seen:
            raise GermParseError(
                line_no, raw, f"duplicate record for component {j}, exponent {tuple(m)}"
            )
        seen.add((j, m))
        terms.append((j - 1, m, coeff))
    return GermFile(
        dim=n,
        degree=N,
        mode=mode,
        blocks=_shared_linear_part(tuple(linear), blocks),
        terms=tuple(terms),
        tol=options.get("tol", DEFAULT_TOL),
        branch_k=options.get("branch-k", ()),
        branch_l=options.get("branch-l", ()),
    )


def _fmt_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt_coeff(c, mode: str):
    if mode == MODE_EXACT:
        return _fmt_fraction(c.re), _fmt_fraction(c.im)
    c = complex(c)
    return repr(c.real), repr(c.imag)


def _fmt_block(b) -> str:
    if isinstance(b, JordanBlock):
        if b.mu is not None:
            return f"jordan-exp {_fmt_fraction(b.mu.rat)} {b.size}"
        return f"jordan {_fmt_fraction(Fraction(b.eigenvalue))} {b.size}"
    if isinstance(b, RotationBlock):
        if b.mu is not None:
            return (
                f"rotation-exp {_fmt_fraction(b.mu.rat)} "
                f"{_fmt_fraction(b.mu.pi_part)} {b.cells}"
            )
        if isinstance(b.alpha, Fraction):
            return f"rotation {_fmt_fraction(b.alpha)} {_fmt_fraction(b.beta)} {b.cells}"
        return f"rotation {b.alpha!r} {b.beta!r} {b.cells}"
    if isinstance(b, NegativePairBlock):
        return f"negpair {_fmt_fraction(Fraction(b.eigenvalue))} {b.cells}"
    raise TypeError(f"cannot serialize {type(b).__name__}")


def serialize_germ(gf: GermFile) -> str:
    """Canonical text: fixed section order, sorted records, one space fields."""
    out = ["HEADER"]
    out.append(f"dimension {gf.dim}")
    out.append(f"degree {gf.degree}")
    out.append(f"mode {gf.mode}")
    out.append("LINEAR")
    for b in gf.blocks.blocks:
        out.append(_fmt_block(b))
    out.append("NONLINEAR")
    for j, m, c in sorted(gf.terms, key=lambda t: (t[0], tuple(t[1]))):
        re, im = _fmt_coeff(c, gf.mode)
        ms = " ".join(str(e) for e in m)
        if im in ("0", "0.0"):
            out.append(f"{j + 1} {ms} {re}")
        else:
            out.append(f"{j + 1} {ms} {re} {im}")
    opts = []
    if gf.tol != DEFAULT_TOL:
        opts.append(f"tol {gf.tol!r}")
    if gf.branch_k:
        opts.append("branch-k " + " ".join(str(k) for k in gf.branch_k))
    if gf.branch_l:
        opts.append("branch-l " + " ".join(str(l) for l in gf.branch_l))
    if opts:
        out.append("OPTIONS")
        out.extend(opts)
    return "\n".join(out) + "\n"
