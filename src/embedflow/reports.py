"""Run reports: human-readable text plus a machine-readable tail.

The machine section is a flat list of ``key=value`` lines between
``=== machine ===`` and the end of the report, so scripts can consume
results without a serializer.  Component indices and exponent tuples are
rendered 1-based in both sections (the library itself is 0-based).
"""

from __future__ import annotations

import math

__all__ = ["Report", "fmt_entry", "fmt_complex", "parse_machine"]


def _rounded(x) -> float:
    """The float nearest x, +-inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def fmt_complex(c) -> str:
    try:
        c = complex(c)
    except OverflowError:  # an exact value beyond the float range
        c = complex(_rounded(c.re), _rounded(c.im))
    if c.imag == 0:
        return repr(c.real)
    return f"{c.real!r}{'+' if c.imag >= 0 else '-'}{abs(c.imag)!r}i"


def fmt_monomial(j: int, m) -> str:
    """1-based (j, m) as e.g. ``(1,(0,4,4))``."""
    ms = ",".join(str(e) for e in m)
    return f"({j + 1},({ms}))"


def fmt_entry(j: int, m, l=None) -> str:
    if l is None:
        return fmt_monomial(j, m)
    ms = ",".join(str(e) for e in m)
    return f"({j + 1},({ms}),{l})"


class Report:
    """Accumulates human lines and machine key=value pairs."""

    def __init__(self, title: str):
        self.title = title
        self.lines: list[str] = []
        self.machine: dict[str, str] = {}

    def section(self, name: str):
        if self.lines:
            self.lines.append("")
        self.lines.append(name)
        self.lines.append("-" * len(name))

    def line(self, text: str = ""):
        self.lines.append(text)

    def put(self, key: str, value):
        self.machine[str(key)] = str(value)

    def put_set(self, key: str, entries):
        """Deterministic ;-joined list of preformatted entries."""
        self.machine[str(key)] = ";".join(sorted(entries))

    def render(self) -> str:
        out = [self.title, "=" * len(self.title), ""]
        out.extend(self.lines)
        out.append("")
        out.append("=== machine ===")
        for key, value in self.machine.items():
            out.append(f"{key}={value}")
        return "\n".join(out) + "\n"


def parse_machine(text: str) -> dict:
    """Recover the machine dict from a rendered report."""
    out: dict = {}
    seen = False
    for line in text.splitlines():
        if line.strip() == "=== machine ===":
            seen = True
            continue
        if seen and "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out
