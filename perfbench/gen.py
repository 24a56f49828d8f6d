"""Seeded germ generator for the benchmark workloads.

Every case is one germ file (or a bundled fixture), the CLI verb to run on
it, and the outcome expected from theory.  Expectations never come from
``embedflow.resonance``: they follow from how each family is built.

* ``normalize``: dense random germs, the ``normal-form`` verb.  Each
  ``(j, m)`` with ``2 <= |m| <= N`` is kept with probability 0.3 and a
  small rational coefficient.  Expected: exit 0, status ``ok`` and a
  conjugacy residual at most ``tol * scale``.
* ``verify``: the five fixtures, positive-diagonal germs whose terms sit
  on map-resonant monomials (found by the integer test
  ``lambda^m == lambda_j``), and negative-pair germs built like
  ``paper-F1``.  Positive real spectra have real logarithms, so no weak
  resonance exists and the field must verify.  The ``(l, l, l^2)`` germs
  with ``l < 0`` and a quadratic ``a x1^2 + b x1 x2 + c x2^2`` in the third
  component are blocked at degree 2 on ``(3,(2,0,0),1)`` and
  ``(3,(0,2,0),-1)`` whenever ``(a - c, b) != (0, 0)``.
* ``spectrum``: linear parts with 0, 1 or 2 branchable blocks, the
  ``analyze`` verb, plus ``classify2d`` on planar spectra.  The expected
  resonance sets and branch come from the checker's own exact scan of
  ``<m, mu> - mu_j`` over the symbolic logarithms recorded in ``spec``.

Case i is made from ``random.Random("<workload>:<seed>:<i>:<attempt>")``
(a germ already seen in the run is drawn again with the next attempt), so
the same seed gives byte-identical germs.  Families are taken in
round-robin order, so every run sees the same mix.  Apart from the
fixtures, no germ repeats within a run.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("normalize", "verify", "spectrum")
TOL = 1e-9  # the germ-file default tolerance; no generated file overrides it


@dataclass(frozen=True)
class Case:
    """One timed CLI call and the outcome theory predicts for it."""

    ident: str
    family: str
    verb: str
    mode: str  # "exact" or "float": QQi/EigenScalar data or complex floats
    text: str | None  # germ-file text; None for a bundled fixture
    fixture: str | None = None
    expect: dict = field(default_factory=dict)
    spec: tuple = ()  # symbolic linear blocks, for the resonance scan

    def argv(self, path: str | None) -> list:
        if self.fixture is not None:
            return [self.verb, "--fixture", self.fixture]
        return [self.verb, path]


# -- small helpers -------------------------------------------------------------


def monomials(n: int, degree: int):
    """Exponent tuples of total degree ``degree`` in ``n`` variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        m = [0] * n
        for k in combo:
            m[k] += 1
        out.append(tuple(m))
    return sorted(out, reverse=True)


def _coeff(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-5, 5)
    return Fraction(num, rng.randint(1, 4))


def _fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def germ_text(degree: int, mode: str, spec, terms) -> str:
    """Germ file for the symbolic blocks ``spec`` and (j, m, coeff) terms."""
    dim = sum(_block_order(b) for b in spec)
    lines = ["HEADER", f"dimension {dim}", f"degree {degree}", f"mode {mode}", "LINEAR"]
    lines += [_block_line(b) for b in spec]
    lines.append("NONLINEAR")
    for j, m, c in terms:
        lines.append(f"{j + 1} {' '.join(map(str, m))} {_fmt(c)}")
    return "\n".join(lines) + "\n"


# Symbolic blocks, in germ-file order:
#   ("jordan", lam)          positive or negative rational eigenvalue, size 1
#   ("jordan-exp", u)        eigenvalue e^u
#   ("rotation-exp", u, q)   lambda_z = e^(u + i*pi*q), one cell
#   ("rotation", a, b)       lambda_z = a - i*b, one cell, generic angle
#   ("negpair", lam)         paired negative eigenvalue lam, one cell
#   ("pair", lam)            two adjacent jordan blocks lam < 0 (paired)


def _block_order(b) -> int:
    return 1 if b[0] in ("jordan", "jordan-exp") else 2


def _block_line(b) -> str:
    kind = b[0]
    if kind == "pair":
        return f"jordan {_fmt(b[1])} 1\njordan {_fmt(b[1])} 1"
    if kind == "rotation-exp":
        return f"rotation-exp {_fmt(b[1])} {_fmt(b[2])} 1"
    if kind == "rotation":
        return f"rotation {_fmt(b[1])} {_fmt(b[2])} 1"
    if kind in ("jordan", "jordan-exp"):
        return f"{kind} {_fmt(b[1])} 1"
    return f"negpair {_fmt(b[1])} 1"


def map_resonant(lams, degree: int):
    """(j, m) with lambda^m == lambda_j, by exact rational arithmetic."""
    n = len(lams)
    out = []
    for r in range(2, degree + 1):
        for m in monomials(n, r):
            prod = Fraction(1)
            for lam, e in zip(lams, m):
                prod *= Fraction(lam) ** e
            out += [(j, m) for j in range(n) if prod == lams[j]]
    return out


def _scale(spec, terms) -> float:
    """max(1, max |map jet coefficient|) of the real germ."""
    lin = []
    for b in spec:
        if b[0] in ("jordan-exp", "rotation-exp"):
            lin.append(math.exp(b[1]))
        elif b[0] == "rotation":
            lin.append(max(abs(b[1]), abs(b[2])))
        else:
            lin.append(abs(b[1]))
    return float(max([1] + lin + [abs(c) for _, _, c in terms]))


# -- normalize -------------------------------------------------------------------

_DIAG = {
    "(4,2)": (4, 2),
    "(3,2)": (3, 2),
    "(8,2,4)": (8, 2, 4),
    "(16,2,4,8)": (16, 2, 4, 8),
}
# (name, spectrum key, degree, mode): half exact and half float on positive
# diagonal spectra, plus float germs on the paper-2.3 spectrum.  Exact germs
# cost about three times as much as float germs of the same degree, so they
# run fewer degrees: the latencies of both modes then overlap and the
# medians fall where samples are dense.
NORMALIZE_FAMILIES = [
    ("diag(4,2) N=8", "(4,2)", 8, "exact"),
    ("diag(4,2) N=10", "(4,2)", 10, "float"),
    ("diag(3,2) N=8", "(3,2)", 8, "exact"),
    ("diag(3,2) N=10", "(3,2)", 10, "float"),
    ("diag(8,2,4) N=5", "(8,2,4)", 5, "exact"),
    ("diag(8,2,4) N=6", "(8,2,4)", 6, "float"),
    ("diag(16,2,4,8) N=3", "(16,2,4,8)", 3, "exact"),
    ("diag(16,2,4,8) N=4", "(16,2,4,8)", 4, "float"),
    ("paper-2.3 spectrum N=6", "paper-2.3", 6, "float"),
]
_PAPER23 = (("jordan-exp", Fraction(8)), ("rotation-exp", Fraction(1), Fraction(1, 4)))


def _support(name: str, n: int, degree: int, k: int) -> list:
    """Support of round k: each (j, m) kept with probability 0.3.

    A germ's support sets most of its cost, so round k of every run uses the
    same support, drawn independently of the seed; the seed draws the
    coefficients.  Runs then differ in their coefficients only, which keeps
    their medians steady, and the germs still differ from seed to seed.
    """
    rng = random.Random(f"support:{name}:{k}")
    return [
        (j, m)
        for r in range(2, degree + 1)
        for m in monomials(n, r)
        for j in range(n)
        if rng.random() < 0.3
    ]


def _normalize_case(ident, family, rng, rnd):
    name, key, degree, mode = family
    if key == "paper-2.3":
        spec = _PAPER23
    else:
        spec = tuple(("jordan", Fraction(lam)) for lam in _DIAG[key])
    n = sum(_block_order(b) for b in spec)
    terms = [(j, m, _coeff(rng)) for j, m in _support(name, n, degree, rnd)]
    text = germ_text(degree, mode, spec, terms)
    expect = {"exit": 0, "status": "ok", "residual_max": TOL * _scale(spec, terms)}
    return Case(ident, f"{name} {mode}", "normal-form", mode, text, None, expect, spec)


# -- verify ---------------------------------------------------------------------

# Outcomes listed for the bundled fixtures (README and the paper's examples).
FIXTURES = {
    "resonant-2d": ("exact", {"exit": 0, "status": "field", "verified": "yes"}),
    "paper-2.3": ("float", {"exit": 0, "status": "field", "verified": "yes"}),
    "paper-2.3-blocked": (
        "float",
        {"exit": 2, "status": "obstruction", "blocked_degree": "8",
         "blocked": frozenset({"(1,(0,8,0),-1)", "(1,(0,0,8),1)"})},
    ),
    "paper-F1": (
        "float",
        {"exit": 2, "status": "obstruction", "blocked_degree": "2",
         "blocked": frozenset({"(3,(2,0,0),1)", "(3,(0,2,0),-1)"})},
    ),
    "paper-Astar": (
        "float",
        {"exit": 2, "status": "obstruction", "blocked_degree": "2",
         "blocked": frozenset({"(1,(0,2,0),1)", "(1,(0,0,2),-1)"})},
    ),
}

_NEGATIVE = [Fraction(-3), Fraction(-3, 2), Fraction(-2), Fraction(-5, 2),
             Fraction(-4, 3), Fraction(-5), Fraction(-7, 2), Fraction(-5, 3)]

# Per round: the fixtures, eight (l, l, l^2) germs per mode, which set the
# medians, and six resonant germs, which set the tail.  Four of these are
# exact, the costliest germs, so that the tail falls inside their cluster.
VERIFY_FAMILIES = (
    [("fixture", name) for name in FIXTURES]
    + [("negpair", mode) for mode in ("exact", "float") for _ in range(8)]
    + [("resonant", "exact")] * 4
    + [("resonant", "float")] * 2
)
_RESONANT_LAMS, _RESONANT_DEGREE = (8, 2, 4), 5


def _negpair_case(ident, mode, rng):
    lam = rng.choice(_NEGATIVE)
    a = b = c = Fraction(0)
    while (a - c, b) == (0, 0):
        a, b, c = (rng.choice([Fraction(0), _coeff(rng)]) for _ in range(3))
    spec = (("pair", lam), ("jordan", lam * lam))
    terms = [(2, m, v) for m, v in (((2, 0, 0), a), ((1, 1, 0), b), ((0, 2, 0), c)) if v]
    # degree 3 gives the normal form some work; the solve still stops at 2
    text = germ_text(3, mode, spec, terms)
    expect = {"exit": 2, "status": "obstruction", "blocked_degree": "2",
              "blocked": frozenset({"(3,(2,0,0),1)", "(3,(0,2,0),-1)"})}
    return Case(ident, f"negpair (l,l,l^2) {mode}", "verify", mode, text, None, expect, spec)


def _resonant_case(ident, mode, rng):
    lams, degree = _RESONANT_LAMS, _RESONANT_DEGREE
    spec = tuple(("jordan", Fraction(lam)) for lam in lams)
    n = len(lams)
    resonant = map_resonant([Fraction(x) for x in lams], degree)
    terms = {(j, m): _coeff(rng) for j, m in resonant}
    others = [(j, m) for m in monomials(n, 2) for j in range(n) if (j, m) not in terms]
    for j, m in rng.sample(others, 2):
        terms[(j, m)] = _coeff(rng)
    terms = sorted((j, m, c) for (j, m), c in terms.items())
    text = germ_text(degree, mode, spec, terms)
    expect = {"exit": 0, "status": "field", "verified": "yes"}
    family = f"resonant diag({','.join(map(str, lams))}) N={degree} {mode}"
    return Case(ident, family, "verify", mode, text, None, expect, spec)


def _verify_case(ident, family, rng, rnd):
    if family[0] == "fixture":
        mode, expect = FIXTURES[family[1]]
        return Case(ident, f"fixture {family[1]}", "verify", mode, None, family[1], expect)
    if family[0] == "negpair":
        return _negpair_case(ident, family[1], rng)
    return _resonant_case(ident, family[1], rng)


# -- spectrum -------------------------------------------------------------------

_POS = sorted({Fraction(p, q) for p in range(2, 13) for q in (1, 2, 3) if p > q})
_BASES = [Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4, 3), Fraction(5, 3)]
_PRIMES = [2, 3, 5, 7, 11, 13]


def _u(rng) -> Fraction:
    return Fraction(rng.randint(2, 30), rng.choice((4, 5, 7)))


def _q(rng) -> Fraction:
    return Fraction(rng.choice((1, 2, 3, 4, 5)), rng.choice((6, 7, 9, 11)))


def _spec_weak_2(rng):
    """jordan a^2, negpair -a, rotation-exp u 1/4: weak on every branch."""
    a = rng.choice(_BASES)
    return (("jordan", a * a), ("negpair", -a), ("rotation-exp", _u(rng), Fraction(1, 4)))


def _spec_weak_2_pair(rng):
    """Paired jordan -a blocks, jordan a^2 and a rotation: weak everywhere."""
    a = rng.choice(_BASES)
    return (("pair", -a), ("jordan", a * a), ("rotation-exp", _u(rng), _q(rng)))


def _generic_rotation(rng):
    """("rotation", a, b) with a != b: its angle is not a rational multiple of pi."""
    a = b = 0
    while a == b:
        a, b = Fraction(rng.randint(3, 9), 2), Fraction(rng.randint(1, 7), 3)
    return ("rotation", a, b)


def _spec_weak_2_float(rng):
    """As _spec_weak_2 with a generic rotation: float eigen data."""
    a = rng.choice(_BASES)
    return (("jordan", a * a), ("negpair", -a), _generic_rotation(rng))


def _spec_weak_1(rng):
    """jordan-exp 4u, rotation-exp u 1/2: weak on each of the 7 branches."""
    u = _u(rng)
    return (("jordan-exp", 4 * u), ("rotation-exp", u, Fraction(1, 2)))


def _spec_free_2(rng):
    """Distinct primes and a rotation: no resonance, principal branch works."""
    p, r = rng.sample(_PRIMES, 2)
    return (("jordan", Fraction(p)), ("negpair", Fraction(-r)),
            ("rotation-exp", _u(rng), _q(rng)))


def _spec_free_2_float(rng):
    """Distinct primes and a generic rotation: float data, principal branch works."""
    p, r = rng.sample(_PRIMES, 2)
    return (("jordan", Fraction(p)), ("negpair", Fraction(-r)), _generic_rotation(rng))


def _spec_free_1_float(rng):
    return (("jordan", rng.choice(_POS)), _generic_rotation(rng))


def _spec_diag(rng):
    return tuple(("jordan", lam) for lam in rng.sample(_POS, 3))


def _spec_planar(rng, kinds=6):
    """One of the planar classes; the first four have a real logarithm."""
    kind = rng.randrange(kinds)
    a, b = rng.sample(_POS, 2)
    if kind == 0:
        return (("jordan", a), ("jordan", b))
    if kind == 1:
        return (("pair", -a),)
    if kind == 2:
        return (("negpair", -a),)
    if kind == 3:
        return (("rotation-exp", _u(rng), _q(rng)),)
    if kind == 4:
        return (("jordan", -a), ("jordan", b))
    return (("jordan", -a), ("jordan", -b))


def _spec_planar_log(rng):
    return _spec_planar(rng, kinds=4)


# (name, spec maker, degree, mode, verb).  The heavy families (weak on every
# branch, so the search tries all 7^s candidates) set the tail; the degrees
# are chosen so that the medians fall inside one family's cluster.
SPECTRUM_FAMILIES = [
    ("two blocks, weak on every branch", _spec_weak_2, 3, "exact", "analyze"),
    ("paired jordans, weak on every branch", _spec_weak_2_pair, 3, "exact", "analyze"),
    ("two blocks, weak on every branch", _spec_weak_2_float, 6, "float", "analyze"),
    ("one rotation, weak on every branch", _spec_weak_1, 6, "exact", "analyze"),
    ("two free blocks", _spec_free_2, 5, "exact", "analyze"),
    ("two free blocks", _spec_free_2_float, 6, "float", "analyze"),
    ("one generic rotation", _spec_free_1_float, 8, "float", "analyze"),
    ("positive diagonal", _spec_diag, 8, "exact", "analyze"),
    ("planar", _spec_planar, 8, "exact", "classify2d"),
    ("planar", _spec_planar_log, 4, "exact", "analyze"),
]


def _spectrum_case(ident, family, rng, rnd):
    name, make, degree, mode, verb = family
    spec = make(rng)
    terms = [(0, monomials(sum(_block_order(b) for b in spec), 2)[0], _coeff(rng))]
    text = germ_text(degree, mode, spec, terms)
    if verb == "analyze":
        expect = {"exit": 0, "status": "ok", "degree": degree}
    else:
        expect = _planar_verdict(spec)
    return Case(ident, f"{name} N={degree} {mode} {verb}", verb, mode, text, None, expect, spec)


def _planar_verdict(spec) -> dict:
    """Planar embeddability: no negative eigenvalue, or diag(l, l) with l < 0."""
    negatives = [b for b in spec if b[0] in ("pair", "negpair") or (b[0] == "jordan" and b[1] < 0)]
    ok = not negatives or spec[0][0] in ("pair", "negpair")
    return {"exit": 0 if ok else 2, "embeddable": "yes" if ok else "no"}


# -- entry point -------------------------------------------------------------------

FAMILIES = {
    "normalize": (NORMALIZE_FAMILIES, _normalize_case),
    "verify": (VERIFY_FAMILIES, _verify_case),
    "spectrum": (SPECTRUM_FAMILIES, _spectrum_case),
}


def cycle_length(workload: str) -> int:
    """Cases per round of the family list."""
    return len(FAMILIES[workload][0])


def cases(workload: str, seed: int):
    """Endless stream of distinct cases for ``workload``, fixed by ``seed``."""
    families, make = FAMILIES[workload]
    seen = set()
    for i in itertools.count():
        family = families[i % len(families)]
        for attempt in itertools.count():
            rng = random.Random(f"{workload}:{seed}:{i}:{attempt}")
            case = make(f"{workload}-{i:05d}", family, rng, i // len(families))
            if case.text is None or case.text not in seen:
                break
        if case.text is not None:
            seen.add(case.text)
        yield case
