"""Correctness checker: compares one CLI run with the outcome theory predicts.

``causes(case, code, machine, exc)`` returns the failure causes of one germ
(an empty list when it passed).  A germ fails on an uncaught exception, an
exit code, ``status`` or blocked set other than the expected one,
``verified=no``, a conjugacy residual above ``tol * scale``, an
``analyze`` resonance set or branch that differs from this module's own
exact scan of ``<m, mu> - mu_j``, or a planar verdict that differs from
the classification theorem.

Two defects of the program are known and stay visible as failures:

* ``exception:TypeError`` from the ``normal-form`` verb, which formats the
  smallest divisor of a degree that solved no coefficient (it is ``None``);
* ``residual`` on float ``normal-form`` germs, because ``jets.ZERO_TOL``
  prunes small transform coefficients that higher powers then amplify.

``unknown(failures)`` lists the causes that are neither, so a run can say
whether anything went wrong beyond them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gen import monomials

# (verb, cause, mode) of the known defects
KNOWN_DEFECTS = {
    ("normal-form", "exception:TypeError", "exact"),
    ("normal-form", "exception:TypeError", "float"),
    ("normal-form", "residual", "float"),
}


def causes(case, code, machine: dict, exc: BaseException | None) -> list:
    if exc is not None:
        return [f"exception:{type(exc).__name__}"]
    want = case.expect
    out = []
    if code != want["exit"]:
        out.append("exit")
    if "status" in want and machine.get("status") != want["status"]:
        out.append("status")
    if "blocked" in want:
        if _entries(machine.get("blocked")) != want["blocked"]:
            out.append("blocked")
        if machine.get("blocked_degree") != want["blocked_degree"]:
            out.append("blocked_degree")
    if "verified" in want and machine.get("verified") != want["verified"]:
        out.append("verified=no")
    if "residual_max" in want:
        res = machine.get("residual_conjugacy")
        if res is None or not float(res) <= want["residual_max"]:
            out.append("residual")
    if "embeddable" in want and machine.get("embeddable") != want["embeddable"]:
        out.append("embeddable")
    if case.verb == "analyze" and not out:
        out += _check_analyze(case, machine)
    return out


def unknown(failures) -> list:
    """Causes from (case, cause) pairs that are not known defects."""
    return sorted(
        {c for case, c in failures if (case.verb, c, case.mode) not in KNOWN_DEFECTS}
    )


def _entries(value) -> frozenset:
    return frozenset(e for e in (value or "").split(";") if e)


def _check_analyze(case, machine: dict) -> list:
    if machine.get("real_log") != "yes":
        return ["real_log"]
    want = scan(case.spec, case.expect["degree"])
    out = [
        f"resonance:{key}"
        for key in ("map_resonant", "field_resonant", "weak")
        if _entries(machine.get(key)) != want[key]
    ]
    if machine.get("weakly_nonresonant_branch") != want["branch"]:
        out.append("branch")
    return out


# -- exact scan of <m, mu> - mu_j ------------------------------------------------


def _primes(q: Fraction) -> dict:
    """Exponents of the prime factorization of a positive rational."""
    out: dict = {}
    for num, sign in ((q.numerator, 1), (q.denominator, -1)):
        p = 2
        while num > 1:
            while num % p == 0:
                out[p] = out.get(p, 0) + sign
                num //= p
            p += 1
    return out


def _log_mus(spec):
    """Symbolic logarithms per complexified coordinate, principal branch.

    Each is (real, pi, theta): ``real`` maps basis symbols (primes for
    ln p, "u" for a rational exponent) to rational coefficients, ``pi`` is
    the coefficient of i*pi, and ``theta`` maps a generic-rotation block to
    the coefficient of i*angle.  ln p for distinct primes, 1 and pi and a
    generic angle are linearly independent over the rationals, so a sum is
    zero exactly when every coefficient is.
    """
    mus, slots = [], []
    for b, block in enumerate(spec):
        kind = block[0]
        if kind == "jordan":
            mus.append((_primes(Fraction(block[1])), Fraction(0), {}))
            continue
        if kind == "jordan-exp":
            mus.append(({"u": Fraction(block[1])}, Fraction(0), {}))
            continue
        slots.append((b, len(mus)))
        if kind == "rotation-exp":
            real, pi, theta = {"u": Fraction(block[1])}, Fraction(block[2]), {}
        elif kind == "rotation":
            a, c = Fraction(block[1]), Fraction(block[2])
            real = {p: Fraction(e, 2) for p, e in _primes(a * a + c * c).items()}
            pi, theta = Fraction(0), {b: Fraction(-1)}  # mu_z = ln|l| - i*atan2(c, a)
        else:  # negpair or paired jordan blocks: mu_z = ln|l| - i*pi
            real, pi, theta = _primes(-Fraction(block[1])), Fraction(-1), {}
        mus.append((real, pi, theta))
        mus.append((real, -pi, {k: -v for k, v in theta.items()}))
    return mus, slots


def _add(acc: dict, d: dict, k) -> dict:
    """acc + k * d, without zero coefficients."""
    out = dict(acc)
    for key, v in d.items():
        out[key] = out.get(key, 0) + k * v
    return {key: v for key, v in out.items() if v}


def scan(spec, degree: int) -> dict:
    """Resonance sets (1-based CLI entries) and the first weakly nonresonant branch."""
    mus, slots = _log_mus(spec)
    n = len(mus)
    # pairs whose difference has zero real part and no generic angle, with
    # the i*pi coefficient of mu_j - <m, mu> and where each slot enters it
    candidates = []
    for r in range(2, degree + 1):
        for m in monomials(n, r):
            real, pi, theta = {}, Fraction(0), {}
            for k, e in enumerate(m):
                if e:
                    real = _add(real, mus[k][0], e)
                    pi += e * mus[k][1]
                    theta = _add(theta, mus[k][2], e)
            for j in range(n):
                if _add(real, mus[j][0], -1) or _add(theta, mus[j][2], -1):
                    continue
                shift = [m[z] - m[z + 1] - (j == z) + (j == z + 1) for _, z in slots]
                candidates.append((j, m, mus[j][1] - pi, shift))
    # a branch value k on a slot adds -2*pi*i*k to mu_z and +2*pi*i*k to mu_zbar
    rng = range(-3, 4)
    order = sorted(itertools.product(rng, repeat=len(slots)), key=lambda c: (sum(map(abs, c)), c))
    branch = "none"
    for values in order:
        if all(_weak_l(d, s, values) is None for _, _, d, s in candidates):
            full = [0] * len(spec)
            for (b, _), v in zip(slots, values):
                full[b] = v
            branch = ":".join(map(str, full))
            break
    field, weak = set(), set()
    zero = (0,) * len(slots)
    for j, m, d, s in candidates:
        l = _weak_l(d, s, zero)
        ms = ",".join(map(str, m))
        if d == 0:
            field.add(f"({j + 1},({ms}))")
        elif l is not None:
            weak.add(f"({j + 1},({ms}),{l})")
    return {
        "map_resonant": frozenset(field | {_pair_of(e) for e in weak}),
        "field_resonant": frozenset(field),
        "weak": frozenset(weak),
        "branch": branch,
    }


def _pair_of(weak_entry: str) -> str:
    """'(j,(m),l)' -> '(j,(m))'."""
    return weak_entry[: weak_entry.rindex(",")] + ")"


def _weak_l(d: Fraction, shift, values):
    """l with mu_j - <m, mu> = 2*pi*i*l on branch ``values``, when l != 0.

    ``d`` is the i*pi coefficient on the principal branch; the branch adds
    2 * sum(shift * values) to it.
    """
    total = d + 2 * sum(s * v for s, v in zip(shift, values))
    if total == 0 or total.denominator != 1 or total.numerator % 2:
        return None
    return total.numerator // 2
