"""Flow coefficients: sums of c * t^k * e^(2*pi*i*l*t), keyed by the integers (k, l).

An embedding field X = By + v has its nonlinear support on the resonance
lattice, so its flow has Floquet form: every coefficient of component j
of the flow is e^(mu_j t) times a polynomial in t and e^(+-2*pi*i*t).
:class:`TrigPoly` holds that polynomial;
:class:`embedflow.embedding.FlowJet` carries the factor e^(mu_j t).

Coefficients are QQi/PiPoly (exact) or complex, never mixed.  The one
integral the flow takes (:meth:`TrigPoly.integrate_to_t`) has closed form
with divisors 2*pi*i*l for nonzero integers l, so no divisor is below
2*pi, and in exact arithmetic its 1/(2*pi*l) factors land in the PiPoly
ring.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache

from .scalars import PiPoly, QQi

__all__ = ["TrigPoly"]

_TWO_PI = 2.0 * math.pi


def _fact_ratio(k: int, j: int) -> int:
    """k! / j! for j <= k."""
    out = 1
    for v in range(j + 1, k + 1):
        out *= v
    return out


@cache
def _weights(k: int, l: int, exact: bool):
    """``(w, w0)`` with integral_0^t s^k e^(as) ds = sum_j w[j] t^j e^(at) + w0
    for a = 2*pi*i*l, l != 0: w[j] = (-1)^(k-j) k!/j! a^-(k-j+1) and
    w0 = (-1)^(k+1) k! a^-(k+1)."""
    if exact:
        # a^-1 = -i/(2*pi*l)
        inv = [PiPoly.monomial(QQi(0, Fraction(-1, 2 * l)) ** p, -p) for p in range(k + 2)]
    else:
        a = complex(0.0, _TWO_PI * l)
        inv = [a**-p for p in range(k + 2)]
    w = tuple(inv[k - j + 1] * ((-1) ** (k - j) * _fact_ratio(k, j)) for j in range(k + 1))
    return w, inv[k + 1] * ((-1) ** (k + 1) * _fact_ratio(k, 0))


class TrigPoly:
    """Finite sum of terms c * t^k * e^(2*pi*i*l*t), as ``{(k, l): c}``.

    ``terms`` holds no zero coefficient; every operation keeps it so.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            if s is None:
                out[key] = c
            elif s := s + c:
                out[key] = s
            else:
                del out[key]
        return TrigPoly(out)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out = {}
        get = out.get
        terms = other.terms.items()
        for (k1, l1), c1 in self.terms.items():
            for (k2, l2), c2 in terms:
                key = (k1 + k2, l1 + l2)
                s = get(key)
                out[key] = c1 * c2 if s is None else s + c1 * c2
        return TrigPoly({key: c for key, c in out.items() if c})

    def __rmul__(self, c) -> "TrigPoly":
        """The scalar multiple c * self."""
        if not c:
            return TrigPoly({})
        return TrigPoly({key: c * cc for key, cc in self.terms.items()})

    def integrate_to_t(self) -> "TrigPoly":
        """The integral of p = self from 0 to t.

        A term c s^k integrates to c t^(k+1)/(k+1); a term
        c s^k e^(2*pi*i*l*s), l != 0, to the terms of :func:`_weights` at
        frequency l and a constant.
        """
        out: dict = {}
        get = out.get
        for (k, l), c in self.terms.items():
            exact = c.__class__ is not complex
            if not l:
                pieces = [((k + 1, 0), c * Fraction(1, k + 1) if exact else c / (k + 1))]
            else:
                w, w0 = _weights(k, l, exact)
                pieces = [((j, l), c * wj) for j, wj in enumerate(w)]
                pieces.append(((0, 0), c * w0))
            for key, v in pieces:
                s = get(key)
                out[key] = v if s is None else s + v
        return TrigPoly({key: c for key, c in out.items() if c})

    def eval_at(self, t: float) -> complex:
        total = 0j
        for (k, l), c in self.terms.items():
            total += complex(c) * t**k * cmath.exp(complex(0.0, _TWO_PI * l * t))
        return total

    def __repr__(self):
        bits = [f"({c!r})*t^{k}*e^(2*pi*i*{l}*t)" for (k, l), c in sorted(self.terms.items())]
        return "TrigPoly[" + " + ".join(bits) + "]" if bits else "TrigPoly(0)"
