"""Laurent polynomials in pi with QQi coefficients, kept for the reference flow.

Time-one integrals over weakly resonant directions produce exact
1/(2*pi*l) factors.  The package's flow never meets them: its fields are
field resonant and their Lie series stays in QQi.  The reference flow of
``_expflow.py``, which also serves fields with weak terms, keeps them
here.  A value free of pi equals, and hashes as, its QQi.
"""

from __future__ import annotations

import math
from fractions import Fraction

from embedflow.scalars import ExactnessError, QQi

_ZERO = QQi(0)


class PiPoly:
    """Laurent polynomial sum_e c_e * pi**e with QQi coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = QQi.coerce(c)
                if c:
                    clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PiPoly is immutable")

    @staticmethod
    def coerce(x) -> "PiPoly":
        if isinstance(x, PiPoly):
            return x
        if isinstance(x, (int, Fraction, QQi)):
            return PiPoly({0: QQi.coerce(x)})
        raise TypeError(f"cannot coerce {type(x).__name__} to PiPoly")

    @staticmethod
    def monomial(coeff, power: int = 0) -> "PiPoly":
        return PiPoly({power: QQi.coerce(coeff)})

    def __add__(self, other):
        try:
            other = PiPoly.coerce(other)
        except TypeError:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return PiPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = PiPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        try:
            other = PiPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __neg__(self):
        return PiPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        try:
            other = PiPoly.coerce(other)
        except TypeError:
            return NotImplemented
        out: dict[int, QQi] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, _ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return PiPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiPoly):
            if len(other.terms) != 1:
                raise ExactnessError("PiPoly division only by monomials")
            (e, c), = other.terms.items()
            return PiPoly({ee - e: cc / c for ee, cc in self.terms.items()})
        if isinstance(other, (int, Fraction, QQi)):
            c = QQi.coerce(other)
            return PiPoly({e: cc / c for e, cc in self.terms.items()})
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        try:
            other = PiPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a value free of pi equals, so hashes as, its QQi
        q = self.as_qqi()
        if q is not None:
            return hash(q)
        return hash(frozenset(self.terms.items()))

    def as_qqi(self):
        """Return the QQi value if no pi powers are present, else None."""
        if not self.terms:
            return _ZERO
        if set(self.terms) == {0}:
            return self.terms[0]
        return None

    def __complex__(self) -> complex:
        return sum(
            (complex(c) * math.pi**e for e, c in self.terms.items()),
            complex(0),
        )

    def __repr__(self):
        if not self.terms:
            return "PiPoly(0)"
        parts = [f"pi^{e}*({c!r})" for e, c in sorted(self.terms.items())]
        return "PiPoly(" + " + ".join(parts) + ")"
