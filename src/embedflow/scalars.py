"""Exact scalar arithmetic underpinning resonance tests and exact jets.

Two small scalar domains cover everything the library needs beyond machine
complex numbers:

``QQi``
    Gaussian rationals (a + b*i)/d held as three Python ints in canonical
    form: d > 0 and gcd(a, b, d) = 1.  Equal values have equal fields, so
    equality is a field compare, and arithmetic is integer multiplication
    and one gcd, without :class:`fractions.Fraction` normalisation.
``EigenScalar``
    Exact logarithms of eigenvalues, of the form

        rat + sum_p c_p * ln(p) + i * pi * q

    with ``rat``, ``c_p`` and ``q`` rational and ``p`` prime.  Q-linear
    independence of {1, ln 2, ln 3, ...} and transcendence of pi make the
    zero test exact, which turns resonance detection into integer
    arithmetic.

All values are immutable and hashable (a ``QQi`` keeps its fields private
and exposes only read-only views); every operation is a pure function, so
instances can be shared freely across threads.  A value equal to an int or
a Fraction hashes as that number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "ExactnessError",
    "QQi",
    "EigenScalar",
    "factor_positive_rational",
]


class ExactnessError(ArithmeticError):
    """An exact-mode computation left the supported scalar ring."""


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class QQi:
    """Gaussian rational (a + b*i)/d held as three ints.

    The canonical form has ``d > 0`` and ``gcd(a, b, d) == 1``; every
    operation returns it, so equal values have equal fields.  Products
    and sums are integer arithmetic and one three-way ``math.gcd``.
    ``re`` and ``im`` are read-only :class:`fractions.Fraction` views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _fraction(re), _fraction(im)
        q, s = re.denominator, im.denominator
        # over lcm(q, s) the triple is canonical: a prime of d divides the
        # denominator of a lowest-terms part, so not its numerator
        d = q // gcd(q, s) * s
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        if isinstance(x, (int, Fraction)):
            return QQi(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QQi")

    def __add__(self, other):
        if other.__class__ is not QQi:
            try:
                other = QQi.coerce(other)
            except TypeError:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not QQi:
            try:
                other = QQi.coerce(other)
            except TypeError:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        try:
            other = QQi.coerce(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if other.__class__ is not QQi:
            try:
                other = QQi.coerce(other)
            except TypeError:
                return NotImplemented
        a1, b1 = self._a, self._b
        a2, b2 = other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not QQi:
            try:
                other = QQi.coerce(other)
            except TypeError:
                return NotImplemented
        a2, b2, d2 = other._a, other._b, other._d
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero QQi")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / |a2 + b2 i|^2
        a1, b1 = self._a, self._b
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm
        )

    def __rtruediv__(self, other):
        try:
            other = QQi.coerce(other)
        except TypeError:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _QQI_ONE / self ** (-n)
        out = _QQI_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QQi":
        return _reduced(self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if other.__class__ is QQi:
            return (
                self._a == other._a and self._b == other._b and self._d == other._d
            )
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                self._b == 0
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __complex__(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        if not self._b:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


_new = object.__new__


def _reduced(a: int, b: int, d: int) -> QQi:
    """The QQi (a + b*i)/d, d > 0, brought to canonical form."""
    g = gcd(d, a, b)  # d first: gcd stops reducing once it reaches 1
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(QQi)
    z._a = a
    z._b = b
    z._d = d
    return z


_QQI_ONE = QQi(1)


def factor_positive_rational(q: Fraction) -> tuple[tuple[int, int], ...]:
    """Factor a positive rational into ((prime, exponent), ...), sorted."""
    q = _fraction(q)
    if q <= 0:
        raise ValueError("factorization needs a positive rational")
    out: dict[int, int] = {}
    for value, sign in ((q.numerator, 1), (q.denominator, -1)):
        n = value
        p = 2
        while p * p <= n:
            while n % p == 0:
                out[p] = out.get(p, 0) + sign
                n //= p
            p += 1 if p == 2 else 2
        if n > 1:
            out[n] = out.get(n, 0) + sign
    return tuple(sorted((p, e) for p, e in out.items() if e))


@dataclass(frozen=True)
class EigenScalar:
    """Exact value rat + sum_p logs[p]*ln(p) + i*pi*pi_part.

    Used for logarithms of eigenvalues (and their integer combinations),
    where exactness of the zero test decides resonance.  An eigenvalue is
    read off its block, as a QQi or a complex number, never computed from
    its log.  ``logs`` is a sorted tuple of (prime, Fraction) pairs with
    nonzero coefficients.
    """

    rat: Fraction
    logs: tuple[tuple[int, Fraction], ...]
    pi_part: Fraction

    @staticmethod
    def zero() -> "EigenScalar":
        return EigenScalar(Fraction(0), (), Fraction(0))

    @staticmethod
    def from_parts(rat=0, log_of=1, pi_part=0) -> "EigenScalar":
        """Build rat + ln(log_of) + i*pi*pi_part with rational inputs."""
        log_of = _fraction(log_of)
        logs = tuple(
            (p, Fraction(e)) for p, e in factor_positive_rational(log_of)
        )
        return EigenScalar(_fraction(rat), logs, _fraction(pi_part))

    @staticmethod
    def from_signed_rational(lam) -> "EigenScalar":
        """Exact logarithm (principal) of a nonzero rational: ln|lam| + i*pi*[lam<0]."""
        lam = _fraction(lam)
        if lam == 0:
            raise ValueError("log of zero")
        return EigenScalar.from_parts(0, abs(lam), 0 if lam > 0 else 1)

    def _log_dict(self) -> dict[int, Fraction]:
        return dict(self.logs)

    def __add__(self, other):
        if not isinstance(other, EigenScalar):
            return NotImplemented
        logs = self._log_dict()
        for p, c in other.logs:
            s = logs.get(p, Fraction(0)) + c
            if s:
                logs[p] = s
            else:
                logs.pop(p, None)
        return EigenScalar(
            self.rat + other.rat,
            tuple(sorted(logs.items())),
            self.pi_part + other.pi_part,
        )

    def __sub__(self, other):
        if not isinstance(other, EigenScalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return EigenScalar(
            -self.rat, tuple((p, -c) for p, c in self.logs), -self.pi_part
        )

    def scaled(self, k) -> "EigenScalar":
        k = _fraction(k)
        if not k:
            return EigenScalar.zero()
        return EigenScalar(
            self.rat * k,
            tuple((p, c * k) for p, c in self.logs),
            self.pi_part * k,
        )

    def conjugate(self) -> "EigenScalar":
        return EigenScalar(self.rat, self.logs, -self.pi_part)

    def shifted_2pii(self, l: int) -> "EigenScalar":
        """Add 2*pi*i*l (a branch shift of the exponential)."""
        return EigenScalar(self.rat, self.logs, self.pi_part + 2 * l)

    @property
    def real_is_zero(self) -> bool:
        return self.rat == 0 and not self.logs

    @property
    def is_zero(self) -> bool:
        return self.real_is_zero and self.pi_part == 0

    def __complex__(self) -> complex:
        re = float(self.rat) + sum(float(c) * math.log(p) for p, c in self.logs)
        return complex(re, math.pi * float(self.pi_part))

    def __repr__(self):
        bits = []
        if self.rat:
            bits.append(str(self.rat))
        for p, c in self.logs:
            bits.append(f"{c}*ln{p}")
        if self.pi_part:
            bits.append(f"{self.pi_part}*i*pi")
        return "EigenScalar(" + (" + ".join(bits) or "0") + ")"
