"""Exponential polynomials c * t^k * e^(a*t): the flow-coefficient ring.

Flow jets of triangular fields have coefficient functions that are finite
sums of such terms.  Exponents ``a`` are either :class:`EigenScalar`
(exact) or complex; coefficients are QQi/PiPoly (exact) or complex, and
the two sides may mix (float coefficients with exact exponents).

The only exponents ever integrated are 0 and 2*pi*i*l with l != 0: the
resonance classes of the monomials involved.  Both cases integrate in
closed form without small denominators (|a| is 0 or at least 2*pi); in
exact arithmetic the 1/(2*pi*l) factors land in the PiPoly ring and the
unit-interval integrals of the weak exponents vanish identically.
Exponents that are merely close to those values are snapped first
(:meth:`ExpPoly.snap_exponents`); anything else is refused rather than
integrated unstably.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .scalars import EigenScalar, ExactnessError, PiPoly, QQi
from .tolerances import UNSTABLE_EXPONENT

__all__ = ["ExpPoly"]

_TWO_PI = 2.0 * math.pi
_EXACT_COEFF = (QQi, PiPoly, int, Fraction)


def key_add(a, b):
    if isinstance(a, EigenScalar) and isinstance(b, EigenScalar):
        return a + b
    return complex(a) + complex(b)


def key_two_pi_l(a, tol: float = 0.0):
    """Integer l with a = 2*pi*i*l (exactly, or within ``tol`` for floats)."""
    if isinstance(a, EigenScalar):
        return a.two_pi_integer()
    a = complex(a)
    l = round(a.imag / _TWO_PI)
    if math.hypot(a.real, a.imag - _TWO_PI * l) <= tol:
        return l
    return None


def coeff_is_exact(c) -> bool:
    return isinstance(c, _EXACT_COEFF)


def coeff_mul(c1, c2):
    if coeff_is_exact(c1) and coeff_is_exact(c2):
        return c1 * c2
    return complex(c1) * complex(c2)


def coeff_add(c1, c2):
    if coeff_is_exact(c1) and coeff_is_exact(c2):
        if isinstance(c1, PiPoly) or isinstance(c2, PiPoly):
            return PiPoly.coerce(c1) + PiPoly.coerce(c2)
        return QQi.coerce(c1) + QQi.coerce(c2)
    return complex(c1) + complex(c2)


def _inv_power_exact(l: int, p: int) -> PiPoly:
    """(2*pi*i*l)^(-p) in the PiPoly ring."""
    return PiPoly.monomial(QQi(0, Fraction(-1, 2 * l)) ** p, -p)


class ExpPoly:
    """Finite sum of terms coeff * t^k * e^(a*t), keyed by (k, a)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (k, a), c in terms.items():
                if c:
                    clean[(int(k), a)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    @staticmethod
    def single(c, k: int = 0, a=None) -> "ExpPoly":
        if a is None:
            a = EigenScalar.zero() if coeff_is_exact(c) else 0j
        return ExpPoly({(k, a): c})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                s = coeff_add(out[key], c)
                if not s:
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
        return ExpPoly(out)

    def __sub__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExpPoly({key: -c for key, c in self.terms.items()})

    def scale(self, c) -> "ExpPoly":
        if not c:
            return ExpPoly()
        return ExpPoly(
            {key: coeff_mul(cc, c) for key, cc in self.terms.items()}
        )

    __rmul__ = scale

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out: dict = {}
        for (k1, a1), c1 in self.terms.items():
            for (k2, a2), c2 in other.terms.items():
                key = (k1 + k2, key_add(a1, a2))
                c = coeff_mul(c1, c2)
                if key in out:
                    c = coeff_add(out[key], c)
                if not c:
                    out.pop(key, None)
                else:
                    out[key] = c
        return ExpPoly(out)

    def snap_exponents(self, tol: float) -> "ExpPoly":
        """Round float exponents onto the lattice 2*pi*i*Z when within tol.

        Exact exponents are already decidable and pass through unchanged.
        """
        out: dict = {}
        for (k, a), c in self.terms.items():
            if not isinstance(a, EigenScalar):
                l = key_two_pi_l(a, tol)
                if l is not None:
                    a = complex(0.0, _TWO_PI * l) if l else 0j
            key = (k, a)
            if key in out:
                c = coeff_add(out[key], c)
            if not c:
                out.pop(key, None)
            else:
                out[key] = c
        return ExpPoly(out)

    # -- integration --------------------------------------------------------

    def integrate_unit(self):
        """Integral over [0, 1]; exact exponents must lie in {0} u 2*pi*i*Z."""
        exact_sum = None
        float_sum = 0j
        for (k, a), c in self.terms.items():
            exact_key = isinstance(a, EigenScalar)
            l = key_two_pi_l(a, 0.0)
            if l == 0:
                val = Fraction(1, k + 1)
            elif l is not None:
                val = _unit_integral_weak(k, l, exact_key)
            else:
                if exact_key:
                    raise ExactnessError(
                        "exact unit integral needs exponents in 2*pi*i*Z"
                    )
                val = _unit_integral_general(k, complex(a))
            if coeff_is_exact(c) and coeff_is_exact(val):
                term = c * val if not isinstance(val, PiPoly) else val * c
                exact_sum = term if exact_sum is None else coeff_add(exact_sum, term)
            else:
                float_sum += complex(c) * complex(val)
        if exact_sum is None:
            return float_sum
        if float_sum != 0:
            return complex(exact_sum) + float_sum
        if isinstance(exact_sum, PiPoly):
            collapsed = exact_sum.as_qqi()
            return collapsed if collapsed is not None else exact_sum
        return exact_sum

    def integrate_to_t(self) -> "ExpPoly":
        """Antiderivative vanishing at t = 0.

        Nonzero exponents must be 2*pi*i*l exactly (exact keys) or have
        been snapped onto that lattice (float keys); other float
        exponents are accepted only when safely away from zero.
        """
        out = ExpPoly()
        for (k, a), c in self.terms.items():
            exact_key = isinstance(a, EigenScalar)
            l = key_two_pi_l(a, 0.0)
            if l == 0:
                cc = c * Fraction(1, k + 1) if coeff_is_exact(c) else c / (k + 1)
                out = out + ExpPoly.single(cc, k + 1, a)
                continue
            if exact_key and l is None:
                raise ExactnessError(
                    "exact antiderivative needs exponents in {0} u 2*pi*i*Z"
                )
            if not exact_key and l is None and abs(a) < UNSTABLE_EXPONENT:
                raise ArithmeticError(
                    "refusing unstable integration near a zero exponent; "
                    "snap_exponents first"
                )
            out = out + _anti_weak(c, k, a, l, exact_key)
        return out

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, t: float) -> complex:
        total = 0j
        for (k, a), c in self.terms.items():
            total += complex(c) * t**k * cmath.exp(complex(a) * t)
        return total

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for (k, a), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            piece = f"({c!r})"
            if k:
                piece += f"*t^{k}"
            if not (key_two_pi_l(a, 0.0) == 0):
                piece += f"*e^(({a!r})t)"
            bits.append(piece)
        return "ExpPoly[" + " + ".join(bits) + "]"


def _fact_ratio(k: int, j: int) -> int:
    out = 1
    for v in range(j + 1, k + 1):
        out *= v
    return out


def _unit_integral_general(k: int, a: complex) -> complex:
    """Integral of t^k e^(at) over [0,1] for a float exponent off the lattice."""
    if abs(a) < 2.0:
        # the by-parts form cancels catastrophically as a -> 0; sum the
        # termwise series a^p / (p! (k+p+1)) instead
        total = 0j
        term = 1.0 + 0j
        for p in range(80):
            total += term / (k + p + 1)
            term *= a / (p + 1)
            if abs(term) < 1e-20 * max(1.0, abs(total)):
                break
        return total
    total = 0j
    for j in range(k + 1):
        total += (-1) ** (k - j) * _fact_ratio(k, j) / a ** (k - j + 1)
    return cmath.exp(a) * total + (-1) ** (k + 1) * _fact_ratio(k, 0) / a ** (
        k + 1
    )


def _unit_integral_weak(k: int, l: int, exact_key: bool):
    """Integral of t^k e^(2*pi*i*l*t) over [0,1], with e^(2*pi*i*l) = 1 exact."""
    if exact_key:
        total = PiPoly()
        for j in range(k + 1):
            sign = (-1) ** (k - j)
            total = total + _inv_power_exact(l, k - j + 1) * (
                QQi(sign * _fact_ratio(k, j))
            )
        total = total + _inv_power_exact(l, k + 1) * QQi((-1) ** (k + 1) * _fact_ratio(k, 0))
        return total
    a = complex(0.0, _TWO_PI * l)
    total = 0j
    for j in range(k + 1):
        total += (-1) ** (k - j) * _fact_ratio(k, j) / a ** (k - j + 1)
    total += (-1) ** (k + 1) * _fact_ratio(k, 0) / a ** (k + 1)
    return total


def _anti_weak(c, k: int, a, l, exact_key: bool) -> ExpPoly:
    """Antiderivative of c t^k e^(at), a != 0, vanishing at 0."""
    terms: dict = {}
    exact = coeff_is_exact(c) and l is not None
    zero_key = EigenScalar.zero() if exact_key else 0j
    for j in range(k + 1):
        sign = (-1) ** (k - j)
        if exact:
            w = _inv_power_exact(l, k - j + 1) * QQi(sign * _fact_ratio(k, j)) * c
        else:
            w = (
                complex(c)
                * sign
                * _fact_ratio(k, j)
                / complex(a) ** (k - j + 1)
            )
        key = (j, a)
        terms[key] = coeff_add(terms[key], w) if key in terms else w
    if exact:
        w0 = _inv_power_exact(l, k + 1) * QQi((-1) ** (k + 1) * _fact_ratio(k, 0)) * c
    else:
        w0 = (
            complex(c)
            * (-1) ** (k + 1)
            * _fact_ratio(k, 0)
            / complex(a) ** (k + 1)
        )
    key0 = (0, zero_key)
    terms[key0] = coeff_add(terms[key0], w0) if key0 in terms else w0
    return ExpPoly(terms)
