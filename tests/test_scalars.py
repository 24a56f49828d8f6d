"""Exact scalar domains against sympy and closed-form oracles."""

import cmath
import math
from fractions import Fraction

import pytest
import sympy as sp

from embedflow import BlockMatrix, EigenScalar, ExactnessError, QQi, RotationBlock
from embedflow.scalars import factor_positive_rational

from _expflow import two_pi_integer
from _pipoly import PiPoly


def _to_sympy(q: QQi):
    return sp.Rational(q.re.numerator, q.re.denominator) + sp.I * sp.Rational(
        q.im.numerator, q.im.denominator
    )


def _from_sympy(z) -> QQi:
    z = sp.nsimplify(sp.expand(z))
    re, im = z.as_real_imag()
    return QQi(Fraction(int(sp.numer(re)), int(sp.denom(re))),
               Fraction(int(sp.numer(im)), int(sp.denom(im))))


class TestQQi:
    def test_field_ops_match_sympy(self):
        import random

        rnd = random.Random(7)
        for _ in range(200):
            a = QQi(Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)),
                    Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)))
            b = QQi(Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)),
                    Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)))
            sa, sb = _to_sympy(a), _to_sympy(b)
            assert a + b == _from_sympy(sa + sb)
            assert a - b == _from_sympy(sa - sb)
            assert a * b == _from_sympy(sa * sb)
            if b:
                assert a / b == _from_sympy(sa / sb)

    def test_pow_negative(self):
        a = QQi(Fraction(2), Fraction(1))
        assert a**3 * a**-3 == QQi(1)
        assert a**-2 == QQi(1) / (a * a)

    def test_interop_with_plain_numbers(self):
        a = QQi(Fraction(1, 2), Fraction(1, 3))
        assert 1 + a == QQi(Fraction(3, 2), Fraction(1, 3))
        assert 1 - a == QQi(Fraction(1, 2), Fraction(-1, 3))
        assert Fraction(2, 3) * a == a * Fraction(2, 3)
        assert (1 / QQi(0, 1)) == QQi(0, -1)

    def test_conjugate_and_modulus(self):
        a = QQi(Fraction(3, 4), Fraction(-2, 5))
        m = a * a.conjugate()
        assert m.im == 0
        assert m.re == Fraction(3, 4) ** 2 + Fraction(2, 5) ** 2

    def test_complex_conversion(self):
        a = QQi(Fraction(1, 3), Fraction(-5, 7))
        assert complex(a) == complex(1 / 3, -5 / 7)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            QQi(1) / QQi(0)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            QQi(0.5)


class TestPiPoly:
    def test_monomial_arithmetic(self):
        p = PiPoly.monomial(QQi(1), 2)  # pi^2
        q = PiPoly.monomial(QQi(Fraction(1, 2)), -1)  # (1/2) / pi
        assert (p * q).terms == {1: QQi(Fraction(1, 2))}
        assert complex(p) == pytest.approx(math.pi**2)
        assert complex(p + q) == pytest.approx(math.pi**2 + 0.5 / math.pi)

    def test_as_qqi(self):
        assert PiPoly.coerce(QQi(3)).as_qqi() == QQi(3)
        assert PiPoly({}).as_qqi() == QQi(0)
        assert PiPoly.monomial(1, 1).as_qqi() is None

    def test_division(self):
        p = PiPoly({2: QQi(4), 0: QQi(2)})
        q = p / PiPoly.monomial(QQi(2), 1)
        assert q.terms == {1: QQi(2), -1: QQi(1)}
        with pytest.raises(ExactnessError):
            p / (p + 1)

    def test_cancellation_is_exact(self):
        p = PiPoly.monomial(QQi(1, 1), 3)
        assert not (p - p)
        assert (p - p) == PiPoly({})


class TestFactorRational:
    def test_known_values(self):
        assert factor_positive_rational(Fraction(12)) == ((2, 2), (3, 1))
        assert factor_positive_rational(Fraction(9, 8)) == ((2, -3), (3, 2))
        assert factor_positive_rational(Fraction(1)) == ()

    def test_roundtrip_property(self):
        import random

        rnd = random.Random(3)
        for _ in range(100):
            q = Fraction(rnd.randint(1, 500), rnd.randint(1, 500))
            prod = Fraction(1)
            for p, e in factor_positive_rational(q):
                prod *= Fraction(p) ** e
            assert prod == q

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor_positive_rational(Fraction(-2))


class TestEigenScalar:
    def test_log_linear_independence_zero_test(self):
        # ln 2 + ln 3 - ln 6 == 0 exactly
        v = (EigenScalar.from_parts(log_of=2)
             + EigenScalar.from_parts(log_of=3)
             - EigenScalar.from_parts(log_of=6))
        assert v.is_zero

    def test_from_signed_rational(self):
        v = EigenScalar.from_signed_rational(Fraction(-8, 3))
        assert v.pi_part == 1
        assert complex(v) == pytest.approx(complex(math.log(8 / 3), math.pi))

    def test_two_pi_integer(self):
        # the reference flow's lattice key (tests/_expflow.py)
        z = EigenScalar.zero()
        assert two_pi_integer(z) == 0
        assert two_pi_integer(z.shifted_2pii(-3)) == -3
        assert two_pi_integer(EigenScalar.from_parts(pi_part=1)) is None
        assert two_pi_integer(EigenScalar.from_parts(rat=1)) is None
        assert two_pi_integer(EigenScalar.from_parts(log_of=2, pi_part=4)) is None

    @pytest.mark.parametrize("eighths", (1, 3, 5, 7, -1, -3))
    @pytest.mark.parametrize("power", (Fraction(1, 2), Fraction(-1, 2), Fraction(5, 2), Fraction(-3, 2)))
    def test_exp_exact_at_eighth_turns(self, eighths, power):
        # 2^c e^(i*pi*k/4), c a half-integer and k odd: sqrt(2) e^(i*pi/4)
        # is 1 + i, so the value is 2^(c - 1/2) (1 + i) i^((k - 1)/2).  The
        # rotation block with that Gaussian-rational eigenvalue carries it
        # on its diagonal, and this exact log, up to 2*pi*i, in its eigen
        # data: the solve reads the one and the resonance scan the other.
        v = EigenScalar(Fraction(0), ((2, power),), Fraction(eighths, 4))
        lam = QQi(Fraction(2) ** (power - Fraction(1, 2))) * QQi(1, 1) * QQi(0, 1) ** ((eighths - 1) // 2 % 4)
        assert complex(lam) == pytest.approx(cmath.exp(complex(v)), rel=1e-14)
        tri = BlockMatrix((RotationBlock(lam.re, -lam.im, 1),)).triangular()
        assert tri.diag[0] == lam
        assert two_pi_integer(tri.eigen[0] - v) is not None

    def test_scaled_and_conjugate(self):
        v = EigenScalar.from_parts(rat=2, log_of=6, pi_part=Fraction(1, 3))
        w = v.scaled(Fraction(3, 2))
        assert w.rat == 3
        assert w.pi_part == Fraction(1, 2)
        assert (v + v.conjugate()).pi_part == 0
        assert v.scaled(0).is_zero


# -- QQi against a Fraction-pair reference -----------------------------------
#
# The reference holds a Gaussian rational as a pair (re, im) of Fractions.
# The helpers use only the standard library and the names QQi and PiPoly
# (the reference flow's, tests/_pipoly.py), so they also run as a plain
# script against scalars.py and _pipoly.py loaded by path.


def _ref_of(x):
    """(re, im) of a QQi through its public views, or of an int/Fraction."""
    if isinstance(x, QQi):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    if not norm:
        raise ZeroDivisionError
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def _ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _ref_mul(out, x)
    return _ref_div((Fraction(1), Fraction(0)), out) if k < 0 else out


def _ref_repr(x):
    return f"QQi({x[0]})" if not x[1] else f"QQi({x[0]}, {x[1]})"


def _assert_is(z, want):
    """z is the canonical QQi of the reference pair ``want``."""
    import math

    assert isinstance(z, QQi), z
    a, b, d = z._a, z._b, z._d
    assert d > 0 and math.gcd(a, b, d) == 1, (a, b, d)
    assert (Fraction(a, d), Fraction(b, d)) == want, (z, want)
    assert (z.re, z.im) == want


def _random_part(rnd):
    kind = rnd.random()
    if kind < 0.2:
        return 0
    if kind < 0.4:
        return rnd.randint(-9, 9)
    if kind < 0.9:
        return Fraction(rnd.randint(-30, 30), rnd.randint(1, 12))
    return Fraction(rnd.randint(-10**20, 10**20), rnd.randint(1, 10**20))


def _check_qqi_against_reference(rnd, rounds):
    """Every QQi operation on ``rounds`` random pairs against the reference."""
    for _ in range(rounds):
        x = QQi(_random_part(rnd), _random_part(rnd))
        y = QQi(_random_part(rnd), _random_part(rnd))
        rx, ry = _ref_of(x), _ref_of(y)
        _assert_is(x, rx)
        _assert_is(x + y, (rx[0] + ry[0], rx[1] + ry[1]))
        _assert_is(x - y, (rx[0] - ry[0], rx[1] - ry[1]))
        _assert_is(x * y, _ref_mul(rx, ry))
        _assert_is(-x, (-rx[0], -rx[1]))
        _assert_is(x.conjugate(), (rx[0], -rx[1]))
        if any(ry):
            _assert_is(x / y, _ref_div(rx, ry))
        else:
            try:
                x / y
            except ZeroDivisionError:
                pass
            else:
                raise AssertionError("division by a zero QQi")
        for e in range(-3, 4):
            if e < 0 and not any(rx):
                continue
            _assert_is(x**e, _ref_pow(rx, e))
        assert (x == y) == (rx == ry)
        assert x == QQi(*rx) and hash(x) == hash(QQi(*rx))
        assert bool(x) == any(rx)
        assert complex(x) == complex(float(rx[0]), float(rx[1]))
        assert repr(x) == _ref_repr(rx)
        # mixed with int and Fraction, on either side
        k = rnd.choice([rnd.randint(-9, 9), Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))])
        rk = _ref_of(k)
        _assert_is(x + k, (rx[0] + rk[0], rx[1]))
        _assert_is(k + x, (rx[0] + rk[0], rx[1]))
        _assert_is(x - k, (rx[0] - rk[0], rx[1]))
        _assert_is(k - x, (rk[0] - rx[0], -rx[1]))
        _assert_is(x * k, _ref_mul(rx, rk))
        _assert_is(k * x, _ref_mul(rx, rk))
        if k:
            _assert_is(x / k, _ref_div(rx, rk))
        if any(rx):
            _assert_is(k / x, _ref_div(rk, rx))
        same = rx == rk
        assert (x == k) == same and (k == x) == same
        if same:
            assert hash(x) == hash(k)
        real = QQi(rx[0])
        assert real == rx[0] and rx[0] == real and hash(real) == hash(rx[0])
    for zero in (QQi(0), 0, Fraction(0)):
        for bad in (lambda: QQi(1, 2) / zero, lambda: QQi(0) ** -1):
            try:
                bad()
            except ZeroDivisionError:
                pass
            else:
                raise AssertionError("division by zero did not raise")


def _check_hash_agrees_with_equality():
    """Equal values of int, Fraction, QQi and PiPoly hash alike."""
    values = [
        0, 3, -2, Fraction(1, 2), Fraction(-7, 3),
        QQi(0), QQi(3), QQi(-2), QQi(Fraction(1, 2)), QQi(Fraction(-7, 3)),
        QQi(0, 1), QQi(Fraction(1, 2), 5),
        PiPoly({}), PiPoly.coerce(3), PiPoly.coerce(Fraction(1, 2)),
        PiPoly.coerce(QQi(0, 1)), PiPoly.monomial(QQi(3), 1),
    ]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert len({QQi(3), 3}) == 1
    assert len({QQi(Fraction(1, 2)), Fraction(1, 2), PiPoly.coerce(Fraction(1, 2))}) == 1
    assert len({0, QQi(0), PiPoly({}), Fraction(0)}) == 1
    assert len(set(values)) == 8  # 0, 3, -2, 1/2, -7/3, i, 1/2 + 5i, 3 pi
    table = {3: "three", Fraction(1, 2): "half", QQi(0, 1): "i", PiPoly.monomial(1, 1): "pi"}
    assert table[QQi(3)] == table[PiPoly.coerce(3)] == "three"
    assert table[QQi(Fraction(1, 2))] == table[PiPoly.coerce(QQi(Fraction(1, 2)))] == "half"
    assert table[PiPoly.coerce(QQi(0, 1))] == "i"
    assert table[PiPoly({1: QQi(1)})] == "pi"
    table[QQi(3)] = "qqi"
    table[PiPoly.coerce(Fraction(1, 2))] = "pipoly"
    assert table == {3: "qqi", Fraction(1, 2): "pipoly", QQi(0, 1): "i",
                     PiPoly.monomial(1, 1): "pi"}


class TestQQiAgainstReference:
    def test_operations_match_fraction_pairs(self):
        import random

        _check_qqi_against_reference(random.Random(19), 400)

    def test_hash_agrees_with_equality_across_types(self):
        _check_hash_agrees_with_equality()

    def test_re_and_im_are_read_only(self):
        z = QQi(Fraction(1, 2), 3)
        with pytest.raises(AttributeError):
            z.re = Fraction(1)
        with pytest.raises(AttributeError):
            z.im = Fraction(1)
        assert z == QQi(Fraction(1, 2), 3)
