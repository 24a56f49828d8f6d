"""Resonance detection and operator spectra.

The float-path oracle is a from-scratch cmath enumeration written here;
the operator-spectrum oracle assembles the actual operator matrices with
sympy and takes numpy eigenvalues.
"""

import cmath
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from embedflow import (
    BlockMatrix,
    EigenData,
    EigenScalar,
    JordanBlock,
    MultiIndex,
    RotationBlock,
    field_resonances,
    map_resonances,
    multiindices,
    pair_negative_blocks,
    real_log,
)
from _gens import random_branch_spectrum, random_loggable_blocks
from _reference import operator_L_field_spectrum, operator_L_map_spectrum


@pytest.mark.parametrize("n, N", [(1, 2), (3, 2), (2, 7), (3, 5), (4, 3)])
def test_scan_rows_are_the_exponent_table(n, N):
    # the scan reads the one exponent table: degree 2 to N, by degree, in
    # multiindices order, as a read-only int64 matrix and as tuples
    from embedflow.graded import _grading

    grading = _grading(n, N)
    want = [m for r in range(2, N + 1) for m in multiindices(n, r)]
    assert grading.matrix.dtype == np.int64 and grading.matrix.shape == (len(want), n)
    assert not grading.matrix.flags.writeable
    with pytest.raises(ValueError):
        grading.matrix[0, 0] = 0
    assert [tuple(row) for row in grading.matrix.tolist()] == want
    assert list(grading.flat[n:]) == want


def _eigen_2_3() -> EigenData:
    mu1 = EigenScalar.from_parts(rat=8)
    mu2 = EigenScalar.from_parts(rat=1, pi_part=Fraction(1, 4))
    return EigenData((mu1, mu2, mu2.conjugate()))


def _brute_multiindices(n, degree):
    out = []
    for total in range(2, degree + 1):
        for combo in itertools.product(range(total + 1), repeat=n):
            if sum(combo) == total:
                out.append(combo)
    return out


def _brute_force_sets(lam, degree, tol=1e-9):
    """Independent float enumeration: map, field, weak sets for spectrum lam."""
    n = len(lam)
    mu = [cmath.log(v) for v in lam]
    map_set, field_set, weak = set(), set(), set()
    for j in range(n):
        for m in _brute_multiindices(n, degree):
            prod = 1
            for k, v in zip(m, lam):
                prod *= v**k
            if abs(prod - lam[j]) <= tol * max(1.0, abs(lam[j])):
                map_set.add((j, m))
            d = sum(k * v for k, v in zip(m, mu)) - mu[j]
            if abs(d) <= tol:
                field_set.add((j, m))
            else:
                l = round(d.imag / (2 * math.pi))
                if l != 0 and abs(d - 2j * math.pi * l) <= tol:
                    weak.add((j, m, -l))
    return map_set, field_set, weak


class TestPaper23Spectrum:
    def test_map_resonances(self):
        rep = map_resonances(_eigen_2_3(), 8)
        assert rep.map_set() == {
            (0, (0, 4, 4)),
            (0, (0, 8, 0)),
            (0, (0, 0, 8)),
        }

    def test_field_resonances_and_weak(self):
        rep = field_resonances(_eigen_2_3(), 8)
        assert rep.field_set() == {(0, (0, 4, 4))}
        assert set(rep.weak) == {(0, (0, 8, 0), -1), (0, (0, 0, 8), 1)}

    def test_runtime_under_a_second(self):
        t0 = time.perf_counter()
        map_resonances(_eigen_2_3(), 8)
        field_resonances(_eigen_2_3(), 8)
        assert time.perf_counter() - t0 < 1.0


def test_exact_matches_brute_force_random_rational():
    rng = np.random.default_rng(21)
    pool = [Fraction(p, q) for p in (2, 3, 4, 6, 8, 9) for q in (1, 2, 3)]
    for _ in range(25):
        lams = []
        while len(lams) < 3:
            v = pool[int(rng.integers(0, len(pool)))]
            if rng.random() < 0.3:
                v = -v
            if abs(v) != 1:
                lams.append(v)
        eigen = EigenData(tuple(EigenScalar.from_signed_rational(v) for v in lams))
        degree = 4
        m_rep = map_resonances(eigen, degree)
        f_rep = field_resonances(eigen, degree)
        bm, bf, bw = _brute_force_sets([complex(float(v), 0) for v in lams], degree)
        assert m_rep.map_set() == bm
        assert f_rep.field_set() == bf
        assert set(f_rep.weak) == bw


def test_float_path_agrees_with_exact_path():
    lam = (4.0, 2.0, -3.0)
    exact = EigenData(
        tuple(EigenScalar.from_signed_rational(Fraction(v)) for v in lam)
    )
    floats = EigenData.from_values([cmath.log(v) for v in lam])
    assert not floats.exact
    for degree in (2, 3, 4, 5):
        assert (map_resonances(exact, degree).map_set()
                == map_resonances(floats, degree).map_set())
        re, rf = field_resonances(exact, degree), field_resonances(floats, degree)
        assert re.field_set() == rf.field_set()
        assert set(re.weak) == set(rf.weak)


def test_near_resonance_reporting():
    # lambda_1 just misses lambda_2^2 by ~1e-8 with tol 1e-10
    lam = (4.0 + 4e-8, 2.0)
    floats = EigenData.from_values([cmath.log(v) for v in lam])
    rep = map_resonances(floats, 2, tol=1e-10)
    assert (0, (0, 2)) not in rep.map_set()
    assert any(j == 0 and tuple(m) == (0, 2) for j, m, _ in rep.near)


def test_weak_detection_needs_exact_imaginary_part():
    # mu = (2, 1 + i*pi/2): <(0,4), mu> - mu_1 = 2 + 2*pi*i -> weak l = -1
    eigen = EigenData((
        EigenScalar.from_parts(rat=2),
        EigenScalar.from_parts(rat=Fraction(1, 2), pi_part=Fraction(1, 2)),
    ))
    rep = field_resonances(eigen, 4)
    assert (0, (0, 4), -1) in set(rep.weak)


def _mu_rule(eigen, degree, tol):
    """Enumerate every (j, m), j outer, then degree, then multiindices order,
    and decide <m, mu> - mu_j in 2*pi*i*Z pair by pair: exactly on
    EigenScalar sums, else within tol of the nearest lattice point.

    Returns (map, field, weak, near) lists in that order.
    """
    n = len(eigen)
    mons = [m for r in range(2, degree + 1) for m in multiindices(n, r)]
    maps, field, weak, near = [], [], [], []
    for j in range(n):
        for m in mons:
            if eigen.exact:
                d = EigenScalar.zero()
                for k, v in zip(m, eigen.entries):
                    d = d + v.scaled(k)
                d = d - eigen[j]
                on = d.rat == 0 and not d.logs and d.pi_part % 2 == 0
                l, dist = (-int(d.pi_part) // 2 if on else None), None
            else:
                mu = [complex(v) for v in eigen.entries]
                d = sum(k * v for k, v in zip(m, mu)) - mu[j]
                ll = round(d.imag / (2 * math.pi))
                dist = abs(d - 2j * math.pi * ll)
                l = -ll if dist <= tol else None
            if l is None:
                if dist is not None and dist <= 100 * tol:
                    near.append((j, m, dist))
                continue
            maps.append((j, m))
            if l:
                weak.append((j, m, l))
            else:
                field.append((j, m))
    return maps, field, weak, near


def _same_near(got, want):
    assert [(j, m) for j, m, _ in got] == [(j, m) for j, m, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_scans_agree_with_per_pair_rules(tol):
    rng = np.random.default_rng(4)
    spectra = [real_log(random_branch_spectrum(rng, exact, k)).eigen()
               for exact in (True, False) for k in (0, 1, 2, 2)]
    spectra += [real_log(pair_negative_blocks(random_loggable_blocks(rng, 4))[0]).eigen()
                for _ in range(4)]
    assert any(e.exact for e in spectra) and not all(e.exact for e in spectra)
    weak_seen = near_seen = False
    for eigen in spectra:
        for degree in (2, 3, 4):
            maps, field, weak, near = _mu_rule(eigen, degree, tol)
            rep = map_resonances(eigen, degree, tol)
            assert list(rep.map_resonant) == maps
            assert list(rep.field_resonant) == field
            assert list(rep.weak) == weak
            _same_near(rep.near, near)
            assert rep.map_set() == rep.field_set() | rep.weak_set()
            weak_seen |= bool(weak)
            near_seen |= bool(near)
    assert weak_seen and (near_seen or tol < 1e-6)


# -- operator spectra against assembled matrices ----------------------------


def _rat(v) -> sp.Rational:
    return sp.Rational(float(v))  # exact binary expansion of the float


def _sympy_matrix_of_map_operator(A, n, r):
    """(L H)(x) = A H(x) - H(A x) on degree-r vector polynomials."""
    xs = sp.symbols(f"x0:{n}")
    basis = [(j, m) for j in range(n) for m in multiindices(n, r)]
    Ax = [sum(_rat(A[i][k]) * xs[k] for k in range(n)) for i in range(n)]
    cols = []
    for (j, m) in basis:
        xm = sp.prod([xs[i] ** e for i, e in enumerate(m)])
        img = [_rat(A[i][j]) * xm for i in range(n)]
        img[j] = img[j] - sp.prod([Ax[i] ** e for i, e in enumerate(m)])
        cols.append(_coefficient_column(img, basis, xs))
    return np.array(cols, dtype=complex).T


def _sympy_matrix_of_field_operator(B, n, r):
    """(L v)(x) = Dv(x) B x - B v(x) on degree-r vector polynomials."""
    xs = sp.symbols(f"x0:{n}")
    basis = [(j, m) for j in range(n) for m in multiindices(n, r)]
    Bx = [sum(_rat(B[i][k]) * xs[k] for k in range(n)) for i in range(n)]
    cols = []
    for (j, m) in basis:
        xm = sp.prod([xs[i] ** e for i, e in enumerate(m)])
        img = [-_rat(B[i][j]) * xm for i in range(n)]
        img[j] = img[j] + sum(sp.diff(xm, xs[i]) * Bx[i] for i in range(n))
        cols.append(_coefficient_column(img, basis, xs))
    return np.array(cols, dtype=complex).T


def _coefficient_column(img, basis, xs):
    col = []
    polys = [sp.Poly(sp.expand(comp), *xs) for comp in img]
    for (jj, mm) in basis:
        mono = sp.prod([xs[i] ** e for i, e in enumerate(mm)])
        col.append(complex(polys[jj].coeff_monomial(mono)))
    return col


def _multiset_close(a, b, tol=1e-8):
    a = sorted(a, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    b = sorted(b, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert len(a) == len(b)
    return max(abs(x - y) for x, y in zip(a, b)) <= tol


@pytest.mark.parametrize("r", [2, 3, 4])
def test_map_operator_spectrum_vs_assembled(r):
    cases = [
        BlockMatrix((JordanBlock(2, 1), JordanBlock(3, 1))),
        BlockMatrix((JordanBlock(2, 2), JordanBlock(4, 1))),
        BlockMatrix((JordanBlock(-2, 1), JordanBlock(3, 2))),
    ]
    for a in cases:
        n = a.dim
        dense = a.to_dense().tolist()
        want = np.linalg.eigvals(_sympy_matrix_of_map_operator(dense, n, r))
        got = list(operator_L_map_spectrum(a.triangular(), r))
        assert _multiset_close(list(want), got)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_field_operator_spectrum_vs_assembled(r):
    cases = [
        BlockMatrix((JordanBlock(2, 1), JordanBlock(3, 1))),
        BlockMatrix((JordanBlock(2, 2), JordanBlock(4, 1))),
        BlockMatrix((RotationBlock(0.6, 0.8, 1), JordanBlock(2, 1))),
    ]
    for a in cases:
        B = real_log(a)
        n = a.dim
        dense = B.to_dense().tolist()
        want = np.linalg.eigvals(_sympy_matrix_of_field_operator(dense, n, r))
        got = list(operator_L_field_spectrum(B.triangular().eigen, r))
        assert _multiset_close(list(want), got)
