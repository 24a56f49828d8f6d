"""Distinguished normal forms.

Frozen values for the planar resonant example come from solving the
conjugacy F(y + h(y)) = G(y) + h(G(y)) with sympy, coefficient by
coefficient (see the independent solve reproduced in
test_sympy_conjugacy_independent).
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from embedflow import (
    MODE_EXACT,
    BlockMatrix,
    GermSpec,
    JordanBlock,
    MultiIndex,
    NearResonanceError,
    PolyJet,
    QQi,
    compose,
    distinguished_normal_form,
    jet_distance,
    map_resonances,
)
from _gens import random_exact_germ, random_hyperbolic_germ

# sympy-solved transform for F = (4x1 + x2^2 + x1 x2, 2x2), N = 6
_H_2D = {
    (0, (0, 3)): Fraction(-1, 8),
    (0, (0, 4)): Fraction(-5, 288),
    (0, (0, 5)): Fraction(-47, 56448),
    (0, (0, 6)): Fraction(-97, 5644800),
    (0, (1, 1)): Fraction(1, 4),
    (0, (1, 2)): Fraction(1, 48),
    (0, (1, 3)): Fraction(1, 1344),
    (0, (1, 4)): Fraction(1, 80640),
    (0, (1, 5)): Fraction(1, 9999360),
}


def _germ_2d_exact() -> GermSpec:
    a = BlockMatrix((JordanBlock(4, 1), JordanBlock(2, 1)))
    f = PolyJet.build(
        2, 6, MODE_EXACT,
        [(0, MultiIndex((0, 2)), QQi(1)), (0, MultiIndex((1, 1)), QQi(1))],
    )
    return GermSpec(a, f, 6)


def test_frozen_2d_transform_exact():
    result = distinguished_normal_form(_germ_2d_exact())
    assert result.residual == 0.0
    g = result.germ.nonlinear
    assert set(g.coeffs) == {(0, (0, 2))}
    assert g.coeffs[(0, (0, 2))] == QQi(1)
    h = result.transform
    assert {k: None for k in h.coeffs} == {k: None for k in _H_2D}
    for key, want in _H_2D.items():
        assert h.coeffs[key] == QQi(want)


def test_sympy_conjugacy_independent():
    # re-derive the frozen table from scratch
    x1, x2 = sp.symbols("x1 x2")
    hs = {k: sp.Symbol(f"h_{k[0]}_{k[1][0]}_{k[1][1]}") for k in _H_2D}
    g = sp.Symbol("g")
    h1 = sum(s * x1 ** m[0] * x2 ** m[1] for (_, m), s in hs.items())
    phi = (x1 + h1, x2)
    lhs = (4 * phi[0] + phi[1] ** 2 + phi[0] * phi[1], 2 * phi[1])
    G = (4 * x1 + g * x2 ** 2, 2 * x2)
    rhs = (G[0] + h1.subs({x1: G[0], x2: G[1]}, simultaneous=True), G[1])
    eqs = []
    for comp in (0, 1):
        poly = sp.Poly(sp.expand(lhs[comp] - rhs[comp]), x1, x2)
        for mono, c in poly.terms():
            if sum(mono) <= 6:
                eqs.append(c)
    sol = sp.solve(eqs, [g] + list(hs.values()), dict=True)
    assert len(sol) == 1
    assert sol[0][g] == 1
    for key, sym in hs.items():
        assert Fraction(str(sol[0][sym])) == _H_2D[key]


def test_residual_and_support_50_random_float():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    done = 0
    while done < 50:
        n = int(rng.integers(2, 4))
        degree = int(rng.integers(2, 7))
        germ = random_hyperbolic_germ(rng, n, degree)
        try:
            result = distinguished_normal_form(germ)
        except NearResonanceError:
            continue
        assert result.residual <= 1e-9
        res_set = map_resonances(germ.linear.eigen(), degree).map_set()
        for j, m in result.germ.nonlinear.support():
            assert (j, tuple(m)) in res_set
        for j, m in result.transform.support():
            assert (j, tuple(m)) not in res_set
        done += 1
    assert time.perf_counter() - t0 < 30.0


def test_residual_exactly_zero_exact_mode():
    rng = np.random.default_rng(123)
    for _ in range(5):
        germ = random_exact_germ(rng, 2, 4)
        result = distinguished_normal_form(germ)
        assert result.residual == 0.0


def test_idempotence_on_normal_form():
    first = distinguished_normal_form(_germ_2d_exact())
    again = distinguished_normal_form(first.germ)
    assert not again.transform.coeffs
    assert jet_distance(again.germ.nonlinear, first.germ.nonlinear) == 0.0


def test_conjugacy_validated_by_library_compose():
    rng = np.random.default_rng(5)
    germ = random_hyperbolic_germ(rng, 3, 4)
    result = distinguished_normal_form(germ)
    n, N = germ.dim, germ.degree
    ident = PolyJet.identity(n, N)
    phi = ident + result.transform
    lhs = compose(germ.map_jet().to_float(), phi, degree=N)
    rhs = compose(phi, result.germ.map_jet().to_float(), degree=N)
    assert jet_distance(lhs, rhs) < 1e-9


def test_near_resonance_behavior():
    a = BlockMatrix((JordanBlock(4.0 + 1e-10, 1), JordanBlock(2.0, 1)))
    f = PolyJet.build(2, 2, "float", [(0, MultiIndex((0, 2)), 1.0)])
    germ = GermSpec(a, f, 2)
    # default tolerance: the 1e-10 miss is within resonance tolerance, so the
    # term is kept in g rather than divided by the tiny divisor
    res = distinguished_normal_form(germ)
    assert (0, (0, 2)) in res.germ.nonlinear.coeffs
    # tight tolerance: not resonant, but the divisor is below the 1e-9
    # division floor -> refuse instead of amplifying noise
    with pytest.raises(NearResonanceError):
        distinguished_normal_form(germ, tol=1e-12)


def _dense_diagonal_germ(lams, N, mode):
    """Seeded dense germ on diag(lams): random.Random(0), each (j, m) of
    degree 2..N (m in multiindices order, then j) kept with probability 0.3,
    coefficient Fraction(randint(-9, 9), randint(1, 9)), zeros skipped."""
    import random

    from embedflow import multiindices

    rng = random.Random(0)
    n = len(lams)
    terms = []
    for r in range(2, N + 1):
        for m in multiindices(n, r):
            for j in range(n):
                if rng.random() < 0.3:
                    c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    if c:
                        terms.append((j, m, c if mode == MODE_EXACT else float(c)))
    a = BlockMatrix(tuple(JordanBlock(lam, 1) for lam in lams))
    return GermSpec(a, PolyJet.build(n, N, mode, terms), N)


def _scale(germ):
    return max(1.0, germ.map_jet().to_float().max_abs())


def test_float_normal_form_matches_exact_support():
    """Float jets keep every nonzero coefficient, so the float normal form of
    a dense (4, 2) germ has the exact supports and a roundoff residual."""
    exact = distinguished_normal_form(_dense_diagonal_germ((4, 2), 14, MODE_EXACT))
    germ = _dense_diagonal_germ((4, 2), 14, "float")
    got = distinguished_normal_form(germ)
    assert got.transform.support() == exact.transform.support()
    assert got.germ.nonlinear.support() == exact.germ.nonlinear.support()
    assert got.residual <= 1e-12 * _scale(germ)


def test_float_normal_form_residual_three_resonant_rates():
    germ = _dense_diagonal_germ((8, 2, 4), 9, "float")
    assert distinguished_normal_form(germ).residual <= 1e-12 * _scale(germ)
