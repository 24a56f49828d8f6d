"""Distinguished normal forms.

Frozen values for the planar resonant example come from solving the
conjugacy F(y + h(y)) = G(y) + h(G(y)) with sympy, coefficient by
coefficient (see the independent solve reproduced in
test_sympy_conjugacy_independent).
"""

import time
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
import sympy as sp

from embedflow import (
    MODE_EXACT,
    MODE_FLOAT,
    BlockMatrix,
    GermSpec,
    JordanBlock,
    MultiIndex,
    NearResonanceError,
    PolyJet,
    QQi,
    RotationBlock,
    compose,
    distinguished_normal_form,
    jet_distance,
    map_resonances,
    multiindices,
)
from embedflow.jets import _OnlineComposition
from embedflow.normal_form import NormalFormResult
from embedflow.resonance import monomial_index
from embedflow.tolerances import DEFAULT_TOL
from _gens import random_exact_germ, random_hyperbolic_germ, resonant_map_blocks
from _reference import homological_rows

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


# -- the online recursion against the two-compose recursion ------------------


def _reference_normal_form(germ, tol=DEFAULT_TOL):
    """The recursion as first written: at every degree k two full
    compositions truncated at k give the defect, which the dict row solve
    of either mode solves, and two more at N give the residual.  Returns
    (h, g, residual, diagnostics)."""
    tri = germ.linear.triangular()
    n, N, mode = germ.dim, germ.degree, germ.mode
    F = germ.map_jet()
    identity = PolyJet.identity(n, N, mode)
    h_acc = PolyJet.zero(n, N, mode)
    g_acc = PolyJet.zero(n, N, mode)
    lin = tri.linear_jet(N, mode)
    index = monomial_index(n, N)
    resonant = map_resonances(tri.eigen, max(N, 2), tol).map_set()
    ay = _OnlineComposition([lin.component(j) for j in range(n)], N)
    diagnostics = []
    for k in range(2, N + 1):
        lhs = compose(F, identity + h_acc, degree=k)
        rhs = compose(identity + h_acc, lin + g_acc, degree=k)
        defect = (lhs - rhs).degree_slice(k)
        h_map, g_map, min_div = homological_rows(
            tri, defect, k, tol, index.of_degree(k), resonant, ay
        )
        h_acc = h_acc + PolyJet.build(n, N, mode, [(j, m, c) for (j, m), c in h_map.items()])
        g_acc = g_acc + PolyJet.build(n, N, mode, [(j, m, c) for (j, m), c in g_map.items()])
        diagnostics.append((k, len(g_map), len(h_map), min_div))
    return h_acc, g_acc, _conjugacy_defect(germ, h_acc, g_acc)[0], tuple(diagnostics)


def _conjugacy_defect(germ, h, g):
    """jet_distance(F(y + h), (y + h)(Ay + g)) by full compositions, and
    the largest coefficient of either side, the scale of its roundoff."""
    n, N, mode = germ.dim, germ.degree, germ.mode
    phi = PolyJet.identity(n, N, mode) + h
    G = germ.linear.triangular().linear_jet(N, mode) + g
    lhs = compose(germ.map_jet(), phi, degree=N)
    rhs = compose(phi, G, degree=N)
    return jet_distance(lhs, rhs), max(lhs.max_abs(), rhs.max_abs())


def _random_nonlinear(rng, n, N, mode, density=0.4):
    terms = []
    for r in range(2, N + 1):
        for m in multiindices(n, r):
            for j in range(n):
                if rng.random() < density:
                    if mode == MODE_EXACT:
                        c = QQi(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
                                Fraction(int(rng.integers(-2, 3)), 3))
                    else:
                        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    if c:
                        terms.append((j, m, c))
    return PolyJet.build(n, N, mode, terms)


def _online_cases():
    rng = np.random.default_rng(2014)
    cases = []
    for t in range(3):
        cases.append((f"diagonal-exact-{t}", random_exact_germ(rng, 2 + t % 2, 5)))
    # (4, 2) and (25; 3 -+ 4i) resonate; the Jordan and two-cell rotation
    # blocks carry couplings
    exact_blocks = {
        "jordan-exact": (JordanBlock(4, 2), JordanBlock(2, 1)),
        "rotation-exact": (RotationBlock(3, 4, 1), JordanBlock(25, 1)),
        "rotation-cells-exact": (RotationBlock(3, 4, 2),),
        "dense-diagonal-exact": (JordanBlock(8, 1), JordanBlock(2, 1), JordanBlock(4, 1)),
    }
    for name, blocks in exact_blocks.items():
        a = BlockMatrix(blocks)
        resonant = map_resonances(a.triangular().eigen, 5).map_resonant
        for mode in (MODE_EXACT, MODE_FLOAT):
            # every resonant monomial present (no random real part reaches
            # -7), so g is never empty
            f = _random_nonlinear(rng, a.dim, 5, mode) + PolyJet.build(
                a.dim, 5, mode, [(j, m, 7) for j, m in resonant]
            )
            cases.append((name.replace("exact", mode), GermSpec(a, f, 5)))
    for t in range(3):
        a, _ = resonant_map_blocks(rng, nil=True)
        f = _random_nonlinear(rng, 4, 4, MODE_FLOAT)
        cases.append((f"jordan-resonant-float-{t}", GermSpec(a, f, 4)))
    done = 0
    while done < 6:
        germ = random_hyperbolic_germ(rng, 2 + done % 2, 6)
        try:
            distinguished_normal_form(germ)
        except NearResonanceError:
            continue
        cases.append((f"hyperbolic-float-{done}", germ))
        done += 1
    return [pytest.param(germ, id=name) for name, germ in cases]


@pytest.mark.parametrize("germ", _online_cases())
def test_online_normal_form_matches_two_compose_recursion(germ):
    got = distinguished_normal_form(germ)
    h, g, residual, diagnostics = _reference_normal_form(germ)
    assert got.diagnostics == diagnostics
    assert list(got.transform.coeffs) == list(h.coeffs)
    assert list(got.germ.nonlinear.coeffs) == list(g.coeffs)
    if germ.mode == MODE_EXACT:
        assert got.transform.coeffs == h.coeffs
        assert got.germ.nonlinear.coeffs == g.coeffs
        assert got.residual == residual == 0.0
    else:
        for mine, want in ((got.transform, h), (got.germ.nonlinear, g)):
            for key, c in want.coeffs.items():
                assert abs(mine.coeffs[key] - c) <= 1e-13 * abs(c), key
    # the residual reuses the defect's slices; it must still be the
    # conjugacy defect of the h and g it returns
    full, scale = _conjugacy_defect(germ, got.transform, got.germ.nonlinear)
    assert abs(got.residual - full) <= 1e-13 * scale, (got.residual, full, scale)


def test_normal_form_composes_online(monkeypatch):
    """Only the online kernel composes: every full composition raises."""
    from embedflow import jets

    def boom(*args, **kwargs):
        raise AssertionError("full composition")

    want = distinguished_normal_form(_dense_diagonal_germ((8, 2, 4), 6, MODE_EXACT))
    monkeypatch.setattr(jets._OnlineComposition, "of", boom)
    monkeypatch.setattr(jets, "compose", boom)
    got = distinguished_normal_form(_dense_diagonal_germ((8, 2, 4), 6, MODE_EXACT))
    assert got.transform.coeffs == want.transform.coeffs
    assert got.germ.nonlinear.coeffs == want.germ.nonlinear.coeffs


# -- float germs on graded arrays --------------------------------------------
#
# Float germs normalize on embedflow.graded; the package runs the dict
# kernel for exact germs only, and on a float germ the dict recursion of
# _reference_normal_form is the reference.


def _outcome(normal_form, germ, tol):
    """What a normal form ends in: its h, g and diagnostics, or the refusal
    it raised, with the (j, sigma) it names."""
    try:
        result = normal_form(germ, tol)
    except NearResonanceError as exc:
        return "near", exc.target, exc.exponent
    except ValueError as exc:
        return "range", str(exc)
    return "ok", result.transform.coeffs.keys(), result.germ.nonlinear.coeffs.keys(), result.diagnostics


def _diagonal_float_germ(lams, terms, N):
    a = BlockMatrix(tuple(JordanBlock(lam, 1) for lam in lams))
    return GermSpec(a, PolyJet.build(len(lams), N, MODE_FLOAT, terms), N)


@pytest.mark.parametrize(
    "lams, terms, want",
    [
        # (1, (2,0,0)) and (2, (1,1,0)) both have divisors near 1e-10, but
        # only the second has a nonzero defect
        ((2.0, 4.0 + 1e-10, 8.0 + 1e-10), [(2, (1, 1, 0), 1.0)], ("near", 2, (1, 1, 0))),
        # lambda_0^2 leaves the float range at (1, (2,0,0)), first in row order
        ((1e200, 2.0, 4.0 + 4e-10), [(1, (2, 0, 0), 1.0), (2, (0, 2, 0), 1.0)], ("range",)),
        # in row 2, (0,2,0) comes before (2,0,0), so the near divisor is first
        ((1e200, 2.0, 4.0 + 4e-10), [(2, (0, 2, 0), 1.0), (2, (2, 0, 0), 1.0)], ("near", 2, (0, 2, 0))),
        # lambda_0^2 overflows only where the defect is zero
        ((1e200, 2.0), [(0, (0, 2), 1.0)], ("ok",)),
    ],
)
def test_float_refusals_at_the_first_nonzero_defect(lams, terms, want):
    """Both refusals, the near-resonant divisor and the eigenvalue power
    outside the float range, come at the same first (j, sigma) as on the
    dict kernel, and only where the defect is nonzero."""
    from embedflow.normal_form import _float_normal_form

    def dict_kernel(germ, tol):
        h, g, residual, diagnostics = _reference_normal_form(germ, tol)
        return NormalFormResult(GermSpec(germ.linear, g, germ.degree), h, residual, diagnostics)

    germ = _diagonal_float_germ(lams, terms, 3)
    got = _outcome(_float_normal_form, germ, 1e-12)
    assert got == _outcome(dict_kernel, germ, 1e-12)
    assert got[: len(want)] == want
    if want[0] == "range":
        assert "outside the float range" in got[1]


def _closure(monomials):
    """The monomials and their parent chains m -> m - e_i, i the last
    coordinate with m_i > 0, down to degree 2."""
    out = set()
    for m in monomials:
        m = tuple(m)
        while sum(m) > 1 and m not in out:
            out.add(m)
            i = max(k for k, e in enumerate(m) if e)
            m = m[:i] + (m[i] - 1,) + m[i + 1 :]
    return out


def _record_forming(monkeypatch):
    """Every slice formed by a graded power table, as (table, degree, the
    formed rows' monomials, the b's of the product lists, top then)."""
    from embedflow import graded

    formed = []
    form, products = graded._GradedPowers._form, graded._Grading.products
    current = []

    def recording_form(self, d, rows, coefficients=None):
        monomials = {self.grading.flat[c] for c in self.columns[rows].tolist()}
        current.append((self, d, monomials, [], max(self.degrees, default=0)))
        try:
            return form(self, d, rows, coefficients)
        finally:
            formed.append(current.pop())

    def recording_products(self, d, degrees):
        current[-1][3].extend(degrees)
        return products(self, d, degrees)

    monkeypatch.setattr(graded._GradedPowers, "_form", recording_form)
    monkeypatch.setattr(graded._Grading, "products", recording_products)
    return formed


def _sparse_float_germs():
    from embedflow import parse_germ

    germs = []
    for name in ("paper-2.3", "paper-2.3-blocked", "paper-Astar", "paper-F1", "resonant-2d"):
        text = (resources.files("embedflow") / "fixtures" / f"{name}.germ").read_text()
        germs.append(parse_germ(text.replace("mode exact", "mode float")).to_spec()[0])
    # a few terms up to degree 5: h gets a support of its own, and the
    # resonant y2^2 e3 (4 = 2^2) gives g a term of degree 2
    terms = [(2, (0, 2, 0), 1.0), (1, (1, 1, 0), 1.0), (0, (0, 0, 5), 0.5), (1, (2, 0, 3), -0.5)]
    germs.append(_diagonal_float_germ((8.0, 2.0, 4.0), terms, 7))
    return germs


def test_sparse_germs_form_only_reachable_products(monkeypatch):
    """On sparse germs X forms powers only in the parent closure of f's
    support and Y only in that of h's, and a product list never reads a
    slice of X above top: only degrees at which X has a nonzero slice."""
    from embedflow.normal_form import _float_normal_form

    for germ in _sparse_float_germs():
        formed = _record_forming(monkeypatch)
        result = _float_normal_form(germ, DEFAULT_TOL)
        monkeypatch.undo()
        # X is the table of y + h, whose lowest slices are y^m
        support = {True: _closure(m for _, m in germ.nonlinear.coeffs)}
        support[False] = _closure(m for _, m in result.transform.coeffs)
        for table, d, rows, bs, top in formed:
            assert rows <= support[table._unit], (d, rows)
            assert all(b <= top and b in table.degrees for b in bs), (d, bs, top)
    # the last germ forms powers of both tables
    assert {table._unit for table, _, _, bs, _ in formed if bs} == {True, False}


@pytest.mark.parametrize(
    "germ",
    [
        pytest.param(_dense_diagonal_germ((4, 2), 10, MODE_FLOAT), id="diag(4,2) N=10"),
        pytest.param(_dense_diagonal_germ((8, 2, 4), 6, MODE_FLOAT), id="diag(8,2,4) N=6"),
        pytest.param(_dense_diagonal_germ((3, 2), 12, MODE_FLOAT), id="diag(3,2) N=12"),
        pytest.param(
            GermSpec(
                BlockMatrix((JordanBlock(3.0, 2), JordanBlock(9.0, 1))),
                _random_nonlinear(np.random.default_rng(8), 3, 6, MODE_FLOAT, density=1.0),
                6,
            ),
            id="jordan dense N=6",
        ),
    ],
)
def test_product_bound_holds_on_dense_float_germs(monkeypatch, germ):
    """product_bound(n, N) bounds the products the float normal form forms
    on dense germs, counted where every product list runs."""
    from embedflow import graded

    formed = []
    multiply = graded._Products.multiply

    def counting(self, left, lrows, right, rrows):
        formed.append(len(lrows) * self.size)
        return multiply(self, left, lrows, right, rrows)

    monkeypatch.setattr(graded._Products, "multiply", counting)
    distinguished_normal_form(germ)
    assert 0 < sum(formed) <= graded.product_bound(germ.dim, germ.degree)


def _count_dict_products(monkeypatch):
    """A list that collects the coefficient products every dict-kernel
    slice formation forms, read off the kernel's state as it leaves it."""
    counts = []
    slices = _OnlineComposition._slices

    def counting(self, m, low, d):
        entry = self._powers.get(m)
        before = len(entry[2]) if entry else 0
        out = slices(self, m, low, d)
        if low > 1:
            i, parent, formed = self._powers[m]
            below = self._x[parent.index(1)] if low == 2 else self._powers[parent][2]
            end = low - 1 + len(below)
            for k in range(low + before, low + len(formed)):
                counts.append(sum(
                    len(below[a - low + 1]) * len(self._x[i][k - a - 1])
                    for a in range(max(low - 1, k - self._top), min(k, end))
                ))
        return out

    monkeypatch.setattr(_OnlineComposition, "_slices", counting)
    return counts


@pytest.mark.parametrize(
    "lams, N", [((4, 2), 8), ((8, 2, 4), 5), ((3, 2), 9)], ids=["diag(4,2)", "diag(8,2,4)", "diag(3,2)"]
)
def test_product_bound_holds_on_dense_exact_germs(monkeypatch, lams, N):
    """The same bound holds for the dict kernel that exact germs run on."""
    from embedflow import graded

    germ = _dense_diagonal_germ(lams, N, MODE_EXACT)
    counts = _count_dict_products(monkeypatch)
    distinguished_normal_form(germ)
    assert 0 < sum(counts) <= graded.product_bound(germ.dim, germ.degree)


def test_product_bound_is_the_dense_count():
    """The bound is the closed form of the dense sum it documents."""
    from math import comb

    from embedflow.graded import product_bound

    def size(n, d):
        return comb(d + n - 1, n - 1)

    for n, N in ((1, 6), (2, 9), (3, 5), (5, 3)):
        dense = sum(
            sum(size(n, r) for r in range(2, d + 1))
            * sum(size(n, d - b) * size(n, b) for b in range(1, d))
            for d in range(2, N + 1)
        )
        assert product_bound(n, N) == 2 * dense
