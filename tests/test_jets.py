"""Jet arithmetic against sympy composition and evaluation oracles."""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from embedflow import (
    MODE_EXACT,
    MODE_FLOAT,
    ConjugateSymmetryError,
    MultiIndex,
    PolyJet,
    QQi,
    RealPairing,
    complexify,
    compose,
    jacobian_apply,
    jet_distance,
    multiindices,
    realify,
)

from _reference import permute_jet


def _sympy_scalar(c):
    if isinstance(c, QQi):
        return sp.Rational(c.re.numerator, c.re.denominator) + sp.I * sp.Rational(
            c.im.numerator, c.im.denominator
        )
    # exact binary expansions keep the oracle arithmetic rational
    return sp.Rational(complex(c).real) + sp.I * sp.Rational(complex(c).imag)


def _sympy_vec(jet: PolyJet, xs):
    out = [sp.Integer(0)] * jet.dim
    for (j, m), c in jet.coeffs.items():
        term = _sympy_scalar(c)
        for i, e in enumerate(m):
            term *= xs[i] ** e
        out[j] += term
    return out


def _random_jet(rng, n, degree, mode=MODE_FLOAT, density=0.4, min_deg=1):
    terms = []
    for r in range(min_deg, degree + 1):
        for m in multiindices(n, r):
            for j in range(n):
                if rng.random() < density:
                    if mode == MODE_EXACT:
                        c = QQi(Fraction(int(rng.integers(-3, 4)), 2),
                                Fraction(int(rng.integers(-3, 4)), 3))
                    else:
                        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    if c:
                        terms.append((j, m, c))
    return PolyJet.build(n, degree, mode, terms)


def test_multiindex_basics():
    m = MultiIndex((2, 0, 1))
    assert m.degree == 3
    assert m.plus(MultiIndex.unit(3, 1)) == (2, 1, 1)
    assert MultiIndex.unit(3, 1) is MultiIndex.unit(3, 1)  # one kept instance per (n, i)
    assert m.minus_unit(0) == (1, 0, 1)
    with pytest.raises(ValueError):
        m.minus_unit(1)
    assert MultiIndex.zeros(2) == (0, 0)


def test_multiindices_counts_and_order():
    ms = list(multiindices(3, 4))
    assert len(ms) == 15  # C(4+2, 2)
    assert len(set(ms)) == 15
    assert all(sum(m) == 4 for m in ms)


def test_build_validates_degree_and_dim():
    with pytest.raises(ValueError):
        PolyJet.build(2, 3, MODE_FLOAT, [(0, MultiIndex((4, 0)), 1.0)])
    with pytest.raises(ValueError):
        PolyJet.build(2, 3, MODE_FLOAT, [(2, MultiIndex((1, 0)), 1.0)])


def test_exact_mode_rejects_floats():
    from embedflow import ExactnessError

    with pytest.raises((TypeError, ExactnessError)):
        PolyJet.build(1, 2, MODE_EXACT, [(0, MultiIndex((2,)), 0.5)])


def test_add_scale_evaluate_match_numpy():
    rng = np.random.default_rng(11)
    f = _random_jet(rng, 3, 4)
    g = _random_jet(rng, 3, 4)
    pt = (0.3 + 0.1j, -0.2, 0.15j)
    lhs = (f + g.scale(2.5)).evaluate(pt)
    want = [a + 2.5 * b for a, b in zip(f.evaluate(pt), g.evaluate(pt))]
    assert lhs == pytest.approx(want)


def _truncated(p, degree):
    """The sympy Poly p without its terms above total degree ``degree``."""
    kept = {m: c for m, c in p.as_dict().items() if sum(m) <= degree}
    return sp.Poly.from_dict(kept, *p.gens, domain=p.domain) if kept else p * 0


def _sympy_compose(f: PolyJet, g: PolyJet, xs, degree):
    """f(g(x)) per component, exactly over QQ_I, each product truncated at
    ``degree`` as it is formed."""
    gs = [sp.Poly(e, *xs, domain=sp.QQ_I) for e in _sympy_vec(g, xs)]
    one = sp.Poly(1, *xs, domain=sp.QQ_I)
    out = [one * 0 for _ in range(f.dim)]
    for (j, m), c in f.coeffs.items():
        term = one * _sympy_scalar(c)
        for i, e in enumerate(m):
            for _ in range(e):
                term = _truncated(term * gs[i], degree)
        out[j] = out[j] + term
    return out


def test_compose_matches_sympy():
    rng = np.random.default_rng(5)
    xs = sp.symbols("x0 x1")
    for _ in range(3):
        f = _random_jet(rng, 2, 4, density=0.5)
        g = _random_jet(rng, 2, 4, density=0.5)
        h = compose(f, g)
        want = _sympy_compose(f, g, xs, 4)
        for j in range(2):
            got = sp.Poly(_sympy_vec(h, xs)[j], *xs, domain=sp.QQ_I)
            worst = max(
                (abs(complex(c)) for c in (want[j] - got).coeffs()),
                default=0.0,
            )
            assert worst < 1e-12


def test_jacobian_apply_matches_sympy():
    rng = np.random.default_rng(6)
    xs = sp.symbols("x0 x1 x2")
    g = _random_jet(rng, 3, 3, density=0.5)
    w = _random_jet(rng, 3, 3, density=0.5)
    got = jacobian_apply(g, w)
    gs, ws = _sympy_vec(g, xs), _sympy_vec(w, xs)
    for j in range(3):
        want = sp.expand(sum(sp.diff(gs[j], xs[i]) * ws[i] for i in range(3)))
        poly = sp.Poly(want, *xs)
        trunc = sum(
            c * xs[0] ** m[0] * xs[1] ** m[1] * xs[2] ** m[2]
            for m, c in poly.terms()
            if sum(m) <= 3
        )
        diff = sp.expand(trunc - sp.expand(_sympy_vec(got, xs)[j]))
        worst = max(
            (abs(complex(c)) for c in sp.Poly(diff, *xs).coeffs()),
            default=0.0,
        )
        assert worst < 1e-12


def test_compose_exact_stays_exact():
    f = PolyJet.build(1, 4, MODE_EXACT, [(0, MultiIndex((2,)), QQi(Fraction(1, 3)))])
    g = PolyJet.build(
        1, 4, MODE_EXACT,
        [(0, MultiIndex((1,)), QQi(2)), (0, MultiIndex((2,)), QQi(1))],
    )
    h = compose(f, g)
    # (2x + x^2)^2 / 3 = (4x^2 + 4x^3 + x^4) / 3
    assert h.coeffs[(0, (2,))] == QQi(Fraction(4, 3))
    assert h.coeffs[(0, (3,))] == QQi(Fraction(4, 3))
    assert h.coeffs[(0, (4,))] == QQi(Fraction(1, 3))


def test_jet_distance_and_truncate():
    f = PolyJet.build(2, 3, MODE_FLOAT, [(0, MultiIndex((1, 1)), 2.0),
                                         (1, MultiIndex((0, 3)), -1.0)])
    g = PolyJet.build(2, 3, MODE_FLOAT, [(0, MultiIndex((1, 1)), 2.5)])
    assert jet_distance(f, g) == pytest.approx(1.0)
    assert jet_distance(f.truncate(2), g.truncate(2)) == pytest.approx(0.5)
    assert f.degree_slice(3).support() == {(1, (0, 3))}


def test_max_abs_and_jet_distance_read_nan():
    # a running max keeps 1.0 over a later nan; the largest modulus does not
    f = PolyJet.build(1, 3, MODE_FLOAT, [(0, (2,), 1.0), (0, (3,), float("nan"))])
    g = PolyJet.build(1, 3, MODE_FLOAT, [(0, (2,), 5.0)])
    assert np.isnan(f.max_abs()) and np.isnan(jet_distance(f, g)) and np.isnan(jet_distance(g, f))
    assert (g.max_abs(), jet_distance(g, g), PolyJet.zero(1, 3).max_abs()) == (5.0, 0.0, 0.0)


def test_complexify_realify_roundtrip():
    rng = np.random.default_rng(9)
    pairing = RealPairing(4, ((1, 2),))
    for _ in range(5):
        f = _random_jet(rng, 4, 3, density=0.4)
        # strip imaginary parts: the real form must be real
        f = PolyJet.build(
            4, 3, MODE_FLOAT,
            [(j, MultiIndex(m), complex(c).real) for (j, m), c in f.coeffs.items()],
        )
        z = complexify(f, pairing)
        back = realify(z, pairing)
        assert jet_distance(back, f) < 1e-12


def test_complexify_evaluation_identity():
    # f(x) evaluated at a real point equals the complexified jet pushed
    # through the coordinate change z = x1 + i x2, zbar = x1 - i x2.
    f = PolyJet.build(
        2, 2, MODE_FLOAT,
        [(0, MultiIndex((2, 0)), 1.0), (0, MultiIndex((0, 2)), 1.0),
         (1, MultiIndex((1, 1)), 2.0)],
    )
    pairing = RealPairing(2, ((0, 1),))
    zf = complexify(f, pairing)
    x = (0.3, -0.7)
    z = complex(x[0], x[1])
    vz = zf.evaluate((z, z.conjugate()))
    vx = f.evaluate(x)
    assert vz[0] == pytest.approx(complex(vx[0], vx[1]))
    assert vz[1] == pytest.approx(complex(vx[0], -vx[1]))


def test_realify_rejects_asymmetric():
    pairing = RealPairing(2, ((0, 1),))
    bad = PolyJet.build(2, 2, MODE_FLOAT, [(0, MultiIndex((2, 0)), 1.0)])
    with pytest.raises(ConjugateSymmetryError):
        realify(bad, pairing)


def test_permute_jet_is_coordinate_change():
    rng = np.random.default_rng(13)
    f = _random_jet(rng, 3, 3)
    perm = (2, 0, 1)  # new i reads old perm[i]
    g = permute_jet(f, perm)
    pt = (0.2, -0.3, 0.5)
    moved = tuple(pt[perm[i]] for i in range(3))
    got = g.evaluate(moved)
    want = f.evaluate(pt)
    assert got == pytest.approx(tuple(want[perm[i]] for i in range(3)))


# -- the packed kernels against a MultiIndex reference ---------------------
#
# The references below form products on MultiIndex keys.  jacobian_apply
# multiplies one monomial by w_s, p outer and q inner, with sums formed in
# that order, so its float results must be bitwise equal, term by term and
# in insertion order.  compose sums degree slices online, in another
# order: its exact results must be equal and its float results agree to
# roundoff, on the same support.

KERNEL_DEGREES = (1, 3, 4, 7, 8, 15, 16)  # both sides of every field-width change


def _ref_mul(p, q, limit):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            if m1.degree + m2.degree > limit:
                continue
            m = m1.plus(m2)
            s = out.get(m)
            out[m] = c1 * c2 if s is None else s + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_compose(f, g, degree):
    n, mode = f.dim, f.mode
    one = QQi(1) if mode == MODE_EXACT else 1.0 + 0.0j
    comps = [g.component(i) for i in range(n)]
    powers = [[{MultiIndex.zeros(n): one}, comp] for comp in comps]
    out = {}
    for (j, m), c in f.coeffs.items():
        if m.degree > degree:
            continue
        term = {MultiIndex.zeros(n): one}
        for i, e in enumerate(m):
            if not e:
                continue
            cache = powers[i]
            while len(cache) <= e:
                cache.append(_ref_mul(cache[-1], comps[i], degree))
            term = _ref_mul(term, cache[e], degree)
            if not term:
                break
        for mm, cc in term.items():
            s = out.get((j, mm))
            out[(j, mm)] = c * cc if s is None else s + c * cc
    return {k: c for k, c in out.items() if c}


def _assert_matches_compose(got: dict, want: dict, mode, note=None):
    """The support of ``want``; in exact mode its values, in float mode each
    value within 1e-14 of its largest coefficient."""
    assert set(got) == set(want), note
    if mode == MODE_EXACT:
        assert got == want, note
    else:
        scale = max(abs(c) for c in want.values())
        for key, c in want.items():
            assert abs(got[key] - c) <= 1e-14 * scale, (note, key)


def _ref_jacobian_apply(g, w, degree):
    comps = [w.component(s) for s in range(g.dim)]
    out = {}
    for (j, m), c in g.coeffs.items():
        for s, e in enumerate(m):
            if not e:
                continue
            prod = _ref_mul({m.minus_unit(s): c * e}, comps[s], degree)
            for mm, cc in prod.items():
                prev = out.get((j, mm))
                out[(j, mm)] = cc if prev is None else prev + cc
    return {k: c for k, c in out.items() if c}


def _bits(coeffs):
    """Terms in insertion order, floats by their exact bit patterns."""
    out = []
    for (j, m), c in coeffs.items():
        if isinstance(c, QQi):
            out.append((j, tuple(m), c.re, c.im))
        else:
            out.append((j, tuple(m), c.real.hex(), c.imag.hex()))
    return out


def _kernel_jet(rng, n, N, mode, min_deg, per_comp=3):
    """Sparse jet of degree 2^b + 1 (b = N.bit_length()) for truncation N.

    Each component gets ``per_comp`` terms of degree min_deg..N, some with
    coefficients of size 1e-5, whose products must be kept, and one term
    above N: a monomial with one exponent 2^b, which does not fit
    a packed field.
    """
    wide = 1 << N.bit_length()

    def coeff():
        if mode == MODE_EXACT:
            return QQi(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
                       Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))))
        scale = 1e-5 if rng.random() < 0.25 else 1.0
        return complex(*(scale * rng.uniform(-1, 1, size=2)))

    terms = []
    for j in range(n):
        for _ in range(per_comp):
            r = int(rng.integers(min_deg, N + 1))
            m = np.zeros(n, dtype=int)
            for i in rng.integers(0, n, size=r):
                m[i] += 1
            terms.append((j, MultiIndex(m), coeff()))
        # the linear term keeps powers of every component alive
        if min_deg <= 1:
            terms.append((j, MultiIndex.unit(n, j), coeff()))
        far = MultiIndex.unit(n, int(rng.integers(n)))
        terms.append((j, MultiIndex(e * wide for e in far), coeff()))
    return PolyJet.build(n, wide + 1, mode, terms)


@pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_EXACT])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_compose_matches_reference(mode, n):
    rng = np.random.default_rng(100 * n + (mode == MODE_EXACT))
    for N in KERNEL_DEGREES:
        f = _kernel_jet(rng, n, N, mode, min_deg=1)
        g = _kernel_jet(rng, n, N, mode, min_deg=1)
        got = compose(f, g, degree=N)
        assert got.degree == N
        _assert_matches_compose(got.coeffs, _ref_compose(f, g, N), mode, N)


@pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_EXACT])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_jacobian_apply_matches_reference(mode, n):
    rng = np.random.default_rng(200 * n + (mode == MODE_EXACT))
    three = QQi(3) if mode == MODE_EXACT else 3.0
    for N in KERNEL_DEGREES:
        g = _kernel_jet(rng, n, N, mode, min_deg=1)
        # a term of degree N + 1 whose derivative has degree N; when
        # N + 1 = 2^b its exponent does not fit a field before the derivative
        top = MultiIndex.unit(n, int(rng.integers(n)))
        top = MultiIndex(e * (N + 1) for e in top)
        g = g + PolyJet.build(n, g.degree, mode, [(0, top, three)])
        # constant terms of w keep that degree-N derivative alive
        w = _kernel_jet(rng, n, N, mode, min_deg=0)
        w = w + PolyJet.build(
            n, w.degree, mode, [(s, MultiIndex.zeros(n), three) for s in range(n)]
        )
        got = jacobian_apply(g, w, degree=N)
        assert got.degree == N
        want = _ref_jacobian_apply(g, w, N)
        assert any(m.degree == N for _, m in want)
        assert _bits(got.coeffs) == _bits(want), N


# -- float complexify against exact complexify ------------------------------


def _pair_blocks(rng):
    """Block list with at least one rotation or negative-pair block."""
    from embedflow import BlockMatrix, JordanBlock, NegativePairBlock, RotationBlock

    def q():
        return Fraction(rng.randint(1, 9), 4)

    blocks = [RotationBlock(q(), q(), 1) if rng.random() < 0.5 else NegativePairBlock(-q(), 1)]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(["rotation", "negpair", "jordan"])
        if kind == "jordan" or sum(b.order for b in blocks) == 3:
            blocks.append(JordanBlock(2 * q(), 1))
        elif kind == "rotation":
            blocks.append(RotationBlock(q(), q(), 1))
        else:
            blocks.append(NegativePairBlock(-q(), 1))
        if sum(b.order for b in blocks) >= 4:
            break
    return BlockMatrix(tuple(blocks))


@pytest.mark.parametrize("seed", range(8))
def test_float_complexify_matches_exact(seed):
    """Short-decimal real jets: float complexify keeps exactly the support of
    exact complexify (cross terms that cancel exactly are dropped, true
    coefficients kept) and agrees with it to roundoff, and realify returns
    the input's support."""
    import random

    rng = random.Random(seed)
    for _ in range(4):
        pairing = _pair_blocks(rng).pairing()
        n, N = pairing.dim, rng.randint(2, 6 if pairing.dim < 4 else 4)
        terms = [
            (j, m, Fraction(rng.randint(-99, 99), 10))
            for r in range(2, N + 1)
            for m in multiindices(n, r)
            for j in range(n)
            if rng.random() < 0.3
        ]
        terms = [t for t in terms if t[2]]
        exact = complexify(PolyJet.build(n, N, MODE_EXACT, terms), pairing)
        f = PolyJet.build(n, N, MODE_FLOAT, [(j, m, float(c)) for j, m, c in terms])
        got = complexify(f, pairing)
        assert set(got.coeffs) == set(exact.coeffs)
        for key, c in got.coeffs.items():
            want = complex(exact.coeffs[key])
            assert abs(complex(c) - want) <= 1e-14 * abs(want), key
        back = realify(got, pairing)
        assert set(back.coeffs) == set(f.coeffs)
        assert jet_distance(back, f) <= 1e-14 * f.max_abs()


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
@pytest.mark.parametrize("seed", range(4))
def test_complexify_folds_the_relabeling(seed, mode):
    """complexify with a permutation is complexify of the permuted jet
    (exactly in exact mode; with the same support and to roundoff in
    float mode), and realify returns the permuted real jet."""
    import random

    rng = random.Random(seed)
    for _ in range(20):
        n, N = rng.randint(1, 5), rng.randint(1, 5)
        pairs, i = [], 0
        while i < n - 1:
            if rng.random() < 0.5:
                pairs.append((i, i + 1))
                i += 2
            else:
                i += 1
        pairing = RealPairing(n, tuple(pairs))
        perm = list(range(n))
        rng.shuffle(perm)
        terms = [
            (j, m, Fraction(rng.randint(-99, 99), 10) if mode == MODE_EXACT else rng.uniform(-1, 1))
            for r in range(1, N + 1)
            for m in multiindices(n, r)
            for j in range(n)
            if rng.random() < 0.3
        ]
        f = PolyJet.build(n, N, mode, terms)
        permuted = permute_jet(f, perm)
        got = complexify(f, pairing, perm)
        want = complexify(permuted, pairing)
        back = realify(got, pairing)
        if mode == MODE_EXACT:
            assert got.coeffs == want.coeffs
            assert back.coeffs == permuted.coeffs
            continue
        assert set(got.coeffs) == set(want.coeffs)
        for key, c in got.coeffs.items():
            assert abs(c - want.coeffs[key]) <= 1e-15 * abs(want.coeffs[key]), key
        assert set(back.coeffs) == set(permuted.coeffs)
        assert jet_distance(back, permuted) <= 1e-14 * permuted.max_abs()


def test_complexify_refuses_a_non_permutation():
    f = PolyJet.identity(3, 2)
    with pytest.raises(ValueError, match="not a permutation"):
        complexify(f, RealPairing(3, ()), (0, 0, 1))


# -- compose on the online composition --------------------------------------


@pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_EXACT])
def test_compose_refuses_a_target_that_moves_the_origin(mode):
    f = _random_jet(np.random.default_rng(3), 2, 3, mode)
    one = QQi(1) if mode == MODE_EXACT else 1.0
    g = PolyJet.identity(2, 3, mode) + PolyJet.build(2, 3, mode, [(1, (0, 0), one)])
    with pytest.raises(ValueError, match="composition target must fix the origin"):
        compose(f, g)


@pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_EXACT])
def test_compose_passes_the_constant_term_through(mode):
    rng = np.random.default_rng(31 + (mode == MODE_EXACT))
    f = _random_jet(rng, 3, 4, mode, min_deg=0, density=0.5)
    g = _random_jet(rng, 3, 4, mode)
    constants = {k: c for k, c in f.coeffs.items() if k[1].degree == 0}
    assert constants
    got = compose(f, g)
    _assert_matches_compose(got.coeffs, _ref_compose(f, g, 4), mode)
    # g fixes the origin, so f's constants reach the result unchanged
    assert {k: c for k, c in got.coeffs.items() if k[1].degree == 0} == constants


def _shared_terms(rng, n, N, mode, count):
    """``count`` monomials of degree 0..N+2, each on one to n components:
    the first has degree N+1, above the truncation, and the second is on
    every component."""
    def coeff():
        if mode == MODE_EXACT:
            return QQi(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
                       Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))))
        return complex(*rng.uniform(-1, 1, size=2))

    terms = []
    for k in range(count):
        m = np.zeros(n, dtype=int)
        r = N + 1 if k == 0 else int(rng.integers(0, N + 3))
        for i in rng.integers(0, n, size=r):
            m[i] += 1
        on = n if k == 1 else int(rng.integers(1, n + 1))
        for j in rng.permutation(n)[:on]:
            terms.append((int(j), MultiIndex(m), coeff()))
    return PolyJet.build(n, N + 2, mode, terms)


@pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_EXACT])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_online_substitute_matches_reference(mode, n):
    """``_OnlineComposition.of(...).substitute`` on terms of degree 0 to
    N + 2 that share monomials across components, against forming every
    monomial afresh on MultiIndex keys."""
    from embedflow.jets import _OnlineComposition

    rng = np.random.default_rng(700 + 10 * n + (mode == MODE_EXACT))
    one = QQi(1) if mode == MODE_EXACT else 1.0 + 0.0j
    for N in range(2, 8):
        f = _shared_terms(rng, n, N, mode, count=4 + 2 * N)
        g = _shared_terms(rng, n, N, mode, count=3 + N)
        g = PolyJet(n, g.degree, mode, {k: c for k, c in g.coeffs.items() if k[1].degree})
        components = [g.component(i) for i in range(n)]
        got = _OnlineComposition.of(components, N).substitute(f.coeffs, N, one)
        _assert_matches_compose(got, _ref_compose(f, g, N), mode, N)


def _count_formed_slices(monkeypatch):
    """A Counter of the monomial slices formed by every
    ``_OnlineComposition``, keyed by (object, exponent, degree)."""
    from collections import Counter

    from embedflow import jets

    formed = Counter()
    slices = jets._OnlineComposition._slices

    def counting(self, m, low, d):
        entry = self._powers.get(m)
        before = len(entry[2]) if entry else 0
        out = slices(self, m, low, d)
        if low > 1:
            for k in range(low + before, low + len(self._powers[m][2])):
                formed[(self, tuple(m), k)] += 1
        return out

    monkeypatch.setattr(jets._OnlineComposition, "_slices", counting)
    return formed


@pytest.mark.parametrize("mode", [MODE_FLOAT, MODE_EXACT])
def test_composer_forms_each_slice_once(monkeypatch, mode):
    """One composer serves two calls: the second forms no slice, and no
    (monomial, degree) slice is formed twice."""
    from embedflow.jets import _composer

    rng = np.random.default_rng(41 + (mode == MODE_EXACT))
    f = _random_jet(rng, 3, 5, mode, density=0.5)
    g = _random_jet(rng, 3, 5, mode, density=0.5)
    formed = _count_formed_slices(monkeypatch)
    apply = _composer(g, 5)
    first = apply(f)
    count = len(formed)
    assert count and max(formed.values()) == 1
    assert apply(f) == first
    assert len(formed) == count and max(formed.values()) == 1
