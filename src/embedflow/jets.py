"""Truncated multivariate polynomial jets and jet algebra.

A jet is a polynomial self-map of R^n (or C^n) stored sparsely as
``{(component, exponent): coefficient}`` and truncated at a fixed total
degree.  Coefficients are machine complex numbers in ``float`` mode and
Gaussian rationals in ``exact`` mode.

The composition and Jacobian operations here are the workhorses of the
normalization and embedding recursions.  Every jet composition on dicts
runs on one kernel, ``_OnlineComposition`` (online truncated
composition): the degree-d slice of each monomial of the inner jet is
formed once, from the inner jet's slices below d, and kept.  ``compose``
puts a known inner jet in place at once; the exact normal form lets it
grow one degree per step.  It serves both modes in ``compose`` and the
embedding solve, and exact mode in the normal form; the float normal form
runs the same recursion on dense graded arrays instead
(:mod:`embedflow.graded`).  The flow of :func:`embedflow.flow.flow_jet`
runs on ``jacobian_apply``.
``complexify``/``realify`` move a real jet to coordinates in which a
rotation-block linear part becomes diagonal, by conjugating with
z = x_i + i*x_{i+1} on each designated pair; ``complexify`` folds a
relabeling of the coordinates into the same change.  Both run on
``_linear_change``, which substitutes a linear inner map and mixes the
components by a linear outer one, with no composition.

The composition kernel and ``jacobian_apply`` work on packed monomial keys:
at truncation degree N each exponent vector becomes one integer with its
total degree in the top field, so a product of monomials is one integer
addition and the truncation test is one compare of that sum with
(N+1) << (b*n).  ``PolyJet.coeffs`` stays keyed by ``(j, MultiIndex)``;
each operation packs its inputs once and unpacks its result once.

Every operation drops exact zeros only, in every coefficient ring: a
float coefficient is kept however small it is.  The one exception is the
float linear change of ``complexify``/``realify``, which drops a
coefficient that lies within rounding of the magnitudes that formed it
(:data:`embedflow.tolerances.ROUNDING`), so cross terms that cancel
exactly in exact arithmetic vanish in float arithmetic too.

Jets are value objects: no operation mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .scalars import ExactnessError, QQi
from .tolerances import CONJUGATE_SYMMETRY, ROUNDING

__all__ = [
    "MODE_FLOAT",
    "MODE_EXACT",
    "ConjugateSymmetryError",
    "MultiIndex",
    "PolyJet",
    "RealPairing",
    "compose",
    "jacobian_apply",
    "multiindices",
    "complexify",
    "realify",
    "jet_distance",
]

MODE_FLOAT = "float"
MODE_EXACT = "exact"


class ConjugateSymmetryError(ValueError):
    """A jet expected to realify had a conjugate-symmetry violation."""


class MultiIndex(tuple):
    """Exponent vector of a monomial y^m; immutable, totally ordered by lex."""

    def __new__(cls, entries):
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError("multi-index entries must be nonnegative")
        return super().__new__(cls, entries)

    @property
    def degree(self) -> int:
        return sum(self)

    def plus(self, other) -> "MultiIndex":
        return MultiIndex(a + b for a, b in zip(self, other))

    def minus_unit(self, i: int) -> "MultiIndex":
        if self[i] == 0:
            raise ValueError("exponent underflow")
        return MultiIndex(
            e - 1 if k == i else e for k, e in enumerate(self)
        )

    @staticmethod
    def unit(n: int, i: int) -> "MultiIndex":
        return MultiIndex(1 if k == i else 0 for k in range(n))

    @staticmethod
    def zeros(n: int) -> "MultiIndex":
        return MultiIndex((0,) * n)


def multiindices(n: int, degree: int):
    """All multi-indices of the given total degree, in ascending tuple order."""
    if n == 0:
        if degree == 0:
            yield MultiIndex(())
        return
    # Compositions of `degree` into n parts, first coordinate ascending.
    for bars in combinations(range(degree + n - 1), n - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(degree + n - 2 - prev)
        yield MultiIndex(parts)


def _coerce_scalar(c, mode):
    if mode == MODE_FLOAT:
        return complex(c)
    if isinstance(c, QQi):
        return c
    if isinstance(c, (int, Fraction)):
        return QQi(c)
    raise ExactnessError(
        f"cannot store {type(c).__name__} in an exact jet; use float mode"
    )


@dataclass(frozen=True)
class PolyJet:
    """Sparse polynomial jet: coefficients of y^m e_j up to a total degree."""

    dim: int
    degree: int
    mode: str
    coeffs: dict

    @staticmethod
    def build(dim, degree, mode, terms) -> "PolyJet":
        """Assemble a jet from ``(j, exponents, coefficient)`` terms.

        Terms beyond the truncation degree are rejected; zero coefficients
        are dropped.
        """
        coeffs = {}
        for j, m, c in terms:
            j = int(j)
            m = m if isinstance(m, MultiIndex) else MultiIndex(m)
            if not 0 <= j < dim:
                raise ValueError(f"component {j} out of range for dim {dim}")
            if len(m) != dim:
                raise ValueError("multi-index dimension mismatch")
            if m.degree > degree:
                raise ValueError(
                    f"term of degree {m.degree} exceeds truncation {degree}"
                )
            c = _coerce_scalar(c, mode)
            key = (j, m)
            if key in coeffs:
                c = coeffs[key] + c
            coeffs[key] = c
        return PolyJet(dim, degree, mode, {k: c for k, c in coeffs.items() if c})

    @staticmethod
    def zero(dim, degree, mode=MODE_FLOAT) -> "PolyJet":
        return PolyJet(dim, degree, mode, {})

    @staticmethod
    def identity(dim, degree, mode=MODE_FLOAT) -> "PolyJet":
        one = _one(mode)
        return PolyJet(
            dim,
            degree,
            mode,
            {(j, MultiIndex.unit(dim, j)): one for j in range(dim)},
        )

    # -- simple views ----------------------------------------------------

    def component(self, j) -> dict:
        return {m: c for (jj, m), c in self.coeffs.items() if jj == j}

    def degree_slice(self, k) -> "PolyJet":
        return PolyJet(
            self.dim,
            self.degree,
            self.mode,
            {key: c for key, c in self.coeffs.items() if key[1].degree == k},
        )

    def truncate(self, n) -> "PolyJet":
        return PolyJet(
            self.dim,
            n,
            self.mode,
            {key: c for key, c in self.coeffs.items() if key[1].degree <= n},
        )

    def min_degree(self) -> int:
        return min((m.degree for (_, m) in self.coeffs), default=0)

    def support(self):
        return set(self.coeffs)

    def linear_matrix(self):
        """Dense (complex) matrix of the degree-1 part."""
        out = [[0j] * self.dim for _ in range(self.dim)]
        for (j, m), c in self.coeffs.items():
            if m.degree == 1:
                k = next(i for i, e in enumerate(m) if e)
                out[j][k] = complex(c)
        return out

    def max_abs(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def to_float(self) -> "PolyJet":
        if self.mode == MODE_FLOAT:
            return self
        return PolyJet(
            self.dim,
            self.degree,
            MODE_FLOAT,
            {key: complex(c) for key, c in self.coeffs.items()},
        )

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other):
        if self.dim != other.dim:
            raise ValueError("jet dimensions differ")
        if self.mode != other.mode:
            raise ValueError("jet coefficient modes differ")

    def __add__(self, other):
        self._check_compatible(other)
        degree = min(self.degree, other.degree)
        out = {k: c for k, c in self.coeffs.items() if k[1].degree <= degree}
        for k, c in other.coeffs.items():
            if k[1].degree > degree:
                continue
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return PolyJet(self.dim, degree, self.mode, out)

    def __neg__(self):
        return PolyJet(
            self.dim, self.degree, self.mode,
            {k: -c for k, c in self.coeffs.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a) -> "PolyJet":
        a = _coerce_scalar(a, self.mode)
        if not a:
            return PolyJet.zero(self.dim, self.degree, self.mode)
        return PolyJet(
            self.dim, self.degree, self.mode,
            {k: c * a for k, c in self.coeffs.items()},
        )

    def evaluate(self, point):
        """Numeric evaluation at a point (complex arithmetic)."""
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        out = [0j] * self.dim
        for (j, m), c in self.coeffs.items():
            v = complex(c)
            for x, e in zip(point, m):
                if e:
                    v *= complex(x) ** e
            out[j] += v
        return out


def jet_distance(f: PolyJet, g: PolyJet) -> float:
    """Max coefficient distance, comparing over the common truncation."""
    degree = min(f.degree, g.degree)
    keys = {k for k in f.coeffs if k[1].degree <= degree}
    keys |= {k for k in g.coeffs if k[1].degree <= degree}
    worst = 0.0
    for k in keys:
        a = complex(f.coeffs.get(k, 0))
        b = complex(g.coeffs.get(k, 0))
        worst = max(worst, abs(a - b))
    return worst


# -- packed monomial keys -------------------------------------------------
#
# At truncation degree N in n variables every exponent m with |m| <= N
# packs into one integer: b = N.bit_length() bits per coordinate, and the
# degree above them,
#
#     key(m) = |m| << (b*n)  +  sum_i m_i << (b*i).
#
# A product of monomials is the sum of their keys, and it survives the
# truncation exactly when that sum is below cap = (N+1) << (b*n).  No
# field carries: a product of degree <= N keeps every exponent <= N < 2^b,
# and one of higher degree fails the compare through its top field alone.


def _packing(n: int, degree: int):
    """Field width ``b`` and truncation ``cap`` of keys for n variables."""
    b = degree.bit_length()
    return b, (degree + 1) << (b * n)


def _pack(m, b: int) -> int:
    """Key of the exponent m: its degree field, then m_{n-1}, ..., m_0."""
    key = sum(m)
    for e in reversed(m):
        key = (key << b) + e
    return key


def _unpacker(n: int, b: int):
    """Memoized map from keys of degree <= N back to :class:`MultiIndex`."""
    mask = (1 << b) - 1
    shifts = [b * i for i in range(n)]
    names = {}

    def unpack(key):
        m = names.get(key)
        if m is None:
            # the fields are nonnegative ints: skip MultiIndex's coercion
            m = names[key] = tuple.__new__(MultiIndex, [(key >> s) & mask for s in shifts])
        return m

    return unpack


def _unpacked(terms: dict, n: int, b: int) -> dict:
    """``{(j, key): c}`` back to ``{(j, m): c}``, zero sums dropped."""
    unpack = _unpacker(n, b)
    return {(j, unpack(key)): c for (j, key), c in terms.items() if c}


def _packed(poly: dict, b: int, degree: int) -> dict:
    """``{m: c}`` keyed by packed m; terms above ``degree`` are dropped,
    which no truncated product would have kept."""
    return {_pack(m, b): c for m, c in poly.items() if m.degree <= degree}


def _one(mode):
    """The unit of the coefficient ring of ``mode``."""
    return 1.0 + 0.0j if mode == MODE_FLOAT else QQi(1)


def _composer(g: PolyJet, degree: int):
    """The map ``f -> compose(f, g, degree)`` for one fixed g, which keeps
    the slices of every monomial of g's components from call to call."""
    n = g.dim
    components = [{} for _ in range(n)]
    for (j, m), c in g.coeffs.items():
        if not m.degree:
            raise ValueError("composition target must fix the origin")
        components[j][m] = c
    composition = _OnlineComposition.of(components, degree)
    one = _one(g.mode)

    def apply(f: PolyJet) -> PolyJet:
        f._check_compatible(g)
        return PolyJet(n, degree, f.mode, composition.substitute(f.coeffs, degree, one))

    return apply


def compose(f: PolyJet, g: PolyJet, degree=None) -> PolyJet:
    """Jet of f(g(y)), truncated at ``degree``.

    ``g`` must fix the origin (no constant term); otherwise the truncated
    composition would not be well defined degree by degree.
    """
    if degree is None:
        degree = min(f.degree, g.degree)
    return _composer(g, degree)(f)


class _OnlineComposition:
    """Degree-by-degree slices of f(X(y)) for an inner jet X that grows one
    degree at a time: online truncated composition (Brent and Kung,
    J. ACM 1978).

    X is held as packed per-component, per-degree slices ``{key: c}``,
    starting from its degree-1 part; :meth:`extend` appends the next
    degree, and :meth:`of` puts a known X in place at once.  The degree-d
    slice of the monomial P_m = prod_i X_i^{m_i}, |m| >= 2, is

        [P_m]_d = sum_a [P_(m - e_i)]_a [X_i]_(d - a),   |m| - 1 <= a < d,

    i the last coordinate with m_i > 0, and it reads X only below degree
    d.  So once X is known to degree d - 1 the slice is final: each is
    formed once and kept for the life of the object.  Only the terms that
    can be nonzero are formed: with ``top`` the highest degree at which X
    has a nonzero slice, d - a <= top, and [P_m]_d = 0 above |m| * top.
    Keys are packed for truncation degree ``degree``, the highest slice
    that may be asked for.  The coefficients may live in any ring that
    adds and multiplies with itself and with the scalars of f.
    """

    def __init__(self, linear, degree: int):
        """``linear[i]`` is the degree-1 part of X_i as ``{m: c}``."""
        self._n = len(linear)
        self._b, _ = _packing(self._n, degree)
        self._unpack = _unpacker(self._n, self._b)
        self._x = [[_packed(comp, self._b, 1)] for comp in linear]
        self._top = 1 if any(x[0] for x in self._x) else 0
        self._powers = {}  # m -> (i, m - e_i, [[P_m]_|m|, [P_m]_(|m|+1), ...])

    @classmethod
    def of(cls, components, degree: int) -> "_OnlineComposition":
        """X known to ``degree`` at once: ``components[i]`` is X_i as
        ``{m: c}``, with no constant term; terms above ``degree`` are
        dropped."""
        out = cls([{} for _ in components], degree)
        b = out._b
        for comp, x in zip(components, out._x):
            x.extend({} for _ in range(degree - 1))
            for m, c in comp.items():
                d = m.degree
                if d <= degree:
                    x[d - 1][_pack(m, b)] = c
        out._top = max(
            (d for x in out._x for d, part in enumerate(x, start=1) if part), default=0
        )
        return out

    def extend(self, terms: dict):
        """Append X's next degree from ``{(j, m): c}``, every m of that degree."""
        new = [{} for _ in range(self._n)]
        for (j, m), c in terms.items():
            new[j][_pack(m, self._b)] = c
        for comp, part in zip(self._x, new):
            comp.append(part)
        if terms:
            self._top = len(self._x[0])

    def _slices(self, m, low: int, d: int) -> list:
        """``[[P_m]_low, [P_m]_(low+1), ...]``, formed up to degree d or to
        low * top, above which every slice is zero: the list may stop short
        of d.  ``low`` is |m| >= 1."""
        if low == 1:
            return self._x[m.index(1)]
        entry = self._powers.get(m)
        if entry is None:
            i = len(m) - 1
            while not m[i]:
                i -= 1
            entry = self._powers[m] = (i, m[:i] + (m[i] - 1,) + m[i + 1 :], [])
        i, parent, slices = entry
        top = self._top
        stop = low * top
        if d < stop:
            stop = d
        if low + len(slices) <= stop:
            x = self._x[i]
            below = self._slices(parent, low - 1, stop - 1)
            # a runs over the degrees of P_parent's formed slices, k - a <= top
            end = low - 1 + len(below)
            while low + len(slices) <= stop:
                k = low + len(slices)
                out = {}
                get = out.get
                for a in range(max(low - 1, k - top), min(k, end)):
                    p = below[a - low + 1]
                    q = x[k - a - 1]
                    if not p or not q:
                        continue
                    q = q.items()
                    for k1, c1 in p.items():
                        for k2, c2 in q:
                            key = k1 + k2
                            s = get(key)
                            out[key] = c1 * c2 if s is None else s + c1 * c2
                slices.append({key: c for key, c in out.items() if c})
        return slices

    def power_slice(self, m, d: int) -> dict:
        """Degree-d slice of prod_i X_i^{m_i}, |m| >= 2, as ``{m': c}``: a
        fresh dict over the kept slice."""
        unpack = self._unpack
        low = m.degree
        slices = self._slices(m, low, d)
        if d - low >= len(slices):
            return {}
        return {unpack(key): c for key, c in slices[d - low].items()}

    def _sum(self, coeffs: dict, first: int, d: int, one) -> dict:
        """Degrees ``first`` to d of f(X) for the terms ``coeffs`` of f, as
        ``{(j, m): c}``; zero sums dropped."""
        out = {}
        get = out.get
        for (j, m), c in coeffs.items():
            low = m.degree
            if low > d:
                continue
            if not low:
                if not first:
                    key = (j, 0)
                    s = get(key)
                    v = c * one
                    out[key] = v if s is None else s + v
                continue
            slices = self._slices(m, low, d)
            for part in slices[first - low if first > low else 0 : d - low + 1]:
                for key, cc in part.items():
                    key = (j, key)
                    s = get(key)
                    v = c * cc
                    out[key] = v if s is None else s + v
        unpack = self._unpack
        return {(j, unpack(key)): c for (j, key), c in out.items() if c}

    def degree_slice(self, coeffs: dict, d: int) -> dict:
        """Degree-d slice of f(X) as ``{(j, m): c}``, zero sums dropped.

        ``coeffs`` holds f's terms, none of degree 0; a term of degree
        above d adds nothing to the slice.  X must be known to degree
        d - 1, or to degree d when f has linear terms.
        """
        return self._sum(coeffs, d, d, None)

    def substitute(self, coeffs: dict, d: int, one) -> dict:
        """f(X) truncated at degree d as ``{(j, m): c}``, zero sums dropped.

        ``coeffs`` holds f's terms; a degree-0 term c gives c * ``one``,
        ``one`` the unit of X's ring.  X must be known to degree d.
        """
        return self._sum(coeffs, 0, d, one)


def jacobian_apply(g: PolyJet, w: PolyJet, degree=None) -> PolyJet:
    """Jet of Dg(y) * w(y), truncated at ``degree``."""
    g._check_compatible(w)
    if degree is None:
        degree = min(g.degree, w.degree)
    n = g.dim
    b, cap = _packing(n, degree)
    w_components = [_packed(w.component(s), b, degree) for s in range(n)]
    # d/dy_s lowers exponent s and the degree by one.  Keys add linearly,
    # so this lands on the key of m - e_s even when an exponent of m
    # (|m| = degree + 1) does not fit its field.
    lower = [(1 << (b * s)) + (1 << (b * n)) for s in range(n)]
    out = {}
    for (j, m), c in g.coeffs.items():
        if m.degree > degree + 1:
            continue
        key = _pack(m, b)
        for s, e in enumerate(m):
            if not e:
                continue
            # one monomial times w_s: its key plus each key of w_s
            base = key - lower[s]
            room = cap - base
            c_e = c * e
            for k2, c2 in w_components[s].items():
                if k2 < room:
                    kk = (j, base + k2)
                    prev = out.get(kk)
                    v = c_e * c2
                    out[kk] = v if prev is None else prev + v
    return PolyJet(n, degree, g.mode, _unpacked(out, n, b))


# -- real/complex coordinate changes --------------------------------------


@dataclass(frozen=True)
class RealPairing:
    """Which coordinate pairs (i, i+1) carry a complex structure z = x_i + i*x_{i+1}.

    Unpaired coordinates stay real.  Pairs must be disjoint and each pair
    contiguous; the set of paired plus real indices covers 0..dim-1.
    """

    dim: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for i, k in self.pairs:
            if k != i + 1:
                raise ValueError("pairs must be contiguous (i, i+1)")
            if not 0 <= i < k < self.dim:
                raise ValueError("pair out of range")
            if i in seen or k in seen:
                raise ValueError("pairs must be disjoint")
            seen.add(i)
            seen.add(k)

    @property
    def real_indices(self) -> tuple[int, ...]:
        paired = {i for pair in self.pairs for i in pair}
        return tuple(i for i in range(self.dim) if i not in paired)

    @property
    def trivial(self) -> bool:
        return not self.pairs


def _imag_violation(jet: PolyJet) -> float:
    worst = 0.0
    for c in jet.coeffs.values():
        if isinstance(c, QQi):
            worst = max(worst, abs(c._b / c._d))
        else:
            worst = max(worst, abs(c.imag))
    return worst


def _require_real(f: PolyJet):
    """Refuse a jet with an imaginary part above CONJUGATE_SYMMETRY, as
    :func:`complexify` does."""
    if _imag_violation(f) > CONJUGATE_SYMMETRY:
        raise ValueError("complexify expects a real-coefficient jet")


def _real_part(q: QQi) -> QQi:
    return QQi(Fraction(q._a, q._d)) if q._b else q


def _drop_imag(jet: PolyJet) -> PolyJet:
    out = {}
    for k, c in jet.coeffs.items():
        if isinstance(c, QQi):
            c = _real_part(c)
        else:
            c = complex(c.real, 0.0)
        if c:
            out[k] = c
    return PolyJet(jet.dim, jet.degree, jet.mode, out)


def _pair_change(pairing: RealPairing, mode):
    """``(forward, backward)`` as rows ``(j, k, c)`` of the linear map
    y -> (sum c y_k)_j: forward gives z = x_i + i*x_{i+1} and its conjugate
    on each pair, backward gives x back from z."""
    if mode == MODE_FLOAT:
        one, img, half = 1.0 + 0j, 1j, 0.5 + 0j
    else:
        one, img, half = QQi(1), QQi(0, 1), QQi(Fraction(1, 2))
    forward = [(i, i, one) for i in pairing.real_indices]
    backward = list(forward)
    for i, k in pairing.pairs:
        forward += [(i, i, one), (i, k, img), (k, i, one), (k, k, -img)]
        backward += [(i, i, half), (i, k, half), (k, i, -img * half), (k, k, img * half)]
    return forward, backward


def _linear_change(f: PolyJet, outer, inner) -> PolyJet:
    """outer(f(inner(y))) truncated at f's degree, for linear maps given as
    rows ``(j, k, c)``.

    The inner map goes in through :class:`_OnlineComposition`, where a
    power of a linear map is one slice; the outer one mixes the components,
    each coefficient summing its row in row order.  In float mode a
    coefficient c is dropped when |c| <= ROUNDING * b, b being the same
    coefficient of |outer|(|f|(|inner|)), formed by the same two steps on
    moduli: c is then the roundoff of terms that cancel exactly.
    """
    n, N = f.dim, f.degree

    def change(coeffs, outer, inner, one):
        components = [{} for _ in range(n)]
        for j, k, c in inner:
            components[j][MultiIndex.unit(n, k)] = c
        parts = [[] for _ in range(n)]
        for (k, m), c in _OnlineComposition.of(components, N).substitute(coeffs, N, one).items():
            parts[k].append((m, c))
        out = {}
        for j, k, c in outer:
            for m, cc in parts[k]:
                s = out.get((j, m))
                out[(j, m)] = c * cc if s is None else s + c * cc
        return {key: c for key, c in out.items() if c}

    out = change(f.coeffs, outer, inner, _one(f.mode))
    if f.mode == MODE_EXACT:
        return PolyJet(n, N, f.mode, out)
    bound = change(
        {key: abs(c) for key, c in f.coeffs.items()},
        [(j, k, abs(c)) for j, k, c in outer],
        [(j, k, abs(c)) for j, k, c in inner],
        1.0,
    )
    kept = {key: c for key, c in out.items() if abs(c) > ROUNDING * bound[key]}
    return PolyJet(n, N, f.mode, kept)


def complexify(f: PolyJet, pairing: RealPairing, perm=None) -> PolyJet:
    """Conjugate a real-coefficient jet into paired complex coordinates.

    The coordinates are first relabeled, new x_i = old x_{perm[i]} (kept
    when ``perm`` is None).  Then on each pair the new coordinates are
    z = x_i + i*x_{i+1} and its conjugate; a rotation block
    [[a, b], [-b, a]] becomes diag(a - i*b, a + i*b).
    """
    n = f.dim
    if pairing.dim != n:
        raise ValueError("pairing dimension mismatch")
    _require_real(f)
    perm = tuple(range(n) if perm is None else perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    if pairing.trivial and perm == tuple(range(n)):
        return f
    forward, backward = _pair_change(pairing, f.mode)
    # outer: the relabeling, then forward; inner: backward, then its inverse
    return _linear_change(
        f, [(j, perm[k], c) for j, k, c in forward], [(perm[j], k, c) for j, k, c in backward]
    )


def realify(f: PolyJet, pairing: RealPairing) -> PolyJet:
    """Inverse of :func:`complexify` without relabeling; checks conjugate
    symmetry.

    The imaginary residue of the back-transformed jet must vanish (within
    ``CONJUGATE_SYMMETRY`` in float mode, exactly in exact mode) or the
    input was not the complexification of a real jet.
    """
    if pairing.dim != f.dim:
        raise ValueError("pairing dimension mismatch")
    if pairing.trivial:
        out = f
    else:
        forward, backward = _pair_change(pairing, f.mode)
        out = _linear_change(f, backward, forward)
    bad = _imag_violation(out)
    limit = 0.0 if f.mode == MODE_EXACT else CONJUGATE_SYMMETRY
    if bad > limit:
        raise ConjugateSymmetryError(
            f"conjugate symmetry violated: imaginary residue {bad:.3e}"
        )
    return _drop_imag(out)
