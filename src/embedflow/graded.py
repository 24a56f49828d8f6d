"""The package's one exponent table, and dense graded float arrays.

:func:`_grading` keeps the exponents of degree 1 to N in n variables, by
degree in :func:`multiindices` order: the resonance scan reads them as
rows, the exact normal form by degree and the float normal form as
columns.  A float polynomial map of C^n is a complex array whose
degree-d coefficients sit in the M_d = C(d + n - 1, n - 1) columns from
``offsets[d]`` on.  Products of slices run on product lists: for every
pair of a degree-a and a degree-b monomial, the slot of their product in
degree a + b, found by adding packed keys.  A row's products are formed
by one gather and one multiply and summed into its slots by one
``np.add.reduceat``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb

import numpy as np

from .jets import MultiIndex, _pack, _packing, multiindices

# The most coefficient products one numpy multiply forms; longer products
# run in chunks of rows, or of slots when one row alone is longer.
_CHUNK = 1 << 14

# What one more numpy pass over a product list costs, in coefficient
# products: about 20 microseconds of calls against about 5 ns a product.
_PASS = 4096


class _Products:
    """Coefficient products into one degree, sorted by the slot they land
    in: pair p multiplies column ``left[p]`` of one factor by column
    ``right[p]`` of the other.  Every slot is hit."""

    def __init__(self, left, right, slots, size: int):
        order = np.argsort(slots, kind="stable")
        left, right, slots = left[order], right[order], slots[order]
        self.size, self.slots = len(slots), size
        # cut at slot boundaries into runs of about _CHUNK pairs
        cuts, first = [0], 0
        while first + _CHUNK < len(slots):
            cuts.append(max(int(slots[first + _CHUNK]), cuts[-1] + 1))
            first = int(np.searchsorted(slots, cuts[-1]))
        if cuts[-1] < size:
            cuts.append(size)
        self.segments = []
        for c0, c1 in zip(cuts, cuts[1:]):
            p0, p1 = np.searchsorted(slots, [c0, c1])
            lc, rc = left[p0:p1], right[p0:p1]
            # each factor is gathered from the window of columns it reads
            lw = slice(int(lc.min()), int(lc.max()) + 1)
            rw = slice(int(rc.min()), int(rc.max()) + 1)
            starts = np.searchsorted(slots[p0:p1], np.arange(c0, c1))
            self.segments.append((slice(c0, c1), lw, lc - lw.start, rw, rc - rw.start, starts))

    def multiply(self, left, lrows, right, rrows):
        """The products ``left[lrows[r]] * right[rrows[r]]`` for every r, as
        polynomials, one row each; ``right`` has few rows, each read by
        many r."""
        out = np.empty((len(lrows), self.slots), dtype=complex)
        step = max(1, _CHUNK // max(1, self.size))
        for cols, lw, lc, rw, rc, starts in self.segments:
            factor = right[:, rw].take(rc, axis=1)
            for r0 in range(0, len(lrows), step):
                rows = slice(r0, r0 + step)
                prod = left[lrows[rows], lw].take(lc, axis=1)
                prod *= factor[rrows[rows]]
                out[rows, cols] = np.add.reduceat(prod, starts, axis=1)
        return out


class _Grading:
    """The exponents of degree 1 to N in n variables, per degree in
    :func:`multiindices` order, those of degree 2 to N also as the rows of
    one read-only int64 ``matrix``, and the product lists between degrees,
    built on first use and kept."""

    def __init__(self, n: int, degree: int):
        self.n, self.degree = n, degree
        self.monomials = [()] + [tuple(multiindices(n, d)) for d in range(1, degree + 1)]
        self.sizes = [len(mons) for mons in self.monomials]
        self.offsets = [0]  # offsets[d]: the first column of degree d; degree 0 has none
        for size in self.sizes:
            self.offsets.append(self.offsets[-1] + size)
        self.slot = [{m: s for s, m in enumerate(mons)} for mons in self.monomials]
        self.flat = [m for mons in self.monomials for m in mons]  # by column
        self.matrix = np.array(self.flat[n:], dtype=np.int64).reshape(-1, n)
        self.matrix.flags.writeable = False
        b, _ = _packing(n, degree)
        # packed keys stay below 2**63 unless n is large at low degree
        dtype = np.int64 if (degree + 1).bit_length() + b * n < 63 else object
        self._keys = [np.array([_pack(m, b) for m in mons], dtype=dtype) for mons in self.monomials]
        self._cache = {}
        # per column: the degree of its exponent m and, for |m| >= 2, the
        # column of m's parent m - e_i and i, the last coordinate with m_i > 0
        self.degree_of = [d for d, size in enumerate(self.sizes) for _ in range(size)]
        self.parent_of, self.var_of = [0] * len(self.flat), [0] * len(self.flat)
        for c, m in enumerate(self.flat[n:], start=n):
            i, parent = _split(m)
            below = self.degree_of[c] - 1
            self.parent_of[c], self.var_of[c] = self.offsets[below] + self.slot[below][parent], i
        # the units e_i as powers: their degree-1 slices, rows and row data
        self.units = np.eye(n)[:, ::-1]
        self.unit_rows = {n - 1 - i: i for i in range(n)}  # column -> row
        self.unit_info = np.array(
            [(1, i, i, n - 1 - i) for i in range(n)], dtype=np.intp
        ).reshape(n, 4)

    def _pairs(self, a: int, b: int):
        """(s, t, slot) for every degree-a exponent s and degree-b exponent t."""
        key = ("pairs", a, b)
        if key not in self._cache:
            keys = self._keys[a + b]
            order = np.argsort(keys, kind="stable")
            sums = (self._keys[a][:, None] + self._keys[b][None, :]).ravel()
            slots = order[np.searchsorted(keys[order], sums)].astype(np.intp)
            s, t = np.divmod(np.arange(len(slots), dtype=np.intp), self.sizes[b])
            self._cache[key] = (s, t, slots)
        return self._cache[key]

    def products(self, d: int, degrees: tuple) -> _Products:
        """The products of a graded row's degree-(d - b) slice by another's
        degree-b slice, for every b in ``degrees``, in graded columns."""
        key = ("products", d, degrees)
        if key not in self._cache:
            parts = [self._pairs(d - b, b) for b in degrees]
            self._cache[key] = _Products(
                np.concatenate([s + self.offsets[d - b] for b, (s, _, _) in zip(degrees, parts)]),
                np.concatenate([t + self.offsets[b] for b, (_, t, _) in zip(degrees, parts)]),
                np.concatenate([slots for _, _, slots in parts]),
                self.sizes[d],
            )
        return self._cache[key]

    def lowest(self, d: int):
        """(parents, variables, products): for each degree-d exponent m its
        parent m - e_i as a slot of degree d - 1 and its i, the last
        coordinate with m_i > 0, and the products of a degree-(d - 1) slice
        by a degree-1 slice, in the columns of each degree."""
        key = ("lowest", d)
        if key not in self._cache:
            pairs = [_split(m) for m in self.monomials[d]]
            slot = self.slot[d - 1]
            self._cache[key] = (
                np.array([slot[p] for _, p in pairs], dtype=np.intp),
                np.array([i for i, _ in pairs], dtype=np.intp),
                _Products(*self._pairs(d - 1, 1), self.sizes[d]),
            )
        return self._cache[key]


@lru_cache(maxsize=8)
def _grading(n: int, degree: int) -> _Grading:
    """The one :class:`_Grading` of n variables up to ``degree``."""
    return _Grading(n, degree)


def _split(m):
    """(i, m - e_i) for i the last coordinate with m_i > 0."""
    i = len(m) - 1
    while not m[i]:
        i -= 1
    return i, tuple.__new__(MultiIndex, m[:i] + (m[i] - 1,) + m[i + 1 :])


class _GradedPowers:
    """Degree-by-degree slices of the powers P_m = prod_i X_i^{m_i} of an
    inner map X that grows one degree at a time, on graded arrays: the
    array analogue of :class:`_OnlineComposition`, float coefficients only.

    The powers kept are the rows: the n units first, whose slices are X's
    own, then each monomial given to :meth:`add` with its parent chain,
    P_m = P_(m - e_i) X_i, i the last coordinate with m_i > 0.  So

        [P_m]_d = sum_b [P_(m - e_i)]_(d - b) [X_i]_b

    over the degrees b < d of X's nonzero slices.  A term is formed only
    where it can be nonzero: b <= top, the highest degree of a nonzero
    slice of X, and d - b <= (|m| - 1) * top, above which the parent's
    slices vanish (:meth:`_groups` lets a few rows read such zero slices
    where that saves a numpy pass).  ``table`` keeps every slice of degree
    below N of the rows of degree below N, one graded row per power (and
    spare rows); rows of degree N come last and keep none.
    """

    def __init__(self, grading: _Grading, linear=None):
        """``linear`` is X's degree-1 slice, an (n, n) array; None for
        X = y + O(2)."""
        self.grading = grading
        n = grading.n
        self._unit = linear is None
        linear = grading.units if self._unit else linear
        self.table = np.zeros((n, grading.offsets[grading.degree]), dtype=complex)
        self.table[:, :n] = linear
        # a diagonal X_i = c_i y_i + O(2): the lowest slice of P_m is
        # c^m y^m, set when m is added; None when X's linear part couples
        lead = linear[range(n), range(n - 1, -1, -1)]
        self._lead = lead if np.count_nonzero(linear) == np.count_nonzero(lead) else None
        self.degree = 1  # the highest degree formed
        self.degrees = [1] if linear.any() else []  # of X's nonzero slices
        # per row: its degree |m|, its i, its parent's row, and its column
        # in a graded coefficient array; the unit e_i is row i
        self._rows = grading.unit_info
        self.lows, self._vars, self._parents, self.columns = self._rows.T
        self._row_of = dict(grading.unit_rows)  # by column
        # the rows by degree, and how many have degree at most d
        self._order, self._upto = np.arange(n), [0] + [n] * grading.degree

    def add(self, columns):
        """Keep the powers of the exponents at graded ``columns`` (all of
        degree >= 2) and their parent chains; a power of degree below N
        gets its slices up to the degree formed."""
        g, row_of = self.grading, self._row_of
        degree, parent = g.degree_of, g.parent_of
        new = set()
        for c in columns.tolist():
            while degree[c] > 1 and c not in row_of and c not in new:
                new.add(c)
                c = parent[c]
        if not new:
            return
        first = len(row_of)
        new = sorted(new)  # by degree: powers of degree N last, below the table
        row_of.update(zip(new, range(first, first + len(new))))
        info = [(degree[c], g.var_of[c], row_of[parent[c]], c) for c in new]
        self._rows = np.concatenate((self._rows, info))
        self.lows, self._vars, self._parents, self.columns = self._rows.T
        self._order = np.argsort(self.lows, kind="stable")
        self._upto = list(accumulate(np.bincount(self.lows, minlength=g.degree + 1).tolist()))
        stored = first + sum(1 for c in new if degree[c] < g.degree)  # rows in the table
        if stored > len(self.table):  # capacity doubles
            grown = np.zeros((max(stored, 2 * len(self.table)), self.table.shape[1]), dtype=complex)
            grown[: len(self.table)] = self.table
            self.table = grown
        rows = np.arange(first, len(row_of))
        if self._unit:
            self.table[rows[: stored - first], new[: stored - first]] = 1
        elif self._lead is not None:  # by degree: each from its parent's
            for d in sorted({degree[c] for c in new[: stored - first]}):
                at = rows[self.lows[rows] == d]
                self.table[at, self.columns[at]] = self._lowest(at)
        for d in range(degree[new[0]], self.degree + 1):
            if self._lead is not None and max(b for b in self.degrees if b < d) == 1:
                continue  # X = c y below d: every slice but the lowest, set above, is 0
            self._form(d, rows[: np.searchsorted(self.lows[rows], d, side="right")])

    def _lowest(self, rows):
        """The one coefficient c^m of the lowest slice of each of ``rows``
        for a diagonal X_i = c_i y_i + O(2), from its parent's: the
        product the kernel would form, the others being products with 0."""
        parents = self._parents[rows]
        return self.table[parents, self.columns[parents]] * self._lead[self._vars[rows]]

    def _form(self, d: int, rows, coefficients=None):
        """Form the degree-d slices of ``rows`` (2 <= |m| <= d, by degree)
        and keep them when d < N; with ``coefficients``, a graded
        coefficient array whose terms lie among the rows, return the sum
        of those rows' slices weighted by it, (len(coefficients), M_d)."""
        g, N = self.grading, self.grading.degree
        out = None
        if coefficients is not None:
            out = np.zeros((len(coefficients), g.sizes[d]), dtype=complex)
        lows = self.lows[rows]
        if self._lead is not None:  # the lowest slices, the rows of degree d, are known
            cut = np.searchsorted(lows, d)
            if out is not None and cut < len(rows):
                at = rows[cut:]
                columns = self.columns[at]
                known = coefficients[:, columns]
                out[:, columns - g.offsets[d]] += known if self._unit else known * self._lowest(at)
            rows, lows = rows[:cut], lows[:cut]
        degrees = [b for b in self.degrees if b < d]
        if not degrees or not len(rows):
            return out
        first = 0
        for count, group in self._groups(d, np.bincount(lows, minlength=d + 1).tolist(), degrees):
            sel = rows[first : first + count]
            first += count
            if not group:
                continue
            slices = g.products(d, group).multiply(
                self.table, self._parents[sel], self.table[: g.n], self._vars[sel]
            )
            if d < N:
                self.table[sel, g.offsets[d] : g.offsets[d + 1]] = slices
            if out is not None:
                weights = coefficients[:, self.columns[sel]]
                if weights.size * slices.shape[1] <= _CHUNK:
                    out += (weights[:, :, None] * slices).sum(axis=1)
                else:  # einsum's own loops: BLAS would grow the peak memory
                    out += np.einsum("jr,rm->jm", weights, slices)
        return out

    def _groups(self, d, counts, degrees):
        """Runs of rows of neighbouring degrees L, as (row count, b's),
        each formed on one product list.  A row of degree L takes the b
        with d - (L - 1) * top <= b <= d - L + 1, and reads zero slices
        for the other b of its run; runs join while the zero products that
        costs stay below the cost of another numpy pass."""
        top, sizes = degrees[-1], self.grading.sizes
        per = [0] * (d + 1)
        for b in degrees:
            per[b] = sizes[d - b] * sizes[b]
        cum = list(accumulate(per))  # cum[b]: products of one row over the b' <= b
        if sum(counts) * cum[d - 1] <= 2 * _CHUNK:  # small: one pass
            return [(sum(counts), tuple(degrees))]

        def cost(lo, hi):
            return cum[hi] - cum[lo - 1] if lo <= hi else 0

        runs = []  # [row count, lowest b, highest b]
        for L in range(2, d + 1):
            count = counts[L]
            if not count:
                continue
            lo, hi = max(1, d - (L - 1) * top), d - L + 1
            if not cost(lo, hi):  # every slice of these rows is zero at d
                runs.append([count, d, 0])
                continue
            if runs and cost(runs[-1][1], runs[-1][2]):
                held, rlo, rhi = runs[-1]
                joined = (held + count) * cost(min(lo, rlo), max(hi, rhi))
                if joined <= held * cost(rlo, rhi) + count * cost(lo, hi) + _PASS:
                    runs[-1] = [held + count, min(lo, rlo), max(hi, rhi)]
                    continue
            runs.append([count, lo, hi])
        return [(count, tuple(b for b in degrees if lo <= b <= hi)) for count, lo, hi in runs]

    def step(self, coefficients):
        """Form the next degree d and return the degree-d slice of f(X),
        f given by its graded coefficient array ``coefficients``, none of
        degree 1.  f's terms must be rows, except where their powers are 0
        at d.  While X = y below d the slice is f_d itself, formed from no
        power; when no power is kept, the result is None.  At d = N only
        the powers that f reads are formed."""
        g = self.grading
        d = self.degree = self.degree + 1
        if self._unit and self.degrees[-1] == 1:  # X = y below d, so f(X)_d = f_d
            return coefficients[:, g.offsets[d] : g.offsets[d + 1]].copy()
        if len(self.lows) == g.n:  # no power kept: no term of f reaches d
            return None
        rows = self._order[g.n : self._upto[d]]
        if d == g.degree:
            rows = rows[coefficients[:, self.columns[rows]].any(axis=0)]
        return self._form(d, rows, coefficients)

    def extend(self, part):
        """X's own slice at the degree last formed, an (n, M_d) array, not
        zero; a zero slice needs no call."""
        g, d = self.grading, self.degree
        if d < g.degree:
            self.table[: g.n, g.offsets[d] : g.offsets[d + 1]] = part
        self.degrees.append(d)


@lru_cache(maxsize=64)
def product_bound(n: int, degree: int) -> int:
    """An upper bound, from n and N alone, on the coefficient products
    that the normal form's compositions form, on either kernel.

    At degree d each of X = y + h and Y = Ay + g forms the slices of at
    most the R_d powers of degree 2 to d, and one slice is at most
    K_d = sum_{b=1}^{d-1} M_(d-b) M_b products, every pair of a
    degree-(d - b) and a degree-b exponent.  So the bound is
    2 sum_{d=2}^{N} R_d K_d, with R_d = C(d + n, n) - n - 1 and, by
    Vandermonde's identity, K_d = C(d + 2n - 1, 2n - 1) - 2 M_d.  It is
    the dense case: a sparse germ forms far fewer.
    """
    total = 0
    for d in range(2, degree + 1):
        size = comb(d + n - 1, n - 1)
        total += (comb(d + n, n) - n - 1) * (comb(d + 2 * n - 1, 2 * n - 1) - 2 * size)
    return 2 * total
