"""The ODE oracle, one route of the time-one check.

It integrates the jet-coefficient equations C' = B C + v(C) of a field
X = By + v from the identity to time one, on the columns (j, m) that can
become nonzero, with its own error estimate.  v(C) comes from its own
gather/scatter plan, so it shares no code with the flow of
:mod:`embedflow.flow` or the solve of :mod:`embedflow.embedding`; it
imports numpy, operator, jet types and the ``ODE_*`` tolerances only.
It takes one step, or ODE_STEPS when one step's error estimate is above
roundoff.  ``tri`` is B's :class:`embedflow.spectral.TriangularLinear`.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .jets import MODE_FLOAT, MultiIndex, PolyJet
from .tolerances import ODE_ROUNDOFF, ODE_STEPS


def _reachable(tri, v: PolyJet, degree: int):
    """The columns (j, m) of the jet-coefficient equations that can become
    nonzero between the identity and time one, sorted by degree, then
    component, then monomial.

    The closure, from supports only, of the identity columns (k, e_k) under
    B's couplings, which copy (k, m) to (i, m) for each coupling (i, k),
    and under v's terms: a term y^p of component j reaches (j, sum of the
    picks) for every pick of p_i columns of component i.  The picks of a
    term of degree at least 2 lie below the degree they reach, so one pass
    up the degrees closes the set.
    """
    n = tri.dim
    # levels[i][d]: the monomials of degree d reached in component i
    levels = [[set() for _ in range(degree + 1)] for _ in range(n)]
    couplings = sorted((i, k) for i, k, _ in tri.nil)
    terms = [(j, [(i, e) for i, e in enumerate(p) if e]) for j, p in v.coeffs]
    powers: dict = {}

    def power(i, e, d):
        """Sums of e reached monomials of component i, of degree d; for
        e >= 2 only degrees below d enter, so the cached set is final."""
        if e == 1:
            return levels[i][d]
        key = (i, e, d)
        if key not in powers:
            powers[key] = {
                a.plus(b)
                for d1 in range(1, d - e + 2)
                for a in levels[i][d1]
                for b in power(i, e - 1, d - d1)
            }
        return powers[key]

    def picks(factors, d):
        (i, e), rest = factors[0], factors[1:]
        if not rest:
            return power(i, e, d)
        low = sum(f for _, f in rest)
        return {
            a.plus(b)
            for d1 in range(e, d - low + 1)
            for a in power(i, e, d1)
            for b in picks(rest, d - d1)
        }

    for k in range(n):
        levels[k][1].add(MultiIndex.unit(n, k))
    for d in range(1, degree + 1):
        for j, factors in terms:
            if sum(e for _, e in factors) <= d:
                levels[j][d] |= picks(factors, d)
        for i, k in couplings:  # by row, so a chain of couplings closes
            levels[i][d] |= levels[k][d]
    return [
        (j, m) for d in range(1, degree + 1) for j in range(n) for m in sorted(levels[j][d])
    ]


def _composition_table(terms, cols, degree: int):
    """Gather/scatter plan of a field on the jet coefficients ``cols``.

    Applied to the flat vector C of the coefficients of ``cols`` (slot s
    holds the coefficient of y^m in component j for cols[s] = (j, m)), a
    term (j, p, c), c y^p in component j, contributes, for every way of
    picking a p_i-element multiset of the columns of component i for each
    coordinate i within the degree budget, ``mult * prod C[t]`` to the
    coefficient of the summed monomial in component j.  One row per such
    pick: ``out`` is its output slot, ``factors[k]`` the slot of its k-th
    factor (slot len(cols), which holds 1, for rows with fewer factors) and
    ``mult`` is c times the multinomial count of the pick.  Every summed
    column must be among ``cols``; the closure of :func:`_reachable` is.
    """
    n = len(cols[0][1])
    index = {col: s for s, col in enumerate(cols)}
    # the columns of each component, as (slot, monomial), by degree
    own = [[(s, m) for s, (j, m) in enumerate(cols) if j == i] for i in range(n)]
    memo: dict = {}

    def multisets(i, power, budget, start):
        """(slots, degree, exponent sum, multiset coefficient) of each
        nondecreasing pick of ``power`` columns of component i from
        ``start`` on, within a degree budget.

        Memoized: every term and component asks for the same few tables.
        """
        key = (i, power, budget, start)
        if key in memo:
            return memo[key]
        if power == 0:
            found = [((), 0, (0,) * n, 1)]
        else:
            found = []
            for idx in range(start, len(own[i])):
                s, mon = own[i][idx]
                d = mon.degree
                if d > budget:
                    break  # own[i] is sorted by degree
                for rest, dd, total, count in multisets(i, power - 1, budget - d, idx):
                    # rest starts at s or later: count(s) is its leading run
                    found.append(
                        (
                            (s,) + rest,
                            d + dd,
                            tuple(map(add, mon, total)),
                            count * power // (rest.count(s) + 1),
                        )
                    )
        memo[key] = found
        return found

    out, flats, mult = [], [], []
    for j, m, c in terms:
        combos = [((), 0, (0,) * n, 1)]
        later = sum(m)  # factors still to pick, each of degree at least 1
        for i, e in enumerate(m):
            if not e:
                continue
            later -= e
            combos = [
                (flat + idxs, dtot + dd, tuple(map(add, total, sub)), count * sub_count)
                for flat, dtot, total, count in combos
                for idxs, dd, sub, sub_count in multisets(i, e, degree - later - dtot, 0)
            ]
        for flat, _, total, count in combos:
            out.append(index[(j, total)])
            flats.append(flat)
            mult.append(c * count)
    pad = len(cols)
    width = max(map(len, flats), default=1)  # a linear diagonal field has no rows
    factors = np.array(
        [f + (pad,) * (width - len(f)) for f in flats], dtype=np.intp
    ).reshape(len(flats), width).T
    return np.array(out, dtype=np.intp), factors, np.array(mult, dtype=complex)


def _coefficient_plan(cols, terms, degree: int):
    """The map C -> (sum of ``terms``)(C) on the columns ``cols``.

    C is the flat vector of the coefficients of ``cols``; the result is the
    jet of the terms composed with it, truncated at ``degree``.  The plan of
    :func:`_composition_table` is built once; each evaluation is one gather,
    one product over the factors and one ``bincount`` scatter.
    """
    out, factors, mult = _composition_table(terms, cols, degree)
    size = len(cols)
    # real and imaginary parts of row r land in float slots 2*out[r], 2*out[r]+1
    slots = np.stack([2 * out, 2 * out + 1], axis=1).ravel()
    flat = np.ones(size + 1, dtype=complex)  # slot ``size`` stays 1

    def apply(state):
        flat[:size] = state
        contrib = np.multiply.reduce(flat[factors], axis=0)
        contrib *= mult
        return np.bincount(slots, contrib.view(np.float64), 2 * size).view(complex)

    return apply


def _coupled_terms(tri, v: PolyJet) -> list:
    """B's couplings and v's terms as ``(j, m, c)``: the field without B's
    diagonal."""
    n = tri.dim
    terms = [(i, MultiIndex.unit(n, k), complex(c)) for i, k, c in tri.nil]
    return terms + [(j, m, complex(c)) for (j, m), c in v.coeffs.items()]


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed.,
# II.5, Table 5.2).  Row s of _DP_A gives stage s+1 from the slopes before
# it, at the node _DP_C[s]; row 6 holds the fifth-order weights, so the
# seventh slope is f at the step's result and serves as the next step's
# first (FSAL).  _DP_E is the fifth-order minus the embedded fourth-order
# weights.
_DP_A = np.zeros((7, 6))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])
_DP_E = np.array(
    [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _dp5_plan(tri, v: PolyJet, degree: int):
    """``(cols, g)``: the reachable columns of the oracle's equations
    (:func:`_reachable`) and the plan of g = B C + v(C) less D C on them
    (:func:`_coefficient_plan`)."""
    cols = _reachable(tri, v, degree)
    return cols, _coefficient_plan(cols, _coupled_terms(tri, v), degree)


def _dp5_run(tri, plan, steps: int):
    """``(y, local, floor)`` of ``steps`` equal steps of integrating-factor
    Dormand-Prince 5(4) on a :func:`_dp5_plan`, from the identity to time
    one: C(1) on its columns, the sum over the steps of the largest local
    error in C (``|e^D|`` times the difference of the fifth- and
    fourth-order results in z), and the roundoff floor ODE_ROUNDOFF *
    max |C(1)|.  Six right-hand sides per step.

    The state is z = e^(-tD) C, D the rate mu_j of each column (j, m), so
    z' = e^(-tD) g(e^(tD) z) with g = B C + v(C) less D C (Lawson, SIAM J.
    Numer. Anal. 4, 1967; Hochbruck & Ostermann, Acta Numerica 19, 2010):
    the row of a term c y^p of component j moves at <p, mu> - mu_j, 0 on
    field-resonant terms and on B's couplings, not at the rates of e^(tB).
    e^(+-tD) at a step's nodes is formed once per step.
    """
    n = tri.dim
    cols, g = plan
    rate = np.array([complex(tri.diag[j]) for j, _ in cols])
    z = np.zeros(len(cols), dtype=complex)
    for k in range(n):
        z[cols.index((k, MultiIndex.unit(n, k)))] = 1.0
    h = 1.0 / steps
    # complex weights, so that no product below casts them on each call
    a = (h * _DP_A).astype(complex)
    e = (h * _DP_E).astype(complex)
    # e^(+-c_s h D) at the nodes of one step
    node = np.exp(np.outer(h * _DP_C, rate))
    back = 1.0 / node
    K = np.empty((7, len(cols)), dtype=complex)  # the slopes of one step, in z
    local = np.empty((steps, len(cols)), dtype=complex)  # their local errors
    K[0] = g(z)
    for i in range(steps):
        start = np.exp(i * h * rate)
        grow = node * start
        shrink = back / start
        for s in range(1, 7):
            stage = z + a[s, :s] @ K[:s]
            K[s] = g(stage * grow[s]) * shrink[s]
        z = stage  # the seventh stage is the step's fifth-order result
        np.dot(e, K, out=local[i])
        K[0] = K[6]
    y = np.exp(rate) * z
    local = float((np.abs(local) * np.exp(rate.real)).max(axis=1).sum())
    return y, local, ODE_ROUNDOFF * float(np.abs(y).max())


def _dp5_jet(tri, cols, degree: int, y) -> PolyJet:
    """The float jet of the coefficients ``y`` on the columns ``cols``."""
    terms = [(j, m, c) for (j, m), c in zip(cols, y) if c != 0]
    return PolyJet.build(tri.dim, degree, MODE_FLOAT, terms)


def _ode_oracle(tri, v: PolyJet, degree: int):
    """``(jet, err, steps)``: the map jet of the field By + v at time one,
    to ``degree``, by :func:`_dp5_run`, with ``err`` the sum of the steps'
    local errors plus the roundoff floor.

    The step count comes from the integrator's own error estimate
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4): one step, kept when
    its local error is within the roundoff floor, as on rate-0 fields whose
    coefficients are polynomials of low degree in t; otherwise ODE_STEPS
    steps on the same plan, as on long Jordan chains and on any field with
    a moving row, whose estimate the verdict then gates.
    """
    plan = _dp5_plan(tri, v, degree)
    y, local, floor = _dp5_run(tri, plan, 1)
    steps = 1
    if local > floor:
        steps = ODE_STEPS
        y, local, floor = _dp5_run(tri, plan, steps)
    return _dp5_jet(tri, plan[0], degree, y), local + floor, steps
