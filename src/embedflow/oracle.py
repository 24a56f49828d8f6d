"""The ODE oracle, one route of the time-one check.

It integrates the jet-coefficient equations C' = B C + v(C) of a field
X = By + v from the identity to time one, on the columns (j, m) that can
become nonzero, with its own error estimate.  One walk up the degrees
(:func:`_plan`) finds those columns and builds the gather/scatter plan of
v(C) on them, rows grouped by degree.  The plan is the oracle's own, so it
shares no code with the flow of :mod:`embedflow.flow` or the solve of
:mod:`embedflow.embedding`; it imports numpy, operator, jet types and the
``ODE_*`` tolerances only.
It takes one step, or ODE_STEPS when one step's error estimate is above
roundoff.  ``tri`` is B's :class:`embedflow.spectral.TriangularLinear`.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .jets import MODE_FLOAT, MultiIndex, PolyJet
from .tolerances import ODE_ROUNDOFF, ODE_STEPS


def _plan(terms, seeds, degree: int):
    """``(cols, out, factors, mult)``: the columns (j, m) of the
    jet-coefficient equations that the field ``terms`` can make nonzero
    from ``seeds``, and its gather/scatter plan on them, from one walk up
    the degrees.

    ``seeds``, by degree, take slots 0, 1, ... of ``cols``; the walk adds
    each column it reaches, so ``cols`` stays sorted by degree.  At degree
    d a term (j, p, c), c y^p in component j with |p| >= 2, takes every
    pick of p_i columns of component i for each coordinate i, of total
    degree d, from the columns below d, which are final; then each linear
    term (i, e_k, c), taken by row so that a chain of couplings closes,
    copies the columns (k, m) of degree d to (i, m).  One row per pick:
    ``out`` is the slot of the summed column, ``factors[k]`` the slot of
    its k-th factor (slot len(cols), which holds 1, for rows with fewer
    factors) and ``mult`` is c times the multinomial count of the pick.
    The rows are grouped by the degree of their output.
    """
    n = len(seeds[0][1])
    cols = list(seeds)
    index = {col: s for s, col in enumerate(cols)}
    # levels[i][d]: the slots of the columns of component i of degree d
    levels = [[[] for _ in range(degree + 1)] for _ in range(n)]
    for s, (j, m) in enumerate(cols):
        levels[j][m.degree].append(s)
    linear = sorted(((i, m.index(1), c) for i, m, c in terms if m.degree == 1), key=lambda t: t[:2])
    wide = [(j, [(i, e) for i, e in enumerate(p) if e], c) for j, p, c in terms if p.degree > 1]
    powers: dict = {}
    out, flats, mult = [], [], []

    def power(i, e, d):
        """(slots, monomial, multiset count) of each pick of e columns of
        component i of total degree d, by nondecreasing slot; for e >= 2
        only degrees below d enter, so the cached list is final."""
        key = (i, e, d)
        if key not in powers:
            if e == 1:
                found = [((s,), cols[s][1], 1) for s in levels[i][d]]
            else:
                # slots go by degree, so the first factor is of the lowest;
                # rest starts at s or later, so count(s) is its leading run
                found = [
                    ((s,) + rest, tuple(map(add, cols[s][1], mon)), k * e // (rest.count(s) + 1))
                    for d1 in range(1, d // e + 1)
                    for s in levels[i][d1]
                    for rest, mon, k in power(i, e - 1, d - d1)
                    if rest[0] >= s
                ]
            powers[key] = found
        return powers[key]

    def picks(factors, d):
        (i, e), rest = factors[0], factors[1:]
        if not rest:
            return power(i, e, d)
        low = sum(f for _, f in rest)
        return [
            (a + b, tuple(map(add, ma, mb)), ca * cb)
            for d1 in range(e, d - low + 1)
            for a, ma, ca in power(i, e, d1)
            for b, mb, cb in picks(rest, d - d1)
        ]

    def row(j, mon, d, slots, c):
        s = index.get((j, mon))
        if s is None:
            s = index[(j, mon)] = len(cols)
            cols.append((j, MultiIndex(mon)))
            levels[j][d].append(s)
        out.append(s)
        flats.append(slots)
        mult.append(c)

    for d in range(1, degree + 1):
        for j, factors, c in wide:
            for slots, mon, count in picks(factors, d):
                row(j, mon, d, slots, c * count)
        for i, k, c in linear:  # by row, so a chain of couplings closes
            for s in levels[k][d]:
                row(i, cols[s][1], d, (s,), c)
    pad = len(cols)
    width = max(map(len, flats), default=1)  # a linear diagonal field has no rows
    factors = np.array(
        [f + (pad,) * (width - len(f)) for f in flats], dtype=np.intp
    ).reshape(len(flats), width).T
    return cols, np.array(out, dtype=np.intp), factors, np.array(mult, dtype=complex)


def _coefficient_plan(terms, seeds, degree: int):
    """``(cols, g)``: the columns of :func:`_plan` and the map C ->
    (sum of ``terms``)(C) on them.

    C is the flat vector of the coefficients of ``cols``; g(C) is the jet
    of the terms composed with it, truncated at ``degree``.  The plan is
    built once; each evaluation is one gather, one product over the
    factors and one ``bincount`` scatter.
    """
    cols, out, factors, mult = _plan(terms, seeds, degree)
    size = len(cols)
    # real and imaginary parts of row r land in float slots 2*out[r], 2*out[r]+1
    slots = np.stack([2 * out, 2 * out + 1], axis=1).ravel()
    flat = np.ones(size + 1, dtype=complex)  # slot ``size`` stays 1

    def apply(state):
        flat[:size] = state
        contrib = np.multiply.reduce(flat[factors], axis=0)
        contrib *= mult
        return np.bincount(slots, contrib.view(np.float64), 2 * size).view(complex)

    return cols, apply


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
    """``(cols, g)``: :func:`_coefficient_plan` of B's couplings and v's
    terms, g = B C + v(C) less D C, seeded with the identity columns
    (k, e_k) in slots k = 0..n-1."""
    n = tri.dim
    units = [MultiIndex.unit(n, k) for k in range(n)]
    terms = [(i, units[k], complex(c)) for i, k, c in tri.nil]
    terms += [(j, m, complex(c)) for (j, m), c in v.coeffs.items()]
    return _coefficient_plan(terms, list(enumerate(units)), degree)


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
    cols, g = plan
    rate = np.array([complex(tri.diag[j]) for j, _ in cols])
    z = np.zeros(len(cols), dtype=complex)
    z[: tri.dim] = 1.0  # the identity, in the seed slots of :func:`_dp5_plan`
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
