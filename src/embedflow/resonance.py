"""Resonance classes of map and field eigenvalues, decided by one rule.

With map eigenvalues lambda = e^mu, a coordinate j and exponent m
(|m| >= 2) form

* a map resonance when lambda_j = lambda^m,
* a field resonance when mu_j = <m, mu>,
* a weak resonance when mu_j - <m, mu> = 2*pi*i*l for some integer l != 0.

All three ask one question, whether <m, mu> - mu_j lies in 2*pi*i*Z, and
read its witness l differently: a map resonance is a hit with any l, a
field resonance one with l = 0, a weak one with l != 0.  So map resonances
are exactly the union of field and weak ones once the logarithm branch mu
is fixed.  :func:`_witness` answers the question, and it is the only
resonance decision in the package: :func:`field_resonances` (also named
:func:`map_resonances`) scans every (j, m) up to a degree with it and fills
every class at once, the normal form and the embedding solve each take
their classes from one such report, and :func:`_not_field_resonant` reads
it on a field's support, which :class:`embedflow.embedding.FieldGerm`
checks.

Exact log data (``EigenScalar`` entries) are decided on an integer lattice
and never look at ``tol``.  All other data are decided on the complex logs:
a hit lies within ``tol`` (absolute in mu) of 2*pi*i*Z, and a miss within
NEAR_FACTOR times ``tol`` is reported as near, so borderline spectra are
never classified silently.  The default ``tol`` and NEAR_FACTOR live in
:mod:`embedflow.tolerances`.  The exponents scanned come from one cached
:class:`MonomialIndex` per dimension and degree, and each report is kept
on the :class:`EigenData` it scanned, per degree and ``tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .jets import multiindices
from .scalars import EigenScalar
from .spectral import EigenData, _keep
from .tolerances import DEFAULT_TOL, NEAR_FACTOR

__all__ = [
    "ResonanceReport",
    "field_resonances",
    "map_resonances",
    "monomial_index",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ResonanceReport:
    """Resonances up to total degree ``degree`` for ``dim`` coordinates.

    Entries use 0-based coordinate indices; ``near`` lists float-mode near
    misses (j, m, distance) that fell inside (tol, NEAR_FACTOR*tol].
    """

    dim: int
    degree: int
    map_resonant: tuple = ()
    field_resonant: tuple = ()
    weak: tuple = ()
    near: tuple = ()

    def map_set(self) -> frozenset:
        return frozenset(self.map_resonant)

    def field_set(self) -> frozenset:
        return frozenset(self.field_resonant)

    def weak_set(self) -> frozenset:
        return frozenset((j, m) for j, m, _ in self.weak)

    def basis(self, r: int) -> tuple:
        """Field-resonant and weak (j, m) of degree r: j ascending, then
        reverse lexicographic in m."""
        out = [(j, m) for j, m in self.field_resonant if m.degree == r]
        out += [(j, m) for j, m, _ in self.weak if m.degree == r]
        return tuple(sorted(out))


def _mu(eigen: EigenData):
    """Log eigenvalues as :func:`_deltas` takes them: exact entries, else complex."""
    return eigen.entries if eigen.exact else eigen.mu_complex()


def _power(values, m):
    """lambda^m over whichever scalar ring ``values`` live in."""
    prod = None
    for k, v in zip(m, values):
        if k:
            try:
                p = v**k
            except OverflowError:
                raise ValueError(f"eigenvalue power ({v})^{k} is outside the float range") from None
            prod = p if prod is None else prod * p
    return prod


def _lattice(entries):
    """Exact log data as integers: (W, D) with W[i] = D*mu_i.

    Columns are the coordinates over {1, ln p (each prime p that occurs),
    i*pi}; D is the common denominator of all of them.  W holds Python ints
    in an object array, so products and sums never overflow.
    """
    primes = sorted({p for e in entries for p, _ in e.logs})
    col = {p: 1 + t for t, p in enumerate(primes)}
    D = math.lcm(
        *(c.denominator for e in entries for c in (e.rat, e.pi_part)),
        *(c.denominator for e in entries for _, c in e.logs),
    )
    W = np.zeros((len(entries), len(primes) + 2), dtype=object)
    for i, e in enumerate(entries):
        W[i, 0] = int(e.rat * D)
        for p, c in e.logs:
            W[i, col[p]] = int(c * D)
        W[i, -1] = int(e.pi_part * D)
    return W, D


def _deltas(mu, M):
    """<M[t], mu> - mu_j for every coordinate j (outer) and row t of M (inner).

    Exact entries give ``(rows, D)``: integer coordinates of D times each
    value, as in :func:`_lattice`.  Complex entries give ``(values, None)``;
    <M[t], mu> is accumulated coordinate by coordinate, so each value is
    the float sum that sum(m_i * mu_i) - mu_j forms term by term in
    coordinate order.
    """
    if isinstance(mu[0], EigenScalar):
        W, D = _lattice(mu)
        S = M @ W
        return (S[None, :, :] - W[:, None, :]).reshape(-1, W.shape[1]), D
    acc = np.zeros(len(M), dtype=complex)
    for i, v in enumerate(mu):
        acc = acc + M[:, i] * v
    return (acc[None, :] - np.asarray(mu, dtype=complex)[:, None]).reshape(-1), None


def _witness(delta, D, tol):
    """The one lattice rule: is <m, mu> - mu_j in 2*pi*i*Z?

    Returns ``(hit, l, dist)`` per row.  ``l`` is the witness with
    mu_j - <m, mu> = 2*pi*i*l wherever ``hit`` holds.  Exact rows hit when
    every coordinate but the pi one is 0 and that one divides by 2D; their
    ``dist`` is None.  Float rows hit within ``tol`` of the nearest lattice
    point, and ``dist`` is the distance to it.
    """
    if D is not None:
        pi = delta[:, -1]
        hit = ~(delta[:, :-1] != 0).any(axis=1) & (pi % (2 * D) == 0)
        return hit, -(pi // (2 * D)), None
    l = np.round(delta.imag / _TWO_PI)
    dist = np.hypot(delta.real, delta.imag - _TWO_PI * l)
    return dist <= tol, -l, dist


def _classify(mu, M, tol):
    """_witness on <M[t], mu> - mu_j, as (hit, l, dist) shaped (n, len(M)).

    ``dist`` is None for exact entries.
    """
    shape = (len(mu), len(M))
    hit, l, dist = _witness(*_deltas(mu, M), tol)
    return hit.reshape(shape), l.reshape(shape), None if dist is None else dist.reshape(shape)


def _not_field_resonant(support, eigen: EigenData, tol: float) -> list:
    """The (j, m) of ``support``, in its order, that are not field
    resonant: off the resonance lattice, or on it with a witness l != 0.
    A field's support holds none of them."""
    support = list(support)
    M = np.array([m for _, m in support], dtype=np.int64).reshape(len(support), len(eigen))
    hit, l, _ = _classify(_mu(eigen), M, tol)
    return [(j, tuple(m)) for t, (j, m) in enumerate(support) if not hit[j, t] or l[j, t]]


@dataclass(frozen=True)
class MonomialIndex:
    """Exponents m with 2 <= |m| <= degree: by degree, then as
    :func:`embedflow.jets.multiindices` lists them (ascending tuples).

    ``matrix`` holds them as read-only int64 rows, and the rows of degree r
    are ``offsets[r - 2]:offsets[r - 1]``.
    """

    monomials: tuple
    matrix: np.ndarray
    offsets: tuple

    def of_degree(self, r: int) -> tuple:
        return self.monomials[self.offsets[r - 2] : self.offsets[r - 1]]


@cache
def monomial_index(dim: int, degree: int) -> MonomialIndex:
    """The one :class:`MonomialIndex` of ``dim`` variables up to ``degree``."""
    mons, offsets = [], [0]
    for r in range(2, degree + 1):
        mons.extend(multiindices(dim, r))
        offsets.append(len(mons))
    matrix = np.array(mons, dtype=np.int64).reshape(len(mons), dim)
    matrix.flags.writeable = False
    return MonomialIndex(tuple(mons), matrix, tuple(offsets))


def field_resonances(eigen: EigenData, degree: int, tol: float = DEFAULT_TOL) -> ResonanceReport:
    """Every resonance class of (j, m) with 2 <= |m| <= degree, from one scan.

    A pair with <m, mu> - mu_j in 2*pi*i*Z is map resonant; it is field
    resonant when its witness l is 0 and weak, listed as (j, m, l), when it
    is not.  Float misses within NEAR_FACTOR*tol are listed as near.  Pairs
    run j outer, then as in :func:`monomial_index`.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    return _keep(eigen, ("scan", degree, tol), lambda: _scan(eigen, degree, tol))


def _scan(eigen: EigenData, degree: int, tol: float) -> ResonanceReport:
    """The scan of :func:`field_resonances`, which keeps it on ``eigen``.
    The principal logarithm of A shares A's :class:`EigenData`
    (:func:`embedflow.spectral.real_log`), so the embedding solve reads the
    normal form's scan again whenever its branch leaves A's log eigenvalues
    as they are."""
    n = len(eigen)
    index = monomial_index(n, degree)
    hit, l, dist = _classify(_mu(eigen), index.matrix, tol)
    mons = index.monomials
    found, resonant, weak, near = [], [], [], []
    for j, t in zip(*np.nonzero(hit)):
        pair = (int(j), mons[t])
        found.append(pair)
        if l[j, t]:
            weak.append((*pair, int(l[j, t])))
        else:
            resonant.append(pair)
    if dist is not None:
        for j, t in zip(*np.nonzero(~hit & (dist <= NEAR_FACTOR * tol))):
            near.append((int(j), mons[t], float(dist[j, t])))
    return ResonanceReport(
        n,
        degree,
        map_resonant=tuple(found),
        field_resonant=tuple(resonant),
        weak=tuple(weak),
        near=tuple(near),
    )


# once mu is fixed, lambda_j = lambda^m is the same scan read with any l
map_resonances = field_resonances
