"""Resonance classes of map and field eigenvalues, decided in one place.

With map eigenvalues lambda = e^mu, a coordinate j and exponent m
(|m| >= 2) form

* a map resonance when lambda_j = lambda^m,
* a field resonance when mu_j = <m, mu>,
* a weak resonance when mu_j - <m, mu> = 2*pi*i*l for some integer l != 0.

Map resonances are exactly the union of field and weak ones once the
logarithm branch mu is fixed.  Every stage of the pipeline takes its
classes from this module: the normal form from one :func:`degree_map_class`
per degree, the embedding solve from one :func:`field_resonances` report
per solve.

In exact mode (``EigenScalar`` data) the tests reduce to integer
arithmetic, and Gaussian-rational map eigenvalues are compared exactly.
A scan of every (j, m) up to a degree forms all <m, mu> - mu_j as one
product of the monomial matrix with the log data (integer coordinates when
exact, complex otherwise); the scans and the per-pair classes apply the
same rule, :func:`_witness`.
Float data use two rules: map resonance is relative in lambda,
|lambda^m - lambda_j| <= tol*max(1, |lambda_j|); field and weak resonance
are absolute in mu, with <m, mu> - mu_j within tol of 2*pi*i*Z.  Misses
within NEAR_FACTOR times the cut are reported as near, so borderline
spectra are never classified silently.  The default ``tol`` and
NEAR_FACTOR live in :mod:`embedflow.tolerances`.

Also exposed: the spectra of the degree-r homological operators
h |-> A h - h(A .) (map side, eigenvalues lambda_j - lambda^m) and
h |-> Dh . B - B h (field side, eigenvalues <m, mu> - mu_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import multiindices
from .scalars import EigenScalar, QQi
from .spectral import EigenData
from .tolerances import DEFAULT_TOL, NEAR_FACTOR

__all__ = [
    "ResonanceReport",
    "map_class",
    "degree_map_class",
    "field_class",
    "map_resonances",
    "field_resonances",
    "operator_L_map_spectrum",
    "operator_L_field_spectrum",
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
    """Log eigenvalues as _delta takes them: exact entries, else complex."""
    return eigen.entries if eigen.exact else eigen.mu_complex()


def _delta(mu, j: int, m):
    """<m, mu> - mu_j as a value: an EigenScalar for exact entries, else complex."""
    if isinstance(mu[j], EigenScalar):
        total = EigenScalar.zero()
        for k, v in zip(m, mu):
            if k:
                total = total + v.scaled(k)
        return total - mu[j]
    return sum(k * v for k, v in zip(m, mu) if k) - mu[j]


def _power(values, m):
    """lambda^m over whichever scalar ring ``values`` live in."""
    prod = None
    for k, v in zip(m, values):
        if k:
            p = v**k
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
    the same float sum as :func:`_delta` forms.
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


def _is_near(dist, cut):
    """A float miss within NEAR_FACTOR times its cut is reported as near."""
    return dist <= NEAR_FACTOR * cut


def _one_pair(mu, j: int, m, tol):
    """_witness for the single pair (j, m): (hit, l, dist) as scalars."""
    hit, l, dist = _witness(*_deltas(mu, np.array([m], dtype=np.int64)), tol)
    return bool(hit[j]), int(l[j]), None if dist is None else float(dist[j])


def map_class(exact_mu, lam, j: int, m, tol: float = DEFAULT_TOL):
    """Decide lambda_j = lambda^m for one (j, m); returns (resonant, near).

    ``exact_mu`` is the exact log data (``EigenScalar`` entries) or None;
    with it the test is the exact lattice rule on <m, mu> - mu_j.
    Otherwise ``lam`` decides: exactly for Gaussian-rational entries, else
    relative to tol*max(1, |lambda_j|), and ``near`` is the distance of a
    float miss inside NEAR_FACTOR times that cut (None otherwise).
    """
    if exact_mu is not None:
        return _one_pair(exact_mu, j, m, tol)[0], None
    gap = _power(lam, m) - lam[j]
    if isinstance(gap, QQi):
        return not gap, None
    dist = abs(gap)
    cut = tol * max(1.0, abs(lam[j]))
    if dist <= cut:
        return True, None
    return False, dist if _is_near(dist, cut) else None


def degree_map_class(exact_mu, lam, k: int, tol: float = DEFAULT_TOL):
    """Decide lambda_j = lambda^m for every (j, m) with |m| = k.

    Returns the predicate ``resonant(j, m)``.  With exact log data the
    whole degree is one :func:`_deltas` product over the degree-k monomial
    matrix, decided by :func:`_witness`; otherwise each pair is decided by
    :func:`map_class` when asked, exactly for Gaussian-rational ``lam`` and
    relative in lambda for float ``lam``.
    """
    if exact_mu is None:
        return lambda j, m: map_class(None, lam, j, m, tol)[0]
    n = len(exact_mu)
    mons = list(multiindices(n, k))
    M = np.array(mons, dtype=np.int64).reshape(len(mons), n)
    hit = _witness(*_deltas(exact_mu, M), tol)[0].reshape(n, len(mons))
    resonant = {(j, m) for j in range(n) for m, h in zip(mons, hit[j]) if h}
    return lambda j, m: (j, m) in resonant


def field_class(mu, j: int, m, tol: float = DEFAULT_TOL):
    """Field class of one (j, m); returns (l, near).

    ``l`` is the witness with mu_j - <m, mu> = 2*pi*i*l (0 for a field
    resonance, nonzero for a weak one) or None; float data count within
    ``tol`` of that lattice, and ``near`` is the distance of a miss inside
    NEAR_FACTOR*tol (None otherwise).  ``mu`` is exact or complex, as from _mu.
    """
    hit, l, dist = _one_pair(mu, j, m, tol)
    if hit:
        return l, None
    return None, dist if dist is not None and _is_near(dist, tol) else None


def _monomials(dim: int, degree: int) -> list:
    """Exponents m with 2 <= |m| <= degree: by degree, then lex."""
    return [m for r in range(2, degree + 1) for m in multiindices(dim, r)]


def _pairs(dim: int, degree: int):
    """(j, m) for 2 <= |m| <= degree: j outer, then degree, then lex."""
    mons = _monomials(dim, degree)
    for j in range(dim):
        for m in mons:
            yield j, m


def _scan(mu, degree: int, tol: float):
    """_witness on every pair of _pairs(len(mu), degree), as one product.

    Returns the pairs and the (hit, l, dist) arrays in that order.
    """
    n = len(mu)
    mons = _monomials(n, degree)
    M = np.array(mons, dtype=np.int64).reshape(len(mons), n)
    pairs = [(j, m) for j in range(n) for m in mons]
    return pairs, _witness(*_deltas(mu, M), tol)


def map_resonances(eigen: EigenData, degree: int, tol: float = DEFAULT_TOL) -> ResonanceReport:
    """All (j, m) with lambda_j = lambda^m and 2 <= |m| <= degree."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    found, near = [], []
    if eigen.exact:
        # exact map resonance is <m, mu> - mu_j in 2*pi*i*Z
        pairs, (hit, _, _) = _scan(eigen.entries, degree, tol)
        found = [p for p, h in zip(pairs, hit) if h]
    else:
        lam = eigen.lambda_complex()
        for j, m in _pairs(len(eigen), degree):
            resonant, dist = map_class(None, lam, j, m, tol)
            if resonant:
                found.append((j, m))
            elif dist is not None:
                near.append((j, m, dist))
    return ResonanceReport(
        len(eigen), degree, map_resonant=tuple(found), near=tuple(near)
    )


def field_resonances(eigen: EigenData, degree: int, tol: float = DEFAULT_TOL) -> ResonanceReport:
    """Field-resonant (j, m) and weak (j, m, l) with mu_j - <m, mu> = 2*pi*i*l."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    pairs, (hit, l, dist) = _scan(_mu(eigen), degree, tol)
    resonant, weak, near = [], [], []
    for t in np.flatnonzero(hit):
        j, m = pairs[t]
        if l[t]:
            weak.append((j, m, int(l[t])))
        else:
            resonant.append((j, m))
    if dist is not None:
        for t in np.flatnonzero(~hit & _is_near(dist, tol)):
            j, m = pairs[t]
            near.append((j, m, float(dist[t])))
    return ResonanceReport(
        len(eigen),
        degree,
        field_resonant=tuple(resonant),
        weak=tuple(weak),
        near=tuple(near),
    )


def operator_L_map_spectrum(eigen: EigenData, r: int) -> tuple[complex, ...]:
    """Multiset { lambda_j - lambda^m : |m| = r } of the degree-r map operator.

    Values are exact differences converted to complex when the map
    eigenvalues are Gaussian rational, so resonant entries are exactly 0.
    """
    if r < 2:
        raise ValueError("degree must be at least 2")
    n = len(eigen)
    exact = eigen.lambda_exact()
    lam = exact if exact is not None else eigen.lambda_complex()
    return tuple(
        complex(lam[j] - _power(lam, m))
        for j in range(n)
        for m in multiindices(n, r)
    )


def operator_L_field_spectrum(eigen: EigenData, r: int) -> tuple[complex, ...]:
    """Multiset { <m, mu> - mu_j : |m| = r } of the degree-r field operator."""
    if r < 2:
        raise ValueError("degree must be at least 2")
    n = len(eigen)
    mu = _mu(eigen)
    return tuple(
        complex(_delta(mu, j, m)) for j in range(n) for m in multiindices(n, r)
    )
