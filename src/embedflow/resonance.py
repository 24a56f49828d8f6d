"""Resonance classes of map and field eigenvalues, decided in one place.

With map eigenvalues lambda = e^mu, a coordinate j and exponent m
(|m| >= 2) form

* a map resonance when lambda_j = lambda^m,
* a field resonance when mu_j = <m, mu>,
* a weak resonance when mu_j - <m, mu> = 2*pi*i*l for some integer l != 0.

Map resonances are exactly the union of field and weak ones once the
logarithm branch mu is fixed.  Every stage of the pipeline takes its
classes from this module: the normal form from :func:`map_class`, the
embedding solve from one :func:`field_resonances` report per solve.

In exact mode (``EigenScalar`` data) the tests reduce to integer
arithmetic, and Gaussian-rational map eigenvalues are compared exactly.
Float data use two rules: map resonance is relative in lambda,
|lambda^m - lambda_j| <= tol*max(1, |lambda_j|); field and weak resonance
are absolute in mu, with <m, mu> - mu_j within tol of 2*pi*i*Z.  Misses
within 100 times the cut are reported as near, so borderline spectra are
never classified silently.

Also exposed: the spectra of the degree-r homological operators
h |-> A h - h(A .) (map side, eigenvalues lambda_j - lambda^m) and
h |-> Dh . B - B h (field side, eigenvalues <m, mu> - mu_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .jets import multiindices
from .scalars import EigenScalar, QQi
from .spectral import EigenData

__all__ = [
    "ResonanceReport",
    "map_class",
    "field_class",
    "map_resonances",
    "field_resonances",
    "operator_L_map_spectrum",
    "operator_L_field_spectrum",
]

_TOL = 1e-9
_NEAR_FACTOR = 100.0
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ResonanceReport:
    """Resonances up to total degree ``degree`` for ``dim`` coordinates.

    Entries use 0-based coordinate indices; ``near`` lists float-mode near
    misses (j, m, distance) that fell inside (tol, 100*tol].
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
    """<m, mu> - mu_j: exact over EigenScalar entries, complex otherwise."""
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


def map_class(exact_mu, lam, j: int, m, tol: float = _TOL):
    """Decide lambda_j = lambda^m for one (j, m); returns (resonant, near).

    ``exact_mu`` is the exact log data (``EigenScalar`` entries) or None;
    with it the test is exact on <m, mu> - mu_j.  Otherwise ``lam`` decides:
    exactly for Gaussian-rational entries, else relative to
    tol*max(1, |lambda_j|), and ``near`` is the distance of a float miss
    inside 100 times that cut (None otherwise).
    """
    if exact_mu is not None:
        return _delta(exact_mu, j, m).two_pi_integer() is not None, None
    gap = _power(lam, m) - lam[j]
    if isinstance(gap, QQi):
        return not gap, None
    dist = abs(gap)
    cut = tol * max(1.0, abs(lam[j]))
    if dist <= cut:
        return True, None
    return False, dist if dist <= _NEAR_FACTOR * cut else None


def field_class(mu, j: int, m, tol: float = _TOL):
    """Field class of one (j, m); returns (l, near).

    ``l`` is the witness with mu_j - <m, mu> = 2*pi*i*l (0 for a field
    resonance, nonzero for a weak one) or None; float data count within
    ``tol`` of that lattice, and ``near`` is the distance of a miss inside
    100*tol (None otherwise).  ``mu`` is exact or complex, as from _mu.
    """
    d = _delta(mu, j, m)
    if isinstance(d, EigenScalar):
        l = d.two_pi_integer()
        # two_pi_integer sees <m,mu> - mu_j; the witness flips sign.
        return (None if l is None else -l), None
    l = round(d.imag / _TWO_PI)
    dist = math.hypot(d.real, d.imag - _TWO_PI * l)
    if dist <= tol:
        return -l, None
    return None, dist if dist <= _NEAR_FACTOR * tol else None


def _pairs(dim: int, degree: int):
    """(j, m) for 2 <= |m| <= degree: j outer, then degree, then lex."""
    mons = [m for r in range(2, degree + 1) for m in multiindices(dim, r)]
    for j in range(dim):
        for m in mons:
            yield j, m


def map_resonances(eigen: EigenData, degree: int, tol: float = _TOL) -> ResonanceReport:
    """All (j, m) with lambda_j = lambda^m and 2 <= |m| <= degree."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    exact_mu = eigen.entries if eigen.exact else None
    lam = eigen.lambda_complex() if exact_mu is None else None
    found, near = [], []
    for j, m in _pairs(len(eigen), degree):
        resonant, dist = map_class(exact_mu, lam, j, m, tol)
        if resonant:
            found.append((j, m))
        elif dist is not None:
            near.append((j, m, dist))
    return ResonanceReport(
        len(eigen), degree, map_resonant=tuple(found), near=tuple(near)
    )


def field_resonances(eigen: EigenData, degree: int, tol: float = _TOL) -> ResonanceReport:
    """Field-resonant (j, m) and weak (j, m, l) with mu_j - <m, mu> = 2*pi*i*l."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    mu = _mu(eigen)
    resonant, weak, near = [], [], []
    for j, m in _pairs(len(eigen), degree):
        l, dist = field_class(mu, j, m, tol)
        if l is None:
            if dist is not None:
                near.append((j, m, dist))
        elif l:
            weak.append((j, m, l))
        else:
            resonant.append((j, m))
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
