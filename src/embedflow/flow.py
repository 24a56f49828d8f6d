"""The exact flow of an embedding field, one route of the time-one check.

An embedding field X = By + v, B = S + N with S diagonal and N coupling
equal eigenvalues only, has field-resonant nonlinear support: every term
y^m e_j of v has <m, mu> = mu_j.  So the linear field Sy commutes with
Y' = Ny + v, and e^(tX) = e^(tS) o e^(tY').  The flow of Y' is its Lie
series (Groebner, Die Lie-Reihen und ihre Anwendungen, 1967; Ilyashenko &
Yakovenko, Lectures on Analytic Differential Equations, 2008, I.3):

    e^(tY')(y) = sum_k t^k P_k(y),   P_0 = id,   P_k = L_Y' P_(k-1) / k,

with L_Y' f = Df . Y' (:func:`embedflow.jets.jacobian_apply`).  On the
N-jet it ends by exact zero: give y_i the weight 2s - 1 - c_i of the
embedding solve (s the longest Jordan chain, c_i < s the couplings from
coordinate i up to the head of its chain).  A coupling of Y' trades y_i
for a heavier coordinate and a nonlinear term for a monomial of weight at
least 2s, so each L_Y' raises the lowest weight, which is s in P_0; no
monomial of degree <= N weighs more than N(2s - 1), so P_k = 0 for
k > N(2s - 1) - s.  :func:`flow_jet` builds the terms and
:class:`FlowJet` evaluates them at a time.  Coefficients are in the
field's ring, QQi in exact mode and complex otherwise, never mixed.  At
a time t, e^(tS) is formed from the logs in floats: a route to the
eigenvalues independent of the solve, which reads them from G.  The flow
checks the solve of :mod:`embedflow.embedding` and is checked by the ODE
oracle of :mod:`embedflow.oracle`; it imports and shares no code with
either.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .jets import MODE_FLOAT, MultiIndex, PolyJet, jacobian_apply

__all__ = ["FlowJet", "flow_jet"]


@dataclass(frozen=True)
class FlowJet:
    """Jet of a flow phi(t, y) = e^(tS) sum_k t^k P_k(y).

    ``mu`` holds the complex logs of the eigenvalues, the diagonal of S;
    ``terms`` holds P_0 = id, P_1, ... as jets truncated at ``degree``.
    """

    dim: int
    degree: int
    terms: tuple
    mu: tuple

    def at_time(self, t: float) -> PolyJet:
        """Specialize t; float-mode jet."""
        total: dict = {}
        get = total.get
        for k, P in enumerate(self.terms):
            tk = t**k
            for key, c in P.coeffs.items():
                s = get(key)
                v = complex(c) * tk
                total[key] = v if s is None else s + v
        growth = [cmath.exp(z * t) for z in self.mu]
        terms = [(j, m, growth[j] * c) for (j, m), c in total.items()]
        return PolyJet.build(self.dim, self.degree, MODE_FLOAT, terms)


def flow_jet(X, degree=None) -> FlowJet:
    """Flow of the field X = By + v (an :class:`embedflow.embedding.FieldGerm`)
    as the Lie series of Y' = Ny + v behind e^(tS); phi(0, y) = y.

    Y' is built in the field's ring, ``X.mode``: QQi in exact mode, where
    a coupling of B that is not Gaussian rational raises
    :class:`embedflow.scalars.ExactnessError`, and complex otherwise.  The
    terms P_k are formed until the first that is zero, which the weight
    bound of the module docstring guarantees.
    """
    N = X.degree if degree is None else degree
    tri = X.linear.triangular()
    n = tri.dim
    Y = PolyJet.build(
        n,
        N,
        X.mode,
        [(i, MultiIndex.unit(n, k), c) for i, k, c in tri.nil]
        + [(j, m, c) for (j, m), c in X.nonlinear.coeffs.items() if m.degree <= N],
    )
    P = PolyJet.identity(n, N, X.mode)
    terms = [P]
    k = 1
    while (P := jacobian_apply(P, Y, N)).coeffs:
        P = P.scale(Fraction(1, k))
        terms.append(P)
        k += 1
    return FlowJet(n, N, tuple(terms), tuple(tri.eigen.mu_complex()))
