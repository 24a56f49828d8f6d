"""The residuals that ``verify`` judges a field by.

:func:`time_one` compares e^X with G by two routes that share no code, the
flow of :mod:`embedflow.flow` and the ODE oracle of :mod:`embedflow.oracle`;
this is the only module that imports both.  :func:`embedding_residual`
checks the embedding equation X o G = DG X by jet composition.
"""

from __future__ import annotations

from .embedding import FieldGerm
from .flow import flow_jet
from .jets import PolyJet, compose, jacobian_apply, jet_distance
from .normal_form import GermSpec
from .oracle import _ode_oracle

__all__ = ["embedding_residual", "time_one", "time_one_residuals", "time_one_steps"]


def embedding_residual(G: GermSpec, X: FieldGerm) -> PolyJet:
    """Jet of X(G(y)) - DG(y) X(y); zero is necessary for X to embed G."""
    if G.dim != X.dim:
        raise ValueError("dimension mismatch")
    N = min(G.degree, X.degree)
    Gjet = G.map_jet().to_float().truncate(N)
    Xjet = X.field_jet().truncate(N)
    left = compose(Xjet, Gjet, degree=N)
    right = jacobian_apply(Gjet, Xjet, degree=N)
    return left - right


def time_one_steps(X: FieldGerm, G: GermSpec):
    """``(residual_exp, residual_ode, residual_ode_err, steps)``:
    :func:`time_one` and the step count its ODE oracle took."""
    if G.dim != X.dim:
        raise ValueError("dimension mismatch")
    N = min(G.degree, X.degree)
    target = G.map_jet().to_float().truncate(N)
    phi = flow_jet(X, N)
    exp_res = jet_distance(phi.at_time(1.0).truncate(N), target)
    ode, err, steps = _ode_oracle(X.linear.triangular(), X.nonlinear.truncate(N), N)
    return exp_res, jet_distance(ode, target), err, steps


def time_one(X: FieldGerm, G: GermSpec):
    """The two independent time-one oracles, against G's map jet.

    Returns ``(residual_exp, residual_ode, residual_ode_err)``: the max-abs
    distance from the map jet of the closed-form flow of X at t = 1 and of
    the Dormand-Prince ODE oracle, and the oracle's own error estimate, at
    the step count the oracle chooses (:func:`embedflow.oracle._ode_oracle`).
    The estimate bounds the ODE residual at the rate count.  One step is
    kept only where its estimate reads at roundoff: on a long Jordan chain,
    sizes (4, 1) at N = 5, one step can miss by 2.4e-4 against an estimate
    of 2.0e-4.
    """
    return time_one_steps(X, G)[:3]


def time_one_residuals(X: FieldGerm, G: GermSpec):
    """``(residual_exp, residual_ode)`` of :func:`time_one`, without the
    error estimate."""
    return time_one(X, G)[:2]
