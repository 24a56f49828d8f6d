"""The verdict on a field: its residuals, their bounds and the pass rule.

:func:`certify` is the one place where ``verify`` decides.  It compares e^X
with G by two routes that share no code, the Lie series of :mod:`embedflow.flow`
and the ODE oracle of :mod:`embedflow.oracle` (this is the only module
that imports both), checks the embedding equation X o G = DG X by jet
composition (:func:`embedding_residual`), and bounds each residual by the
tolerances of :mod:`embedflow.tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import FieldGerm
from .flow import flow_jet
from .jets import PolyJet, compose, jacobian_apply, jet_distance
from .normal_form import GermSpec
from .oracle import _ode_oracle
from .tolerances import ODE_BOUND, ODE_ERR_SHARE

__all__ = ["Verdict", "certify", "embedding_residual", "time_one_residuals", "time_one_steps"]


def embedding_residual(G: GermSpec, X: FieldGerm) -> PolyJet:
    """Jet of X(G(y)) - DG(y) X(y); zero is necessary for X to embed G."""
    if G.dim != X.dim:
        raise ValueError("dimension mismatch")
    N = min(G.degree, X.degree)
    Gjet = G.float_map_jet.truncate(N)
    Xjet = X.field_jet().truncate(N)
    left = compose(Xjet, Gjet, degree=N)
    right = jacobian_apply(Gjet, Xjet, degree=N)
    return left - right


def time_one_steps(X: FieldGerm, G: GermSpec):
    """The two independent time-one oracles, against G's map jet.

    Returns ``(residual_exp, residual_ode, residual_ode_err, steps)``: the
    max-abs distance from the map jet of the Lie-series flow of X at t = 1
    and of the Dormand-Prince ODE oracle, the oracle's own error estimate,
    and the step count the oracle chose (:func:`embedflow.oracle._ode_oracle`).
    The estimate bounds the ODE residual at ODE_STEPS steps.  One step is
    kept only where its estimate reads at roundoff: on a long Jordan chain,
    sizes (4, 1) at N = 5, one step can miss by 2.4e-4 against an estimate
    of 2.0e-4.
    """
    if G.dim != X.dim:
        raise ValueError("dimension mismatch")
    N = min(G.degree, X.degree)
    target = G.float_map_jet.truncate(N)
    phi = flow_jet(X, N)
    exp_res = jet_distance(phi.at_time(1.0).truncate(N), target)
    ode, err, steps = _ode_oracle(X.linear.triangular(), X.nonlinear.truncate(N), N)
    return exp_res, jet_distance(ode, target), err, steps


def time_one_residuals(X: FieldGerm, G: GermSpec):
    """``(residual_exp, residual_ode)`` of :func:`time_one_steps`.

    Nothing in the package calls it; it is kept because the benchmark's
    traced run (``perfbench/tracing.py``) imports it.
    """
    return time_one_steps(X, G)[:2]


@dataclass(frozen=True)
class Verdict:
    """The residuals of a field X against a normal form G, and their bounds.

    ``scale`` is the larger of 1 and the largest coefficient modulus of G's
    map jet.  The exact-flow and embedding-equation residuals are bounded
    by ``bound_exp = tol * scale``, the ODE residual by ``bound_ode =
    max(ODE_BOUND * scale, bound_exp)`` and the oracle's error estimate by
    ``bound_err = ODE_ERR_SHARE * bound_ode``.  :attr:`ok` holds when every
    residual is at most its bound.
    """

    residual_exp: float
    residual_ode: float
    residual_ode_err: float
    residual_embedding: float
    ode_steps: int
    scale: float
    bound_exp: float
    bound_ode: float
    bound_err: float

    @property
    def ok(self) -> bool:
        return (
            self.residual_exp <= self.bound_exp
            and self.residual_ode <= self.bound_ode
            and self.residual_ode_err <= self.bound_err
            and self.residual_embedding <= self.bound_exp
        )


def certify(G: GermSpec, X: FieldGerm, tol: float) -> Verdict:
    """The :class:`Verdict` on X as a field whose time-one map is G, with
    the exact-flow bound ``tol`` relative to G's scale."""
    r_exp, r_ode, r_err, steps = time_one_steps(X, G)
    r_emb = embedding_residual(G, X).max_abs()
    scale = max(1.0, G.float_map_jet.max_abs())
    bound_exp = tol * scale
    bound_ode = max(ODE_BOUND * scale, bound_exp)
    return Verdict(
        r_exp, r_ode, r_err, r_emb, steps, scale, bound_exp, bound_ode, ODE_ERR_SHARE * bound_ode
    )
