"""One germ through the chain of stages, as one frozen record.

:func:`run` takes a parsed :class:`GermFile` through the chain that
``embed`` and ``verify`` report, in this order: refuse by size and by
predicted work, complexify, refuse by field scale, normalize, pick and
validate the branch, take the real logarithm B, solve, realify and
certify.  :func:`run_normal_form` stops after the normal form, which is
all that ``normal-form`` reports.  A refusal or a failed precondition
raises (a ``ValueError`` or an ``ArithmeticError``), so a record exists
only for a germ that went through its whole chain.

The branch is the germ file's: ``branch_k`` over the negative pairs and
``branch_l`` over the rotation blocks, 0 elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .embedding import FieldGerm, Obstruction, solve_embedding
from .germfile import GermFile
from .graded import product_bound
from .jets import PolyJet, RealPairing, realify
from .normal_form import GermSpec, NormalFormResult, distinguished_normal_form
from .spectral import BlockMatrix, BranchChoice, real_log
from .tolerances import MAX_FIELD_SCALE, MAX_JET_SIZE, MAX_PRODUCTS
from .verdict import Verdict, certify

__all__ = ["GermRun", "refuse_oversize", "run", "run_normal_form"]


@dataclass(frozen=True)
class GermRun:
    """The values of one germ's run, stage by stage.

    ``spec`` is the complexified germ F, whose linear part is the paired
    one; ``pairing`` is that linear part's complex pairing and ``perm`` the
    coordinate order of :meth:`GermFile.to_spec`.  ``mus`` are the
    principal log eigenvalues and ``normal_form`` holds G and h.  A
    :func:`run_normal_form` record ends there.  A :func:`run` record also
    holds the ``branch`` and the logarithm ``B`` it names, and the
    ``outcome``: a :class:`FieldGerm` X or an :class:`Obstruction`.  For a
    field it holds X realified (``field_real``, None when the pairing is
    trivial or X is not conjugate-symmetric) and the ``verdict``.
    """

    spec: GermSpec
    pairing: RealPairing
    perm: tuple
    mus: tuple
    normal_form: NormalFormResult
    branch: BranchChoice | None = None
    B: BlockMatrix | None = None
    outcome: FieldGerm | Obstruction | None = None
    field_real: PolyJet | None = None
    verdict: Verdict | None = None


def refuse_oversize(gf: GermFile):
    """Raise before any work on a germ whose header asks for more than
    MAX_JET_SIZE jet coefficients."""
    n, N = gf.dim, gf.degree
    size = n * math.comb(N + n, n)
    if size > MAX_JET_SIZE:
        raise ValueError(
            f"dimension {n} at degree {N} asks for n*C(N+n, n) = {size} jet "
            f"coefficients, above MAX_JET_SIZE = {MAX_JET_SIZE}"
        )


def _refuse_overwork(gf: GermFile):
    """Raise before any work on a germ whose normal form may form more
    than MAX_PRODUCTS coefficient products."""
    n, N = gf.dim, gf.degree
    products = product_bound(n, N)
    if products > MAX_PRODUCTS:
        raise ValueError(
            f"dimension {n} at degree {N} lets the normal form form up to "
            f"{products:.3g} coefficient products, above MAX_PRODUCTS = {MAX_PRODUCTS:.0e}"
        )


def _refuse_field_overflow(mus):
    """Raise, before the normal form, on log eigenvalues ``mus`` with an
    eigenvalue lambda whose |lambda * ln lambda|, the scale of the
    embedding residual, is above MAX_FIELD_SCALE; compared in logarithms,
    which stay finite."""
    for mu in mus:
        if mu and mu.real + math.log(abs(mu)) > math.log(MAX_FIELD_SCALE):
            raise ValueError(
                f"eigenvalue e^({mu.real:.6g}{mu.imag:+.6g}i): |lambda * ln lambda|, "
                "the scale of the embedding residual, is outside the float range "
                f"(above MAX_FIELD_SCALE = {MAX_FIELD_SCALE:.6g})"
            )


def _complexified(gf: GermFile):
    """Refuse by size and work, then complexify: ``(spec, paired, perm,
    principal log eigenvalues)``."""
    refuse_oversize(gf)
    _refuse_overwork(gf)
    spec, paired, perm = gf.to_spec()
    return spec, paired, perm, tuple(complex(m) for m in paired.triangular().eigen.entries)


def run_normal_form(gf: GermFile) -> GermRun:
    """The record of ``gf`` up to its normal form."""
    spec, paired, perm, mus = _complexified(gf)
    result = distinguished_normal_form(spec, tol=gf.tol)
    return GermRun(spec, paired.pairing(), perm, mus, result)


def run(gf: GermFile) -> GermRun:
    """The record of ``gf`` through the solve and, for a field, the verdict."""
    spec, paired, perm, mus = _complexified(gf)
    _refuse_field_overflow(mus)
    result = distinguished_normal_form(spec, tol=gf.tol)
    G = result.germ
    branch = BranchChoice.assign(paired, gf.branch_k, gf.branch_l)
    branch.validate(paired)
    B = real_log(paired, branch)
    outcome = solve_embedding(G, B, tol=gf.tol)
    pairing = paired.pairing()
    field_real = verdict = None
    if not isinstance(outcome, Obstruction):
        if not pairing.trivial:
            try:
                field_real = realify(outcome.nonlinear.to_float(), pairing)
            except ValueError:  # not conjugate-symmetric: the field stays complex
                pass
        verdict = certify(G, outcome, gf.tol)
    return GermRun(spec, pairing, perm, mus, result, branch, B, outcome, field_real, verdict)
