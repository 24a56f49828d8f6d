"""What each verb admits, and one germ through the chain of stages, as
one frozen record.

:func:`admit` decides once, from one table of what each CLI verb needs,
whether the verb takes a parsed :class:`GermFile`; hyperbolicity reads
the germ's ``tol``.  :func:`run` takes an admitted germ through the chain
that ``embed`` and ``verify`` report, in this order: complexify,
normalize, pick the branch, take the real logarithm B (which validates
the branch), solve, realify and certify.  :func:`run_normal_form` stops
after the normal form, which is all that ``normal-form`` reports.  A
refusal, a failed precondition or, in float mode, an inf or nan in G, h
or the field raises (a ``ValueError`` or an ``ArithmeticError``), so a
record exists only for a germ that went through its whole chain.

The branch is the germ file's: ``branch_k`` over the negative pairs and
``branch_l`` over the rotation blocks, 0 elsewhere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .embedding import FieldGerm, Obstruction, solve_embedding
from .germfile import GermFile
from .graded import product_bound
from .jets import MODE_EXACT, MODE_FLOAT, PolyJet, RealPairing, _require_real, realify
from .normal_form import GermSpec, NormalFormResult, distinguished_normal_form
from .reports import fmt_entry
from .spectral import BlockMatrix, BranchChoice, is_hyperbolic, real_log
from .tolerances import MAX_FIELD_SCALE, MAX_JET_SIZE, MAX_PRODUCTS
from .verdict import Verdict, certify

__all__ = ["GermRun", "admit", "run", "run_normal_form"]


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


# What each verb needs of a germ beyond real terms within the truncation
# and a hyperbolic linear part, which every verb needs.  analyze and
# classify2d decide on A alone: they take exact -exp blocks and any scale.
_NEEDS = {
    "analyze": {"size"},
    "normal-form": {"size", "work", "exact"},
    "embed": {"size", "work", "exact", "scale"},
    "verify": {"size", "work", "exact", "scale"},
    "classify2d": {"planar"},
}


def admit(gf: GermFile, verb: str):
    """Raise (a ``ValueError`` or an ``ArithmeticError``) unless ``gf`` has
    what the CLI verb ``verb`` needs, checked in this order and before any
    exponent table, normal form or product list is built."""
    needs, n, N = _NEEDS[verb], gf.dim, gf.degree
    if "planar" in needs and n != 2:
        raise ValueError("classify_2d expects order 2")
    if "size" in needs and (size := n * math.comb(N + n, n)) > MAX_JET_SIZE:
        raise ValueError(
            f"dimension {n} at degree {N} asks for n*C(N+n, n) = {size} jet "
            f"coefficients, above MAX_JET_SIZE = {MAX_JET_SIZE}"
        )
    if "work" in needs and (products := product_bound(n, N)) > MAX_PRODUCTS:
        raise ValueError(
            f"dimension {n} at degree {N} lets the normal form form up to "
            f"{products:.3g} coefficient products, above MAX_PRODUCTS = {MAX_PRODUCTS:.0e}"
        )
    _require_real(gf.real_jet())
    if not is_hyperbolic(gf.blocks, gf.tol):
        raise ValueError("linear part must be hyperbolic")
    if "exact" in needs and gf.mode == MODE_EXACT:  # raises on -exp blocks, not Gaussian rational
        gf.blocks.triangular().linear_jet(1, gf.mode)
    # |lambda * ln lambda|, the scale of the embedding residual, compared in
    # logarithms, which stay finite
    for mu in gf.blocks.eigen().mu_complex() if "scale" in needs else ():
        if mu and mu.real + math.log(abs(mu)) > math.log(MAX_FIELD_SCALE):
            raise ValueError(
                f"eigenvalue e^({mu.real:.6g}{mu.imag:+.6g}i): |lambda * ln lambda|, "
                "the scale of the embedding residual, is outside the float range "
                f"(above MAX_FIELD_SCALE = {MAX_FIELD_SCALE:.6g})"
            )


def _finite(jet: PolyJet, stage: str):
    """Raise on a float jet with an inf or nan coefficient, naming ``stage``
    and the first such entry; a finite sum shows at once that none is."""
    if jet.mode == MODE_FLOAT and not cmath.isfinite(sum(jet.coeffs.values(), 0j)):
        bad = [key for key, c in jet.coeffs.items() if not cmath.isfinite(c)]
        if bad:
            j, m = min(bad)
            raise ArithmeticError(f"{stage} has a non-finite coefficient at {fmt_entry(j, m)}")


def _normal_form(gf: GermFile):
    """``(spec, paired, perm, principal log eigenvalues, normal form)``,
    refused when G or h is not finite."""
    spec, paired, perm = gf.to_spec()
    mus = paired.triangular().eigen.mu_complex()
    result = distinguished_normal_form(spec, tol=gf.tol)
    _finite(result.germ.nonlinear, "the normal form G")
    _finite(result.transform, "the normal form h")
    return spec, paired, perm, mus, result


def run_normal_form(gf: GermFile) -> GermRun:
    """The record of ``gf`` up to its normal form."""
    spec, paired, perm, mus, result = _normal_form(gf)
    return GermRun(spec, paired.pairing(), perm, mus, result)


def run(gf: GermFile) -> GermRun:
    """The record of ``gf`` through the solve and, for a field, the verdict."""
    spec, paired, perm, mus, result = _normal_form(gf)
    G = result.germ
    branch = BranchChoice.assign(paired, gf.branch_k, gf.branch_l)
    B = real_log(paired, branch)
    outcome = solve_embedding(G, B, tol=gf.tol)
    pairing = paired.pairing()
    field_real = verdict = None
    if not isinstance(outcome, Obstruction):
        _finite(outcome.nonlinear, "the embedding field")
        if not pairing.trivial:
            try:
                field_real = realify(outcome.nonlinear.to_float(), pairing)
            except ValueError:  # not conjugate-symmetric: the field stays complex
                pass
        verdict = certify(G, outcome, gf.tol)
    return GermRun(spec, pairing, perm, mus, result, branch, B, outcome, field_real, verdict)
