"""The embedding solve: a vector field for a normal-form germ, or a refusal.

Given G(y) = Ay + g(y) in distinguished normal form and a real logarithm
B = S + N of A (S diagonal, N nilpotent, commuting), a field X(y) =
By + v(y) embeds G when its time-one map equals G.  When v is
field-resonant it commutes with the linear field Sy, so e^X = e^S o e^Y
with Y = Ny + v, and Y is the logarithm of the unipotent map

    U = e^(-S) o G,        Y = log U = sum_k (-1)^(k+1)/k D_k,

with D_0 = id and D_k = D_(k-1) o U - D_(k-1) (Takens 1974; Ilyashenko &
Yakovenko, Lectures on Analytic Differential Equations, 2008).  U's
linear part is unipotent, so D_k = 0 after finitely many rounds (the
weight argument of :mod:`embedflow.flow`); the solve stops at the first
zero D_k or at that bound, and needs nothing but jet composition.  The
nonlinear part of Y is field-resonant or weakly resonant; a nonzero
weakly resonant coefficient is a certificate that no field supported on
these monomials embeds G with this logarithm branch.  The coefficient
ring is the germ's: in exact mode G's eigenvalues and coefficients are
Gaussian rational, and the solve never exponentiates a logarithm, so it
stays exact when B's logs are floats (a rotation at a generic angle).

The solve is checked by two routes that it shares no code with and does
not import: the Lie-series flow of :mod:`embedflow.flow` and the ODE
oracle of :mod:`embedflow.oracle`, compared by :mod:`embedflow.verdict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jets import MODE_EXACT, MODE_FLOAT, MultiIndex, PolyJet, _composer, _one
from .normal_form import GermSpec
from .reports import fmt_entry
from .resonance import ResonanceReport, field_resonances
from .spectral import BlockMatrix, SpectralError
from .tolerances import DEFAULT_TOL, STRAY_DEMAND

__all__ = ["FieldGerm", "Obstruction", "solve_embedding"]


def _entries(pairs) -> str:
    """The 0-based entries (j, m) as a 1-based list for a message."""
    return "[" + ", ".join(fmt_entry(j, m) for j, m in pairs) + "]"


# -- public types ---------------------------------------------------------------


@dataclass(frozen=True)
class FieldGerm:
    """Vector field jet X(y) = By + v(y) with field-resonant support.

    ``linear`` must be a logarithm block matrix (see
    :func:`embedflow.spectral.real_log`).  Every term of ``v`` must be
    field resonant, so that v commutes with B's diagonal, in the scan of
    B's eigen data up to ``degree`` at ``tol``: for a field the solve
    built, the solve's own scan.  A weakly resonant term is refused.
    """

    linear: BlockMatrix
    nonlinear: PolyJet
    degree: int
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.linear.is_log:
            raise ValueError(
                "field linear part must be a logarithm (LogBlock matrix)"
            )
        if self.nonlinear.dim != self.linear.dim:
            raise ValueError("linear and nonlinear dimensions differ")
        if self.nonlinear.degree != self.degree:
            raise ValueError("nonlinear jet truncation must match degree")
        if self.nonlinear.coeffs and self.nonlinear.min_degree() < 2:
            raise ValueError("nonlinear part must vanish to second order")
        report = field_resonances(self.linear.triangular().eigen, max(self.degree, 2), self.tol)
        field = report.field_set()
        bad = [key for key in self.nonlinear.coeffs if key not in field]
        if bad:
            raise ValueError(f"field support must be field resonant; got {_entries(bad)}")

    @property
    def dim(self) -> int:
        return self.linear.dim

    @property
    def mode(self) -> str:
        return self.nonlinear.mode

    def field_jet(self) -> PolyJet:
        tri = self.linear.triangular()
        mode = self.mode
        if mode == MODE_EXACT:
            # The diagonal of B is transcendental; only the nonlinear part
            # stays exact.  Callers needing one jet get the float view.
            mode = MODE_FLOAT
        return tri.linear_jet(self.degree, mode) + self.nonlinear.to_float()


@dataclass(frozen=True)
class Obstruction:
    """Certificate that an embedding field would need weak directions.

    ``entries`` lists (j, m, l, demand): the weakly resonant monomials of
    the lowest degree on which log(e^(-S) G) has a nonzero coefficient,
    the demand.  The degree-r averaging operator T^r is 0 on these rows,
    so no field term meets it.  The certificate is branch-specific: it
    rules out embedding fields with resonant+weak support for this
    logarithm only.
    """

    entries: tuple
    degree: int
    cause: str

    def blocked_set(self) -> frozenset:
        return frozenset((j, tuple(m), l) for j, m, l, _ in self.entries)


# -- the solve ------------------------------------------------------------------


def _is_zero(c, exact: bool, tol: float) -> bool:
    if exact:
        return not c
    return abs(c) <= tol


def _validate_normal_form(G: GermSpec, report: ResonanceReport, tol: float):
    allowed = report.field_set() | report.weak_set()
    bad = []
    for (j, m), c in G.nonlinear.coeffs.items():
        if (j, m) not in allowed:
            if G.mode == MODE_EXACT or abs(complex(c)) > tol:
                bad.append((j, tuple(m)))
    if bad:
        raise ValueError(
            "germ is not in distinguished normal form for this logarithm: "
            f"nonresonant monomials {_entries(bad)}"
        )


def solve_embedding(G: GermSpec, B: BlockMatrix, tol: float = DEFAULT_TOL):
    """Construct the embedding field jet for a normal-form germ, or refuse.

    Computes Y = log U for the unipotent map U = e^(-S) G, S the diagonal
    of B, by the series ``Y = sum_k (-1)^(k+1)/k D_k`` with ``D_0 = id``
    and ``D_k = D_(k-1) o U - D_(k-1)``, to the first zero D_k or the
    round after which every D_k is zero.  Returns
    a :class:`FieldGerm` ``B + v`` with v the nonlinear part of Y on
    field-resonant monomials, or, at the lowest degree where Y has a
    nonzero weakly resonant coefficient, an :class:`Obstruction` naming
    those coefficients.
    B must be a real logarithm of the germ's linear part A as
    :func:`embedflow.spectral.real_log` builds it, on any branch: its
    ``LogBlock`` sources are A's blocks, so exp(B) = A by construction.
    Any other B raises :class:`SpectralError`.  e^S is read from G, not
    formed from B's logs: its diagonal is that of A's triangular form, QQi
    in exact mode.  Raises ``ArithmeticError`` when Y has a coefficient
    above STRAY_DEMAND on a monomial that is neither field resonant nor
    weak.
    """
    if not B.is_log:
        raise ValueError("B must be a logarithm block matrix")
    if tuple(b.source for b in B.blocks) != G.linear.blocks:
        raise SpectralError(
            "B is not a logarithm of the germ's linear part: its source "
            "blocks are not the germ's blocks"
        )
    N = G.degree
    tri = B.triangular()
    report = field_resonances(tri.eigen, max(N, 2), tol)  # N = 1 solves nothing
    _validate_normal_form(G, report, tol)
    n = tri.dim
    exact = G.mode == MODE_EXACT
    one = _one(G.mode)
    G_jet = G.map_jet()  # exact mode refuses a diagonal that is not QQi
    # e^S has the eigenvalues that the normal form divided by, the diagonal
    # of G's triangular form, on every branch of B
    inv = [one / (d if exact else complex(d)) for d in G.linear.triangular().diag]
    units = [MultiIndex.unit(n, j) for j in range(n)]
    # U = e^(-S) G.  Its linear diagonal is set to exactly 1, so that a
    # round keeps only terms that a coupling or a nonlinear term moved.
    U = PolyJet(
        n,
        N,
        G.mode,
        {(j, m): one if m == units[j] else inv[j] * c for (j, m), c in G_jet.coeffs.items()},
    )
    # D_k = 0 for k > N(2s - 1) - s, s the longest Jordan chain (the weight
    # argument of embedflow.flow).  The cap ends the series when D_k does
    # not: an inf or nan coefficient keeps D o U - D from cancelling.
    c = [0] * n  # by rows ascending, a coupling (i, k), k < i, reads c_k when final
    for i, k, _ in sorted(tri.nil, key=lambda e: e[:2]):
        c[i] = max(c[i], c[k] + 1)
    s = max(c) + 1
    D = PolyJet.identity(n, N, G.mode)
    Y = PolyJet.zero(n, N, G.mode)
    compose_u = _composer(U, N)  # U's powers serve every round
    for k in range(1, N * (2 * s - 1) - s + 1):
        D = compose_u(D) - D
        if not D.coeffs:
            break
        w = Fraction((-1) ** (k + 1), k)
        Y = Y + D.scale(w if exact else complex(w))

    field = report.field_set()
    weak = {(j, m): l for j, m, l in report.weak}
    for r in range(2, N + 1):
        y_r = Y.degree_slice(r).coeffs
        stray = sorted(
            k
            for k, c in y_r.items()
            if k not in field
            and k not in weak
            and not _is_zero(c, exact, STRAY_DEMAND)
        )
        if stray:
            raise ArithmeticError(
                f"nonresonant coefficient appeared at degree {r}: {_entries(stray)} "
                "(near-resonant spectrum: resonances kept within tol compose "
                "to monomials that are not)"
            )
        blocked = [
            (j, m, weak[(j, m)], complex(c))
            for (j, m), c in sorted(y_r.items())  # the order of report.basis(r)
            if (j, m) in weak and not _is_zero(c, exact, tol)
        ]
        if blocked:
            return Obstruction(
                tuple(blocked),
                r,
                "weakly resonant demand outside the range of the degree-"
                f"{r} averaging operator (branch-specific certificate)",
            )
    v = PolyJet(n, N, G.mode, {k: c for k, c in Y.coeffs.items() if k in field})
    return FieldGerm(B, v, N, tol)
