"""Every threshold that decides a classification, a refusal, a pruning or a
verdict, with the scale it is relative to and the reason for its value.

Jet arithmetic has no absolute threshold: in every coefficient ring it
drops exact zeros only.  A float coefficient that is small is still a coefficient;
dropping it would change the germ, and higher powers amplify what was
dropped.  The one float cut on jet coefficients is :data:`ROUNDING`, in
:func:`embedflow.jets.complexify` and :func:`embedflow.jets.realify`, and
it is relative to the magnitudes that formed each coefficient.

Exact eigen data are decided exactly and never look at ``tol``: resonance
when every log is an ``EigenScalar``, hyperbolicity when a block's log or
its Gaussian-rational eigenvalue is exact, and the branch lattice.  Every
other resonance question (map, field or weak) is decided on the complex
logs, within ``tol`` absolute in mu.  With exact logs the normal form's
``tol`` only sets the float divisor floor, ``max(tol, DIVISOR_FLOOR)``.  So a germ with ``jordan 2 1`` and
``jordan 4.0000004 1`` at ``tol 1e-6`` stops with ``NearResonanceError``
by design: 4 and 4.0000004 are not resonant, and their divisor 4e-7 is
below the floor.

The flow needs no threshold: its Lie series ends by exact zero, on the
field-resonant support that the one resonance rule admitted.  Nor does the
test that B is a logarithm of A: the solve compares B's source blocks
with A's blocks, and reads A's eigenvalues rather than exponentiating B's.
"""

import sys

# The default of every ``tol`` parameter and of a germ file's ``tol``
# option.  Absolute in mu (logs, of order one) in the one resonance rule,
# which decides map, field and weak resonance alike and so the support a
# field may carry, and in | |lambda| - 1 | for hyperbolicity.  1e-9
# sits about seven digits above double roundoff on eigenvalues of order one
# and far below any resonance gap a user means.
DEFAULT_TOL = 1e-9

# A float resonance miss within NEAR_FACTOR times its cut is reported as
# near, so a spectrum two decades from a tolerance is never classified
# silently.
NEAR_FACTOR = 100.0

# Smallest nonresonant divisor |lambda^m - lambda_j| the float normal form
# divides by, as max(tol, DIVISOR_FLOOR); absolute, like the eigenvalues of
# order one it compares.  Below it a division amplifies the right-hand
# side's roundoff by more than 1e9, and the solve refuses instead.
DIVISOR_FLOOR = 1e-9

# A float coefficient of Y = log(e^(-S) G) above STRAY_DEMAND (absolute) on
# a monomial that is neither field-resonant nor weak is a defect of the
# normal form, not roundoff; the solve raises rather than drop it.  A
# near-resonant spectrum gives one: the normal form keeps each resonance
# within tol, and a composite of kept terms can miss resonance by more.
# With lambda2 = lambda1^2 e^-d, lambda3 = lambda2^2 e^-d and d < tol <
# 2d, both squares are kept, but lambda3 misses lambda1^2 lambda2 by 2d in
# the logs.  In exact arithmetic such coefficients cancel exactly; in
# float they are roundoff of the log series' compositions, many decades
# below 1e-7 for coefficients of order one.
STRAY_DEMAND = 1e-7

# The largest imaginary part (absolute) that complexify accepts on a real
# jet, and that realify accepts on the real form of a float jet before it
# drops the imaginary parts.  The same order as DEFAULT_TOL.
CONJUGATE_SYMMETRY = 1e-9

# complexify and realify conjugate a float jet by the pair change of
# coordinates in jets._linear_change.  Each output coefficient c is a sum of
# products of input coefficients, and by the summation bound (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1) its rounding
# error is at most gamma_k * b, gamma_k = k*u / (1 - k*u), u = 2**-53, for a
# chain of k roundings; b, the same sum over absolute values, is the shadow
# |outer|(|f|(|inner|)) that _linear_change forms by c's steps on moduli.
# A coefficient with |c| <= ROUNDING * b is therefore roundoff of terms
# that cancel exactly, such as the binomial cross terms of
# (x_2^2 + x_3^2)^4.  2**-44 = 512*u covers chains of up to about 500
# roundings; a true coefficient that small is already within the
# representation error of the float inputs that form it.
ROUNDING = 2.0**-44

# verify (verdict.certify) accepts the ODE oracle's time-one residual up to
# max(ODE_BOUND, tol) * scale, scale = max(1, max |map jet coefficient|).
# The oracle is a fixed-step integrating-factor Dormand-Prince 5(4)
# integration (see ODE_STEPS) whose own error is measured, and
# gated by ODE_ERR_SHARE.  On paper-2.3, whose state moves at rate 8 under
# e^(tB), one step leaves a residual of 8.9e-16 (3.0e-19 relative to its
# scale 2981).  ODE_BOUND leaves room for fields whose rows oscillate
# while still catching a wrong field, which misses by order one relative.
ODE_BOUND = 1e-6

# The ODE oracle integrates only the reachable coefficients (j, m), those
# that B's couplings and v's terms can make nonzero from the identity, in
# the frame z = e^(-tD) C that moves with B's diagonal (D = mu_j on column
# (j, m)).  There a row of the composition plan, a term c y^p of component
# j, moves at <p, mu> - mu_j: 0 on B's couplings and on the field-resonant
# terms that are all a FieldGerm carries.  The oracle first takes one step
# and keeps it when its local error is within ODE_ROUNDOFF; the fixtures
# and the resonant verify germs do.  Otherwise it reruns at ODE_STEPS
# equal steps.  Long Jordan chains need that: their coefficients are
# polynomials in t of higher degree than one step integrates exactly.
# Relative to the map jet's scale, at 1, 4 and 23 steps, on the chains of
# the tests (eigenvalues 2, 4, 8, random resonant coefficients):
#   sizes (4, 1) at N = 5:    residual 6.0e-5, 1.5e-8, 4.1e-13;
#                             estimate 5.1e-5, 2.0e-7, 1.8e-10;
#   sizes (2, 2, 2) at N = 3: residual 1.4e-7, 1.5e-10, 2.5e-14;
#                             estimate 1.7e-5, 6.7e-8,  6.1e-11.
# At 4 steps the (4, 1) estimate would exceed ODE_ERR_SHARE * ODE_BOUND =
# 1e-7 and fail the verdict; 23 keeps both estimates more than 500 times
# under it, at six right-hand sides a step.  A field with a moving row,
# which no FieldGerm is, also runs at ODE_STEPS and the estimate gate
# decides: the weak field of the tests, whose row moves at 2*pi, reads a
# residual of 4.4e-16 and an estimate of 1.6e-7 against its gate of 7.4e-7.
ODE_STEPS = 23

# verify (verdict.certify) also requires the oracle's error estimate to be at most
# ODE_ERR_SHARE * bound_ode.  The estimate is the sum over the steps of
# the largest local error in y: |e^D| times the difference of the
# embedded fifth- and fourth-order results in z, which e^(tB)'s diagonal
# carries to time one, plus ODE_ROUNDOFF.  The residual it qualifies is
# then a measurement of the field, not of the oracle: at most a tenth of
# the bound is the integrator's own.
ODE_ERR_SHARE = 0.1

# The roundoff floor of the oracle's error estimate, relative to the
# largest coefficient of its time-one jet.  On a field whose rows all have
# rate 0 the z-equations are solved to roundoff by a few steps, and the
# local errors read 0; the residual is then the rounding of the oracle and
# of G's own coefficients, which reads at most one unit in the last place
# (2.2e-16 relative) on the fixtures and on 74 verify-workload germs.
# 2**-44 = 512 units in the last place is ROUNDING's allowance for chains
# of up to about 500 roundings; it sits six decades below ODE_ERR_SHARE *
# ODE_BOUND = 1e-7 relative, so it never fails a field by itself.  It is
# also the oracle's acceptance test for one step: a one-step local error
# within it is roundoff, and the step stands with an estimate of at most
# twice the floor (4.5e-13 against residuals of at most 1.8e-15 on the
# resonant verify germs); above it the oracle reruns at ODE_STEPS.
ODE_ROUNDOFF = 2.0**-44

# The CLI refuses a germ whose header asks for more than MAX_JET_SIZE jet
# coefficients, n * C(N + n, n) for dimension n and degree N, with exit 3
# and before any monomial index or normal form is built.  The index, the
# resonance scan and the normal form grow with that count whatever terms
# the germ lists: at (n, N) = (6, 10), 48,048, the index takes 0.03 s; at
# (8, 12), 1,007,760, it takes 0.6 to 0.8 s and 37 to 68 MB before the
# first coefficient is solved.  The largest germ of the benchmark
# workloads has 2,310 (n = 5, N = 6).  100,000 admits (6, 10) twice over
# and refuses (8, 12) tenfold.
MAX_JET_SIZE = 100_000

# normal-form, embed and verify also refuse a germ whose dimension n and
# degree N let the normal form's compositions form more than MAX_PRODUCTS
# coefficient products, counted by embedflow.graded.product_bound (the
# dense germ's count), with exit 3 and before any monomial index or product
# list is built.  The cost follows the degree, not the coefficient count:
# a planar germ at N = 60 has 3,782 coefficients and 1.6e9 products.  The
# exact path (Gaussian rationals on the dict kernel) is the slower one.
# Dense exact germs took 140 ns per bounded product at (n, N) = (3, 10),
# 830 ns at (2, 20) and 1.0 us at (2, 30), the rationals growing with the
# degree; float germs take a few ns on the graded arrays.  10**9 admits
# every fixture and benchmark germ (at most 6.5e5, the paper-2.3 fixtures
# at (3, 8)), (2, 40) at 1.6e8 and (6, 8) and (3, 20) at 5.7e8, with a
# dense exact germ at the limit running for about a quarter of an hour.
# (2, 120), at 9.3e10, is refused: by extrapolation about half an hour on
# the float dict kernel and more than a day exact.
MAX_PRODUCTS = 10**9

# embed and verify refuse a germ with an eigenvalue lambda whose
# |lambda| * |ln lambda| exceeds MAX_FIELD_SCALE, the largest float, with
# exit 3 and before the normal form.  The embedding residual X(G) - DG.X
# composes the field, whose linear part carries ln lambda, with the map,
# whose linear part carries lambda, so its coefficients reach
# lambda * ln lambda; past the float range they read inf - inf = nan, and
# a residual that is not a number decides nothing.  Exact
# ``jordan 1e308 1`` (1e308 * 709 = 7e310) is refused; analyze and
# normal-form compose no field and still take it.
MAX_FIELD_SCALE = sys.float_info.max
