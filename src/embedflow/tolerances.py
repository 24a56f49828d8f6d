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

The series stopping rule of ``spectral.dense_exp`` belongs to its
algorithm and stays there.  The flow needs no threshold: its frequencies
are the integer witnesses of the one resonance rule.
"""

# The default of every ``tol`` parameter and of a germ file's ``tol``
# option.  Absolute in mu (logs, of order one) in the one resonance rule,
# which decides map, field and weak resonance alike and so the integer
# frequencies of the flow, and in | |lambda| - 1 | for hyperbolicity; relative to
# max(1, |lambda_j|) in the dense-matrix loader.  1e-9 sits about seven digits above double roundoff on
# eigenvalues of order one and far below any resonance gap a user means.
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

# |exp(B) - A| (max entry) above LOG_RESIDUAL * max(1, max |A|) means B is
# not a logarithm of A.  The exponential of a true logarithm reproduces A
# to a few units of roundoff; another branch or a wrong block misses it by
# order one, so any cut between the two decides, and 1e-8 sits far from
# both.
LOG_RESIDUAL = 1e-8

# A float coefficient of Y = log(e^(-S) G) above STRAY_DEMAND (absolute) on
# a monomial that is neither field-resonant nor weak is a defect of the
# normal form, not roundoff; the solve raises rather than drop it.  In
# exact arithmetic such coefficients cancel exactly; in float they are
# roundoff of the log series' compositions, many decades below 1e-7 for
# coefficients of order one.
STRAY_DEMAND = 1e-7

# The largest imaginary part (absolute) that complexify accepts on a real
# jet, and that realify accepts on the real form of a float jet before it
# drops the imaginary parts.  The same order as DEFAULT_TOL.
CONJUGATE_SYMMETRY = 1e-9

# complexify and realify conjugate a float jet by the pair change of
# coordinates.  Each output coefficient c is a sum of products of input
# coefficients, and by the summation bound (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., 3.1) its rounding error is at most
# gamma_k * b, where b is the same sum taken over absolute values and
# gamma_k = k*u / (1 - k*u), u = 2**-53, for a chain of k roundings.
# A coefficient with |c| <= ROUNDING * b is therefore roundoff of terms
# that cancel exactly, such as the binomial cross terms of
# (x_2^2 + x_3^2)^4.  2**-44 = 512*u covers chains of up to about 500
# roundings; a true coefficient that small is already within the
# representation error of the float inputs that form it.
ROUNDING = 2.0**-44

# dense_exp returns a real matrix when every imaginary part is below
# REAL_EXP times max(1, largest entry): the exponential of a real matrix,
# computed in complex arithmetic, has imaginary parts of roundoff size,
# far below that.
REAL_EXP = 1e-12

# verify accepts the ODE oracle's time-one residual up to
# max(ODE_BOUND, tol) * scale, scale = max(1, max |map jet coefficient|).
# The oracle is a fixed-step Dormand-Prince 5(4) integration (see
# ODE_STEPS_PER_RATE) whose own error is measured, and gated by
# ODE_ERR_SHARE.  On paper-2.3, the stiffest fixture (its state moves at
# rate 8), 184 steps leave a residual of 9.5e-7 (3.2e-10 relative to its
# scale 2981) and an estimate of 8.3e-6 (2.8e-9 relative).  ODE_BOUND
# leaves room for stiffer germs while still catching a wrong field, which
# misses by order one relative.
ODE_BOUND = 1e-6

# The ODE oracle integrates only the reachable coefficients (j, m), those
# that B's couplings and v's terms can make nonzero from the identity, and
# takes ODE_STEPS_PER_RATE steps per unit of their fastest rate, the
# largest of |<m, mu>| and |mu_j| over them (a rate below 1 counts as 1),
# so h * rate <= 1/ODE_STEPS_PER_RATE on every coefficient it carries.
# The modulus, not Re mu, so that rotation parts are resolved as well.
# DP5's error falls as h^5.  23 is the smallest value at which every
# absolute-accuracy assert of the test suite passes: at 22 paper-2.3's ODE
# residual is 1.2e-6 against an embed test's 1e-6 (9.5e-7 at 23), at 20
# that test still fails, and at 16 two time-one checks of 1e-9 fail too.
ODE_STEPS_PER_RATE = 23

# verify also requires the oracle's error estimate (the sum over steps of
# the max-abs difference of the embedded fifth- and fourth-order results)
# to be at most ODE_ERR_SHARE * bound_ode.  The residual it qualifies is
# then a measurement of the field, not of the oracle: at most a tenth of
# the bound is the integrator's own.
ODE_ERR_SHARE = 0.1
