"""Independent averaging-operator oracle: scipy expm + Gauss-Legendre.

Computes the matrix of X_r -> int_0^1 e^{-sB} X_r(e^{sB} y) ds by sampling
the integrand at quadrature nodes and interpolating the image back onto
the monomial basis with least squares.  Shares no code with the symbolic
ExpPoly route of _expflow.py, whose ``Tr_matrix`` it checks.
"""

import itertools

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm


def _monomials(n, r):
    out = []
    for combo in itertools.combinations(range(r + n - 1), n - 1):
        prev, m = -1, []
        for c in combo:
            m.append(c - prev - 1)
            prev = c
        m.append(r + n - 2 - prev)
        out.append(tuple(m))
    return sorted(out)


def tr_matrix_quadrature(B, basis, r, order=48, samples=4, seed=12345):
    """basis: (j, m) pairs. Returns the operator matrix in that basis.

    Raises AssertionError if the image of the basis span leaks onto
    monomials outside the basis (the span would not be invariant).
    """
    B = np.asarray(B, dtype=complex)
    n = B.shape[0]
    nodes, weights = leggauss(order)
    s_vals = 0.5 * (nodes + 1.0)
    w_vals = 0.5 * weights
    Es = [expm(s * B) for s in s_vals]
    Ems = [expm(-s * B) for s in s_vals]

    mons = _monomials(n, r)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.4, 1.4, size=(samples * len(mons), n)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, size=(samples * len(mons), n))
    )
    V = np.array([[np.prod(p ** np.array(m)) for m in mons] for p in pts])

    cols = []
    for (k, m) in basis:
        vals = np.zeros((len(pts), n), dtype=complex)
        for p_i, y in enumerate(pts):
            acc = np.zeros(n, dtype=complex)
            for s_i in range(order):
                ys = Es[s_i] @ y
                vec = np.zeros(n, dtype=complex)
                vec[k] = np.prod(ys ** np.array(m))
                acc += w_vals[s_i] * (Ems[s_i] @ vec)
            vals[p_i] = acc
        coeffs = {}
        for j in range(n):
            c, *_ = np.linalg.lstsq(V, vals[:, j], rcond=None)
            for m_i, mm in enumerate(mons):
                if abs(c[m_i]) > 1e-10:
                    coeffs[(j, mm)] = c[m_i]
        col = np.zeros(len(basis), dtype=complex)
        for row_i, (j, mm) in enumerate(basis):
            col[row_i] = coeffs.pop((j, tuple(mm)), 0.0)
        assert not coeffs, f"operator image leaks off the basis: {coeffs}"
        cols.append(col)
    return np.array(cols).T
