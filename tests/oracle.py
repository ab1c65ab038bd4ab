"""Independent references for tests.

richardson_gradient: four central-difference levels with halved steps,
extrapolated to eighth order.  reference_mgs: column-by-column modified
Gram-Schmidt.  Both are deliberately separate from the library's own
stencils and orthonormalization so the two never share a code path.
"""

import numpy as np


def richardson_gradient(fn, x, h0=1e-2, levels=4):
    """Gradient of fn at x, accurate to O(h0^(2*levels))."""
    x = np.asarray(x, dtype=float)
    n = x.size
    grad = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        h = h0
        table = []
        for _ in range(levels):
            table.append((fn(x + h * e) - fn(x - h * e)) / (2.0 * h))
            h /= 2.0
        table = np.array(table)
        for j in range(1, levels):
            factor = 4.0 ** j
            table = (factor * table[1:] - table[:-1]) / (factor - 1.0)
        grad[i] = table[0]
    return grad


def _strip(v, Q, k):
    """Remove from v (in place) its components along the first k columns of Q."""
    for i in range(k):
        v -= (Q[:, i] @ v) * Q[:, i]
    return v


def _project_out(v, Q, k):
    """Project v against the accepted columns; returns (residual, norm).

    A second projection pass runs whenever the first one cancels more than
    half of the column's norm: with severe cancellation a single pass
    leaves contamination of order eps * |v| / |residual|.
    """
    before = np.linalg.norm(v)
    v = _strip(v, Q, k)
    r = np.linalg.norm(v)
    if r < 0.5 * before:
        v = _strip(v, Q, k)
        r = np.linalg.norm(v)
    return v, r


def reference_mgs(matrix):
    """Column-by-column modified Gram-Schmidt with degenerate recovery.

    The library orthonormalizes by Householder QR instead; this loop is the
    reference it is tested against.  Each column is stripped of its
    components along the accepted columns (twice when the first pass
    cancels more than half its norm) and normalized.  A column whose
    residual is at most 1e-10 times the largest input column norm is
    replaced by the canonical axis with the least squared mass in the
    accepted columns (the lowest index among exact ties).

    Returns (Q, tie_gap): tie_gap is the smallest difference, over all
    replacements, between the least and the second-least axis mass (inf
    when no column was replaced).  Where it is at rounding level, another
    correct orthonormalization may pick a different, equally valid axis.
    """
    M = np.asarray(matrix, dtype=float)
    n = M.shape[0]
    tol = 1e-10 * np.linalg.norm(M, axis=0).max()
    Q = np.zeros((n, n))
    tie_gap = np.inf
    for j in range(n):
        v, r = _project_out(M[:, j].copy(), Q, j)
        if r <= tol:
            mass = (Q[:, :j] ** 2).sum(axis=1)
            least, second = np.partition(mass, 1)[:2]
            tie_gap = min(tie_gap, second - least)
            v = np.zeros(n)
            v[int(np.argmin(mass))] = 1.0
            v, r = _project_out(v, Q, j)
        Q[:, j] = v / r
    return Q, tie_gap
