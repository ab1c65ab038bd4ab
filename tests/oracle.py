"""Independent references for tests.

richardson_gradient: four central-difference levels with halved steps,
extrapolated to eighth order.  reference_mgs: column-by-column modified
Gram-Schmidt.  reference_stencil_value, reference_gradient_in_basis and
reference_hessian_in_basis: the finite-difference stencils evaluated one
point per call, in loops.  All are deliberately separate from the library's
own stencils and orthonormalization so the two never share a code path.
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


def reference_stencil_value(fn, x, u, scheme, f_base=None):
    """One finite-difference value along u, one objective call per point."""
    h = scheme.step
    if scheme.kind == "forward":
        base = float(fn(x)) if f_base is None else f_base
        return (float(fn(x + h * u)) - base) / h
    if scheme.order == 1:
        return (float(fn(x + h * u)) - float(fn(x - h * u))) / (2.0 * h)
    return (
        -float(fn(x + 2.0 * h * u))
        + 8.0 * float(fn(x + h * u))
        - 8.0 * float(fn(x - h * u))
        + float(fn(x - 2.0 * h * u))
    ) / (12.0 * h)


def reference_gradient_in_basis(fn, x, basis, scheme):
    """Gradient along the columns of a BasisMatrix, mapped back to the axes."""
    G = basis.matrix
    n = G.shape[1]
    f_base = float(fn(x)) if scheme.kind == "forward" else None
    inner = np.empty(n)
    for i in range(n):
        inner[i] = reference_stencil_value(fn, x, G[:, i], scheme, f_base=f_base)
    if basis.orthonormal:
        return G @ inner
    return np.linalg.solve(G.T, inner)


def reference_hessian_in_basis(fn, x, basis, scheme):
    """Symmetrized G H G^T from three-point diagonal and four-point cross stencils."""
    cols = basis.matrix
    n = cols.shape[1]
    h = scheme.step
    f0 = float(fn(x))
    inner = np.empty((n, n))
    for i in range(n):
        si = h * cols[:, i]
        inner[i, i] = (float(fn(x + si)) - 2.0 * f0 + float(fn(x - si))) / (h * h)
        for j in range(i):
            sj = h * cols[:, j]
            cross = (
                float(fn(x + si + sj)) - float(fn(x + si - sj))
                - float(fn(x - si + sj)) + float(fn(x - si - sj))
            ) / (4.0 * h * h)
            inner[i, j] = cross
            inner[j, i] = cross
    transformed = cols @ inner @ cols.T
    return 0.5 * (transformed + transformed.T)
