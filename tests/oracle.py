"""Independent references for tests.

richardson_gradient: four central-difference levels with halved steps,
extrapolated to eighth order.  reference_rosenbrock_pairwise,
reference_rosenbrock_chained and reference_freudenstein_roth: the batched
objectives as whole-array expressions on strided slices, their terms added
one coordinate after another (coordinate_sum), which the library's in-place
kernels must match bit for bit.  reference_mgs:
column-by-column modified Gram-Schmidt.  reference_stencil_value,
reference_gradient_in_basis and reference_hessian_in_basis: the
finite-difference stencils evaluated one point per call, in loops.  All are
deliberately separate from the library's own objectives, stencils and
orthonormalization so the two never share a code path.
rank_correlation: Spearman's rank correlation for sequences without ties,
in numpy.

reference_history_step, reference_householder_q and
reference_rotation_scan are the exceptions: the direction history's
rank-one update as first written, whole-array numpy with no fast paths,
the Householder Q as it was before it rescaled tiny matrices, and the
rotation scan from one directional_derivative call per basis column and a
second call for the leading-direction magnitude, as it was before the scan
read both off one stencil, kept so that the library's versions can be held
to their bytes where they promise no change.
"""

import functools
import math

import numpy as np

from gradbench.bench import RotateRecord
from gradbench.finite_difference import (
    BasisMatrix,
    ObjectiveFn,
    directional_derivative,
)
from gradbench.testbed import grad_mse, rosenbrock2d, rosenbrock2d_grad


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


def coordinate_sum(terms):
    """((terms[..., 0] + terms[..., 1]) + terms[..., 2]) + ... for each point.

    One np.add per coordinate, on contiguous copies of the coordinate
    slices.  numpy's add loops differ in which of two NaN operands they
    return (the scalar + and strided loops against the contiguous ones), so
    only the loops the kernels' sums run give their NaN bits too.
    """
    return functools.reduce(np.add, np.ascontiguousarray(np.moveaxis(terms, -1, 0)))


def reference_rosenbrock_pairwise(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0::2], x[..., 1::2]
    return coordinate_sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2)


def reference_rosenbrock_chained(x):
    x = np.asarray(x, dtype=float)
    head, tail = x[..., :-1], x[..., 1:]
    return coordinate_sum(100.0 * (tail - head ** 2) ** 2 + (1.0 - head) ** 2)


def reference_freudenstein_roth(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0::2], x[..., 1::2]
    r1 = -13.0 + a + b * (b * (5.0 - b) - 2.0)
    r2 = -29.0 + a + b * (b * (b + 1.0) - 14.0)
    return coordinate_sum(r1 * r1 + r2 * r2)


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
    if scheme.name == "forward1":
        base = float(fn(x)) if f_base is None else f_base
        return (float(fn(x + h * u)) - base) / h
    if scheme.name == "central1":
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
    f_base = float(fn(x)) if scheme.name == "forward1" else None
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


def _reference_push_leading(Q, u):
    """[u, Q without column k] orthonormalized by the rank-one update."""
    c = Q.T @ u
    c /= math.sqrt(c @ c)
    s = np.cumsum((c * c)[::-1])[::-1]
    dependent = np.flatnonzero(s[1:] <= 1e-10 ** 2 * s[:-1])
    k = int(dependent[0]) if dependent.size else s.size - 1
    head, tail = s[:k], s[1:k + 1]
    # tails[:, j] = sum_{m=j..k} c_m Q[:, m]
    tails = np.cumsum((Q[:, :k + 1] * c[:k + 1])[:, ::-1], axis=1)[:, ::-1]
    G = np.empty_like(Q)
    G[:, 0] = u
    G[:, 1:k + 1] = Q[:, :k] * np.sqrt(tail / head) - tails[:, 1:] * (
        c[:k] / np.sqrt(head * tail)
    )
    G[:, k + 1:] = Q[:, k + 1:] - u[:, None] * c[k + 1:]
    return G


def reference_history_step(Q, delta):
    """The history basis after folding the finite step delta into basis Q.

    None for a step of norm at most 1e-14, which leaves the basis alone.  A
    step whose squared norm overflows is first divided by its largest
    absolute entry.
    """
    delta = np.array(delta, dtype=float)
    with np.errstate(over="ignore"):
        norm = math.sqrt(delta @ delta)
    if norm <= 1e-14:
        return None
    if norm == math.inf:
        delta = delta / np.abs(delta).max()
        norm = math.sqrt(delta @ delta)
    return _reference_push_leading(Q, delta / norm)


def reference_householder_q(M):
    """Q of the Householder QR of the square finite matrix M, diag(R) >= 0,
    or the index of the first column whose residual |R[j, j]| is at or
    below 1e-10 times the largest column norm.  M is rescaled by a power of
    two only when that norm overflows."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(M, axis=0).max()
    if norm == math.inf:
        M = M * 2.0 ** -math.frexp(np.abs(M).max())[1]
        norm = np.linalg.norm(M, axis=0).max()
    Q, R = np.linalg.qr(M)
    diag = np.diag(R)
    dependent = np.flatnonzero(np.abs(diag) <= 1e-10 * norm)
    if dependent.size:
        return int(dependent[0])
    return Q * np.where(diag < 0.0, -1.0, 1.0)


def reference_rotation_scan(x, angle_step, scheme):
    """The rotation scan's records, with one directional_derivative call per
    column of each angle's basis: the estimate is basis.matrix @ (the two
    derivatives), as a rotation is orthonormal, and its leading-direction
    magnitude is the column-0 derivative's, taken from a separate call."""
    objective = ObjectiveFn(rosenbrock2d, 2)
    x = np.asarray(x, dtype=float)
    exact = rosenbrock2d_grad(x)
    records = []
    k = 0
    while k * angle_step < np.pi:
        basis = BasisMatrix.rotation_2d(k * angle_step)
        inner = np.array([directional_derivative(objective, x, d, scheme) for d in basis.matrix.T])
        magnitude = abs(directional_derivative(objective, x, basis.matrix[:, 0], scheme))
        records.append(
            RotateRecord(
                angle=k * angle_step,
                mse=grad_mse(basis.matrix @ inner, exact),
                dir_grad_magnitude=magnitude,
            )
        )
        k += 1
    return records


def rank_correlation(a, b):
    """Spearman's rank correlation of two sequences without ties: the
    Pearson correlation of their ranks, each rank the position of a value
    in its sorted sequence.  Asserts that neither sequence has a tie, the
    one case where ranks by position differ from Spearman's mid-ranks."""
    ranks = []
    for values in (a, b):
        values = np.asarray(values, dtype=float)
        assert np.unique(values).size == values.size, "tied values"
        ranks.append(np.argsort(np.argsort(values)))
    return float(np.corrcoef(*ranks)[0, 1])
