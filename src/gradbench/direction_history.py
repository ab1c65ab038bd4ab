"""Rolling orthonormal memory of recent movement directions.

The history holds an n x n orthonormal matrix.  Folding in a new iterate
difference pushes it into the leading column; the previously accumulated
directions shift back one slot and are re-orthonormalized against it by a
rank-one update of the basis, O(n^2) per step (the QR-updating form of
Daniel, Gragg, Kaufman & Stewart, *Math. Comp.* 30 (1976); Golub & Van
Loan, *Matrix Computations*, section 6.5).  Storage never grows past the
one matrix.
"""

import math

import numpy as np

from .finite_difference import _DEPENDENCE_RTOL, BasisMatrix, _dependence_tol, _householder_qr

_ZERO_STEP_TOL = 1e-14


def _spare_canonical(Q, k, n):
    """Canonical basis vector least represented in the first k columns of Q.

    Ties in the squared mass go to the lowest index; when two masses differ
    only by rounding, which axis wins depends on that rounding, and either
    gives a valid basis.
    """
    mass = (Q[:, :k] ** 2).sum(axis=1)
    e = np.zeros(n)
    e[int(np.argmin(mass))] = 1.0
    return e


def mgs_orthonormalize(matrix):
    """Orthonormalize a square matrix's columns in order, recovering from degeneracy.

    Column j of the result is the normalized component of input column j
    orthogonal to the columns before it (Householder QR with diag(R) >= 0),
    so the leading column is the normalized first input column.  A column
    whose residual falls to 1e-10 times the largest input column norm or
    below is replaced by the canonical axis least represented in the
    columns before it (lowest index on a tie), and the matrix is factored
    again, so the result is always a full orthonormal basis and the column
    span is preserved for full-rank input.
    """
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    n = M.shape[0]
    tol = _dependence_tol(M)
    Q, r = _householder_qr(M)
    for j in range(n):
        if r[j] <= tol:
            M[:, j] = _spare_canonical(Q, j, n)
            Q, r = _householder_qr(M)
    return BasisMatrix(Q, orthonormal=True)


def _push_leading(Q, u, tol):
    """Orthonormalize [u, Q[:, :n-1]] in O(n^2), or None when it is degenerate.

    Q is orthonormal and u a unit vector.  With c = Q^T u and the suffix sums
    s_j = sum_{k>=j} c_k^2, the result is [u, Q P'], where column j of P'
    (j = 0..n-2) is sqrt(s_{j+1}/s_j) e_j - c_j / sqrt(s_j s_{j+1}) times c
    restricted to k > j: the normalized component of e_j orthogonal to c and
    e_0..e_{j-1}.  In exact arithmetic this is the Householder QR of
    [u, Q[:, :n-1]] with diag(R) >= 0, and sqrt(s_{j+1}/s_j) is the residual
    of its column j + 1.  None is returned when a residual is at or below tol.

    Column 0 is u itself, not Q c, and c is renormalized.  Either keeps
    ||G^T G - I||_inf bounded over any number of updates; without both it
    grows geometrically.
    """
    c = Q.T @ u
    c /= math.sqrt(c @ c)
    s = np.cumsum((c * c)[::-1])[::-1]
    head, tail = s[:-1], s[1:]
    if not (tail > tol * tol * head).all():
        return None
    # tails[:, k] = sum_{m>=k} c_m Q[:, m]
    tails = np.cumsum((Q * c)[:, ::-1], axis=1)[:, ::-1]
    G = np.empty_like(Q)
    G[:, 0] = u
    G[:, 1:] = Q[:, :-1] * np.sqrt(tail / head) - tails[:, 1:] * (
        c[:-1] / np.sqrt(head * tail)
    )
    return G


def _candidate_tol(delta, Q):
    """_dependence_tol of [delta, Q[:, :n-1]], bit for bit, without stacking it.

    np.linalg.norm(M, axis=0) adds each column of a C-contiguous M in row
    order, as np.add.reduce(axis=0) does for Q's columns and np.cumsum for
    delta (a 1-D sum would add delta pairwise and round differently).  The
    square root is monotone, so the root of the largest sum is the largest
    column norm.
    """
    q = Q[:, :-1]
    largest = np.add.reduce(q * q, axis=0).max(initial=np.cumsum(delta * delta)[-1])
    return _DEPENDENCE_RTOL * math.sqrt(largest)


class DirectionHistory:
    """Orthonormal basis built from the most recent iterate differences.

    A fresh history starts at the identity.  update() folds in one
    difference vector; differences with norm at most 1e-14 are ignored so
    re-evaluating an optimizer at the same point never corrupts the basis.
    The new basis is [delta/|delta|, older directions re-orthonormalized
    behind it], taken by a rank-one update; when delta or an older direction
    is dependent on those before it within 1e-10 (relative to the largest
    column), mgs_orthonormalize handles the step instead and substitutes
    spare canonical axes for the dependent columns.
    """

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)
        self.basis = BasisMatrix.identity(self.dim)
        self.updates_seen = 0

    def update(self, delta_x):
        delta = np.asarray(delta_x, dtype=float)
        if delta.shape != (self.dim,):
            raise ValueError(f"expected a difference vector of length {self.dim}")
        if not np.isfinite(delta).all():
            raise ValueError("difference vector must be finite")
        norm = math.sqrt(delta @ delta)
        if norm <= _ZERO_STEP_TOL:
            return self  # no movement: keep the current basis
        Q = self.basis.matrix
        tol = _candidate_tol(delta, Q)
        G = _push_leading(Q, delta / norm, tol) if norm > tol else None
        if G is None:
            self.basis = mgs_orthonormalize(np.column_stack([delta, Q[:, :-1]]))
        else:
            self.basis = BasisMatrix(G, orthonormal=True)
        self.updates_seen += 1
        return self

    def __repr__(self):
        return f"DirectionHistory(dim={self.dim}, updates_seen={self.updates_seen})"
