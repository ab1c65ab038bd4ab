"""Rolling orthonormal memory of recent movement directions.

The history holds an n x n orthonormal matrix.  Folding in a new iterate
difference pushes it into the leading column; the previously accumulated
directions shift back one slot and are re-orthonormalized against it by
Householder QR.  Storage never grows past the one matrix.
"""

import numpy as np

from .finite_difference import BasisMatrix, _householder_qr

_DEGENERATE_RTOL = 1e-10
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
    tol = _DEGENERATE_RTOL * np.linalg.norm(M, axis=0).max()
    Q, r = _householder_qr(M)
    for j in range(n):
        if r[j] <= tol:
            M[:, j] = _spare_canonical(Q, j, n)
            Q, r = _householder_qr(M)
    return BasisMatrix(Q, orthonormal=True)


class DirectionHistory:
    """Orthonormal basis built from the most recent iterate differences.

    A fresh history starts at the identity.  update() folds in one
    difference vector; differences with norm at most 1e-14 are ignored so
    re-evaluating an optimizer at the same point never corrupts the basis.
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
        if np.linalg.norm(delta) <= _ZERO_STEP_TOL:
            return self  # no movement: keep the current basis
        candidate = np.column_stack([delta, self.basis.matrix[:, : self.dim - 1]])
        self.basis = mgs_orthonormalize(candidate)
        self.updates_seen += 1
        return self

    def __repr__(self):
        return f"DirectionHistory(dim={self.dim}, updates_seen={self.updates_seen})"
