"""Rolling orthonormal memory of recent movement directions.

The history holds an n x n orthonormal matrix.  Folding in a new iterate
difference pushes it into the leading column; the previously accumulated
directions shift back one slot and are re-orthonormalized against it by a
rank-one update of the basis, O(n^2) per step (the QR-updating form of
Daniel, Gragg, Kaufman & Stewart, *Math. Comp.* 30 (1976); Golub & Van
Loan, *Matrix Computations*, section 6.5).  Every step goes through that
one update; an older direction the new one makes dependent is dropped, not
replaced.  Storage never grows past the one matrix.
"""

import math

import numpy as np

from .finite_difference import (
    _DEPENDENCE_RTOL, BasisMatrix, _householder_q, _integer, _square_matrix,
)

_ZERO_STEP_TOL = 1e-14


def mgs_orthonormalize(matrix):
    """Orthonormalize a square matrix's columns in order; refuse dependent ones.

    Column j of the result is the normalized component of input column j
    orthogonal to the columns before it, so the leading column is the
    normalized first input column.  This is the Q of a Householder QR with
    diag(R) >= 0, not Gram-Schmidt.  Dependent input raises
    IllConditionedBasisError by the rule a general BasisMatrix applies: a
    column whose residual is at or below 1e-10 times the largest input
    column norm.  Input that is not square, at least 1x1 and finite raises
    ValueError with the message BasisMatrix gives; so does a result that
    does not measure orthonormal within 1e-12.  The name is historical; the
    benchmark harness in perfbench/ looks the function up by it, so it
    changes together with that harness (ROADMAP open items 7 and 10).
    """
    M, _ = _square_matrix(matrix)
    return BasisMatrix._adopt(_householder_q(M))


def _push_leading(Q, u):
    """Orthonormalize [u, Q without column k] in O(n^2); u leads.

    Q is orthonormal and u a unit vector.  With c = Q^T u and the suffix sums
    s_j = sum_{m>=j} c_m^2, column j of Q has residual sqrt(s_{j+1}/s_j)
    against u and the columns before it.  k is the first column whose
    residual is at or below 1e-10, else n - 1 (the oldest); the sums are
    scanned for it as Python floats, one comparison s_{j+1} <= 1e-20 s_j at
    a time.  Column j < k becomes sqrt(s_{j+1}/s_j) Q e_j - c_j /
    sqrt(s_j s_{j+1}) times sum_{m=j+1..k} c_m Q e_m, its normalized
    residual; the columns after k, if any, keep their place with u
    projected out (u's weight on them is below 1e-10).  In exact
    arithmetic, up to that weight, this is the Householder QR of [u, Q
    without column k] with diag(R) >= 0.  Every column is written in place
    into the returned matrix, a fresh array the caller adopts as its basis
    (BasisMatrix._adopt measures it once).

    Column 0 is u itself, not Q c, and c is renormalized.  Either keeps
    ||G^T G - I||_inf bounded over any number of updates; without both it
    grows geometrically.
    """
    c = Q.T.dot(u)
    c /= math.sqrt(c.dot(c))
    # np.add.accumulate is np.cumsum without its Python-level dispatch
    s = np.add.accumulate((c * c)[::-1])[::-1]
    sums = s.tolist()
    n = len(sums)
    k = n - 1
    bound = _DEPENDENCE_RTOL ** 2
    for j in range(k):
        if sums[j + 1] <= bound * sums[j]:
            k = j
            break
    head, tail = s[:k], s[1:k + 1]
    # tails[:, j - 1] = sum_{m=j..k} c_m Q[:, m]
    tails = np.add.accumulate((Q[:, 1:k + 1] * c[1:k + 1])[:, ::-1], axis=1)[:, ::-1]
    G = np.empty(Q.shape)  # np.empty_like(Q) without its dispatcher: Q is C-ordered too
    G[:, 0] = u
    new = G[:, 1:k + 1]
    np.multiply(Q[:, :k], np.sqrt(tail / head), out=new)
    new -= tails * (c[:k] / np.sqrt(head * tail))
    if k < n - 1:
        np.subtract(Q[:, k + 1:], u[:, None] * c[k + 1:], out=G[:, k + 1:])
    return G


class DirectionHistory:
    """Orthonormal basis built from the most recent iterate differences.

    A fresh history starts at the identity.  update() folds in one
    difference vector; differences with norm at most 1e-14 are ignored so
    re-evaluating an optimizer at the same point never corrupts the basis.
    The new basis is [delta/|delta|, older directions re-orthonormalized
    behind it], taken by a rank-one update, so column 0 is always the
    latest step's direction.  One older direction is dropped per step: the
    oldest, or, when the step makes an older direction dependent (a
    residual within 1e-10), the first such one.  An update whose basis is
    not orthonormal within 1e-12 raises ValueError and changes nothing.
    """

    def __init__(self, dim):
        self.dim = _integer(dim, "dim")
        self.basis = BasisMatrix.identity(self.dim)
        self.updates_seen = 0

    def update(self, delta_x):
        delta = np.asarray(delta_x, float)
        if delta.shape != (self.dim,):
            raise ValueError(f"expected a difference vector of length {self.dim}")
        norm = math.sqrt(np.vdot(delta, delta))  # inf, unwarned, if |delta|^2 overflows
        if norm <= _ZERO_STEP_TOL:
            return self  # no movement, -0.0 included: keep the current basis
        if not norm < math.inf:
            # NaN or inf: an entry is not finite, or |delta|^2 overflowed
            if not np.isfinite(delta).all():
                raise ValueError("difference vector must be finite")
            # scaling only this branch keeps every other step's bits
            delta = delta / np.abs(delta).max()
            norm = math.sqrt(np.vdot(delta, delta))
        self.basis = BasisMatrix._adopt(_push_leading(self.basis.matrix, delta / norm))
        self.updates_seen += 1
        return self

    def __repr__(self):
        return f"DirectionHistory(dim={self.dim}, updates_seen={self.updates_seen})"
