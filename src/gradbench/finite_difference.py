"""Finite-difference estimation of directional derivatives, gradients and
Hessians, along the canonical axes or the columns of a supplied basis.

All gradient entry points funnel through one stencil routine, so an estimate
taken in the identity basis is bit-for-bit the plain canonical estimate.
Each stencil's points are stacked into one C-contiguous matrix, one point
per row, and evaluated by ObjectiveFn.eval_rows in a single call.
"""

import functools
from dataclasses import dataclass

import numpy as np

_ORTHONORMAL_TOL = 1e-12
_DEPENDENCE_RTOL = 1e-10
_UNIT_NORM_TOL = 1e-12


class IllConditionedBasisError(ValueError):
    """Raised when a basis matrix is singular or numerically close to it."""


@dataclass(frozen=True)
class FdScheme:
    """Finite-difference scheme descriptor.

    kind is "central" or "forward"; order is 1 (two-point) or 4 (five-point
    central).  Forward differences exist only at order 1.  step is the
    absolute step length h, applied as-is regardless of the scale of x.
    """

    kind: str = "central"
    order: int = 1
    step: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("central", "forward"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.order not in (1, 4):
            raise ValueError(f"unsupported scheme order {self.order}")
        if self.kind == "forward" and self.order == 4:
            raise ValueError("forward differences are only available at order 1")
        if not 0.0 < self.step < np.inf:
            raise ValueError("step must be positive and finite")

    @classmethod
    def from_name(cls, name, step=1e-3):
        """Build a scheme from its short name: central1, central4 or forward1."""
        table = {
            "central1": ("central", 1),
            "central4": ("central", 4),
            "forward1": ("forward", 1),
        }
        if name not in table:
            raise ValueError(f"unknown scheme name {name!r}")
        kind, order = table[name]
        return cls(kind=kind, order=order, step=step)


class ObjectiveFn:
    """A scalar objective f: R^n -> R with an evaluation counter.

    The wrapped callable must be pure (deterministic for a fixed input).
    The counter is plain Python state; counts are exact as long as the
    instance is not shared across concurrent runs.  A callable with the
    attribute `batched = True` also accepts an (m, n) array of points and
    returns their m values (see eval_rows).
    """

    def __init__(self, fn, dim):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self._fn = fn
        self._batched = bool(getattr(fn, "batched", False))
        self.dim = int(dim)
        self.eval_count = 0

    def __call__(self, x):
        self.eval_count += 1
        return float(self._fn(x))

    def eval_rows(self, X):
        """f at each row of the (m, dim) matrix X, as a length-m array.

        Counts m evaluations.  A batched callable gets the rows in one call,
        as a C-contiguous array: a row-wise reduction then sums each row in
        the same order as a lone point, so the values equal those of m
        single calls bit for bit.  Any other callable is called row by row.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected an (m, {self.dim}) matrix, got shape {X.shape}")
        if not self._batched:
            return np.array([self(row) for row in X])
        m = X.shape[0]
        self.eval_count += m
        values = np.asarray(self._fn(X), dtype=float)
        if values.shape != (m,):
            raise ValueError(
                f"batched objective returned shape {values.shape} for {m} points"
            )
        return values


def _orthonormality_defect(G):
    """Infinity norm of G^T G - I (max absolute row sum)."""
    E = G.T @ G
    E.flat[:: E.shape[0] + 1] -= 1.0  # minus I, on the diagonal in place
    return float(np.abs(E, out=E).sum(axis=1).max())


def _householder_qr(M):
    """Householder QR of a square matrix M, normalized so that diag(R) >= 0.

    Returns (Q, r) with Q orthonormal and r = |diag(R)|.  r[j] is the norm
    of column j's component orthogonal to the columns before it, so
    Q[:, 0] = M[:, 0] / |M[:, 0]| and a small r[j] marks column j as
    numerically dependent on its predecessors.
    """
    Q, R = np.linalg.qr(M)
    diag = np.diag(R)
    return Q * np.where(diag < 0.0, -1.0, 1.0), np.abs(diag)


def _dependence_tol(M):
    """Residual r[j] of _householder_qr at or below which column j of M
    counts as dependent: 1e-10 times the largest column norm of M."""
    return _DEPENDENCE_RTOL * np.linalg.norm(M, axis=0).max()


class BasisMatrix:
    """Square non-singular matrix whose columns serve as derivative directions.

    With orthonormal=True the matrix must satisfy ||G^T G - I||_inf <= 1e-12
    (verified at construction).  With orthonormal=None the flag is detected
    against the same tolerance.  Non-orthonormal matrices are accepted as
    long as every column's residual against the columns before it (the
    diagonal of a QR factor) stays above 1e-10 times the largest column norm.
    """

    def __init__(self, columns, orthonormal=None):
        G = np.array(columns, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("basis must be a square matrix")
        if G.shape[0] < 1:
            raise ValueError("basis must be at least 1x1")
        if not np.isfinite(G).all():
            raise ValueError("basis entries must be finite")
        defect = _orthonormality_defect(G)
        if orthonormal is True and defect > _ORTHONORMAL_TOL:
            raise ValueError(
                f"matrix flagged orthonormal but ||G^T G - I||_inf = {defect:.3e}"
            )
        if orthonormal is None:
            orthonormal = defect <= _ORTHONORMAL_TOL
        if not orthonormal:
            _, r = _householder_qr(G)
            dependent = np.flatnonzero(r <= _dependence_tol(G))
            if dependent.size:
                raise IllConditionedBasisError(
                    f"basis column {dependent[0]} is linearly dependent within tolerance"
                )
        G.flags.writeable = False
        self.matrix = G
        self.orthonormal = bool(orthonormal)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    @functools.lru_cache(maxsize=16)
    def identity(cls, n):
        """The n x n identity basis.  Built once per n and shared (it is
        read-only); the 16 most recently used dimensions are kept."""
        return cls(np.eye(n), orthonormal=True)

    @classmethod
    def rotation_2d(cls, angle):
        """Counter-clockwise rotation of the plane by `angle` radians."""
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[c, -s], [s, c]]), orthonormal=True)

    def __repr__(self):
        return f"BasisMatrix(dim={self.dim}, orthonormal={self.orthonormal})"


@dataclass(frozen=True)
class Estimate:
    """Gradient or (symmetrized) Hessian estimate with its evaluation cost."""

    values: np.ndarray
    evals_used: int


def _check_point(f, x):
    if x.shape != (f.dim,):
        raise ValueError(f"expected a point of length {f.dim}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")


def directional_derivative(f, x, u, scheme=FdScheme()):
    """Finite-difference derivative of f at x along the unit vector u."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    _check_point(f, x)
    if u.shape != x.shape:
        raise ValueError("direction must match the dimension of x")
    if abs(np.linalg.norm(u) - 1.0) > _UNIT_NORM_TOL:
        raise ValueError("u must be a unit vector")
    return float(_gradient_along_columns(f, x, u[:, None], scheme)[0])


def _gradient_along_columns(f, x, columns, scheme):
    """Finite-difference gradient of phi -> f(x + columns @ phi) at phi = 0.

    The stencil's points go to f as one batch, written into one matrix:
    row blocks of n points, one per stencil offset (forward differences put
    f(x) in row 0).
    """
    h = scheme.step
    U = columns.T  # row i is the direction columns[:, i]
    n = U.shape[0]
    if scheme.kind == "forward":
        P = np.empty((n + 1, x.size))
        P[0] = x
        np.add(x, h * U, out=P[1:])
        F = f.eval_rows(P)
        return (F[1:] - F[0]) / h
    if scheme.order == 1:
        hU = h * U
        P = np.empty((2 * n, x.size))
        np.add(x, hU, out=P[:n])
        np.subtract(x, hU, out=P[n:])
        plus, minus = f.eval_rows(P).reshape(2, -1)
        return (plus - minus) / (2.0 * h)
    hU, h2U = h * U, 2.0 * h * U
    P = np.empty((4 * n, x.size))
    np.add(x, h2U, out=P[:n])
    np.add(x, hU, out=P[n:2 * n])
    np.subtract(x, hU, out=P[2 * n:3 * n])
    np.subtract(x, h2U, out=P[3 * n:])
    plus2, plus, minus, minus2 = f.eval_rows(P).reshape(4, -1)
    return (-plus2 + 8.0 * plus - 8.0 * minus + minus2) / (12.0 * h)


def gradient_in_basis(f, x, basis, scheme=FdScheme()):
    """Gradient estimate taken along the columns of `basis`.

    The inner estimate differentiates h(phi) = f(x + G phi) at phi = 0 and
    is mapped back to canonical coordinates: for orthonormal G the map is
    the plain product G @ inner (no linear solve); otherwise the dense
    system G^T y = inner is solved.
    """
    x = np.asarray(x, dtype=float)
    _check_point(f, x)
    if basis.dim != f.dim:
        raise ValueError("basis dimension does not match the objective")
    before = f.eval_count
    inner = _gradient_along_columns(f, x, basis.matrix, scheme)
    if basis.orthonormal:
        values = basis.matrix @ inner
    else:
        values = np.linalg.solve(basis.matrix.T, inner)
    return Estimate(values=values, evals_used=f.eval_count - before)


def vanilla_gradient(f, x, scheme=FdScheme()):
    """Gradient estimate along the canonical axes (identity basis)."""
    return gradient_in_basis(f, x, BasisMatrix.identity(f.dim), scheme)


def hessian_in_basis(f, x, basis, scheme=FdScheme()):
    """Hessian estimate taken along the columns of an orthonormal basis.

    The inner Hessian of h(phi) = f(x + G phi) uses central second
    differences with the scheme's step h: diagonal entries from the
    three-point stencil, off-diagonal entries from the four-point cross
    stencil.  The result is mapped back as G H G^T and symmetrized, costing
    2 n^2 + 1 evaluations.  They go to f as one batch, so the points alone
    take (2 n^2 + 1) n floats: 16 MB at n = 100.
    """
    if not basis.orthonormal:
        raise ValueError("hessian_in_basis requires an orthonormal basis")
    x = np.asarray(x, dtype=float)
    _check_point(f, x)
    if basis.dim != f.dim:
        raise ValueError("basis dimension does not match the objective")
    n = basis.dim
    h = scheme.step
    cols = basis.matrix
    S = h * cols.T  # row i is the step along column i
    plus, minus = x + S, x - S
    i, j = np.tril_indices(n, -1)
    before = f.eval_count
    F = f.eval_rows(
        np.vstack([
            x, plus, minus,
            plus[i] + S[j], plus[i] - S[j], minus[i] + S[j], minus[i] - S[j],
        ])
    )
    f0, f_plus, f_minus = F[0], F[1:n + 1], F[n + 1:2 * n + 1]
    pp, pm, mp, mm = F[2 * n + 1:].reshape(4, -1)
    inner = np.diag((f_plus - 2.0 * f0 + f_minus) / (h * h))
    cross = (pp - pm - mp + mm) / (4.0 * h * h)
    inner[i, j] = cross
    inner[j, i] = cross
    transformed = cols @ inner @ cols.T
    values = 0.5 * (transformed + transformed.T)
    return Estimate(values=values, evals_used=f.eval_count - before)
