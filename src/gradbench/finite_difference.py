"""Finite-difference estimation of directional derivatives, gradients and
Hessians, along the canonical axes or the columns of a supplied basis.

All gradient entry points funnel through one stencil routine, so an estimate
taken in the identity basis is bit-for-bit the plain canonical estimate.
"""

from dataclasses import dataclass

import numpy as np

_ORTHONORMAL_TOL = 1e-12
_SINGULAR_RTOL = 1e-10
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
        if not self.step > 0.0:
            raise ValueError("step must be positive")

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
    instance is not shared across concurrent runs.
    """

    def __init__(self, fn, dim):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self._fn = fn
        self.dim = int(dim)
        self.eval_count = 0

    def __call__(self, x):
        self.eval_count += 1
        return float(self._fn(x))


def _orthonormality_defect(G):
    """Infinity norm of G^T G - I (max absolute row sum)."""
    E = G.T @ G - np.eye(G.shape[1])
    return float(np.abs(E).sum(axis=1).max())


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
            tol = _SINGULAR_RTOL * np.linalg.norm(G, axis=0).max()
            dependent = np.flatnonzero(r <= tol)
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
    def identity(cls, n):
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
    """Gradient or (symmetrized) Hessian estimate with its basis and evaluation cost."""

    values: np.ndarray
    basis: BasisMatrix
    evals_used: int


def _stencil_value(f, x, u, scheme, f_base=None):
    """One finite-difference value along the (not necessarily unit) vector u.

    For forward differences f_base may carry a precomputed f(x) so that a
    full gradient shares the single base evaluation.
    """
    h = scheme.step
    if scheme.kind == "forward":
        base = f(x) if f_base is None else f_base
        return (f(x + h * u) - base) / h
    if scheme.order == 1:
        return (f(x + h * u) - f(x - h * u)) / (2.0 * h)
    return (
        -f(x + 2.0 * h * u)
        + 8.0 * f(x + h * u)
        - 8.0 * f(x - h * u)
        + f(x - 2.0 * h * u)
    ) / (12.0 * h)


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
    return _stencil_value(f, x, u, scheme)


def _gradient_along_columns(f, x, columns, scheme):
    """Finite-difference gradient of phi -> f(x + columns @ phi) at phi = 0."""
    n = columns.shape[1]
    values = np.empty(n)
    if scheme.kind == "forward":
        f_base = f(x)
        for i in range(n):
            values[i] = _stencil_value(f, x, columns[:, i], scheme, f_base=f_base)
    else:
        for i in range(n):
            values[i] = _stencil_value(f, x, columns[:, i], scheme)
    return values


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
    return Estimate(values=values, basis=basis, evals_used=f.eval_count - before)


def vanilla_gradient(f, x, scheme=FdScheme()):
    """Gradient estimate along the canonical axes (identity basis)."""
    return gradient_in_basis(f, x, BasisMatrix.identity(f.dim), scheme)


def hessian_in_basis(f, x, basis, scheme=FdScheme()):
    """Hessian estimate taken along the columns of an orthonormal basis.

    The inner Hessian of h(phi) = f(x + G phi) uses central second
    differences with the scheme's step h: diagonal entries from the
    three-point stencil, off-diagonal entries from the four-point cross
    stencil.  The result is mapped back as G H G^T and symmetrized, costing
    2 n^2 + 1 evaluations.
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
    before = f.eval_count
    f0 = f(x)
    inner = np.empty((n, n))
    for i in range(n):
        si = h * cols[:, i]
        inner[i, i] = (f(x + si) - 2.0 * f0 + f(x - si)) / (h * h)
        for j in range(i):
            sj = h * cols[:, j]
            cross = (
                f(x + si + sj) - f(x + si - sj) - f(x - si + sj) + f(x - si - sj)
            ) / (4.0 * h * h)
            inner[i, j] = cross
            inner[j, i] = cross
    transformed = cols @ inner @ cols.T
    values = 0.5 * (transformed + transformed.T)
    return Estimate(values=values, basis=basis, evals_used=f.eval_count - before)
