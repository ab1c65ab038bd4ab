"""Finite-difference estimation of directional derivatives, gradients and
Hessians, along the canonical axes or the columns of a supplied basis.

All gradient entry points funnel through one stencil routine, so an estimate
taken in the identity basis is bit-for-bit the plain canonical estimate.
Each stencil's points are stacked into one C-contiguous matrix, one point
per row, and evaluated by ObjectiveFn.eval_rows, which hands a batched
objective the rows in blocks.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

_ORTHONORMAL_TOL = 1e-12
_DEPENDENCE_RTOL = 1e-10
_UNIT_NORM_TOL = 1e-12
_BLOCK_BYTES = 64 * 1024  # see ObjectiveFn.eval_rows
SCHEME_NAMES = ("central1", "central4", "forward1")


def _positive_int(value, name):
    """value as an int; ValueError, naming it `name`, unless it is a Python or
    numpy integer >= 1, not a bool."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return n


class IllConditionedBasisError(ValueError):
    """Raised when a basis matrix is singular or numerically close to it."""


@dataclass(frozen=True)
class FdScheme:
    """Finite-difference scheme: a named stencil and its step.

    name is one of SCHEME_NAMES: the two-point central, five-point central
    and two-point forward stencils, in that order.  step is the absolute
    step length h, applied as-is regardless of the scale of x.
    """

    name: str = "central1"
    step: float = 1e-3

    def __post_init__(self):
        if self.name not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme name {self.name!r}")
        if not 0.0 < self.step < np.inf:
            raise ValueError("step must be positive and finite")

    @classmethod
    def from_name(cls, name, step=1e-3):
        """FdScheme(name, step); perfbench/workloads.py builds schemes this way."""
        return cls(name, step)


class ObjectiveFn:
    """A scalar objective f: R^n -> R with an evaluation counter.

    The wrapped callable must be pure (deterministic for a fixed input).
    The counter is plain Python state; counts are exact as long as the
    instance is not shared across concurrent runs.  A callable with the
    attribute `batched = True` also accepts an (m, n) array of points and
    returns their m values, in blocks (see eval_rows).
    """

    def __init__(self, fn, dim):
        self.dim = _positive_int(dim, "dim")
        self._fn = fn
        self._batched = bool(getattr(fn, "batched", False))
        self.eval_count = 0
        self._shape = (self.dim,)
        self._block_rows = max(1, _BLOCK_BYTES // (8 * self.dim))

    def __call__(self, x):
        """f at the point x, a vector of shape (dim,); counts one evaluation."""
        x = np.asarray(x, float)  # a dtype= keyword costs 0.1 us more per call
        if x.shape != self._shape:
            raise ValueError(f"expected a point of shape ({self.dim},), got shape {x.shape}")
        self.eval_count += 1
        return float(self._fn(x))

    def eval_rows(self, X):
        """f at each row of the (m, dim) matrix X, as a length-m array.

        Counts m evaluations.  A batched callable gets the rows in
        C-contiguous blocks of consecutive rows, one call per block, each
        block at most _BLOCK_BYTES of points (max(1, _BLOCK_BYTES // (8 *
        dim)) rows).  Small blocks keep the callable's temporaries small
        enough for the allocator to reuse from call to call instead of
        mapping and faulting them in anew.  A row-wise reduction sums each
        row in the same order as a lone point, so the values equal those of
        m single calls bit for bit, except that a NaN value's sign bit may
        differ: numpy's add loops do not all return the same one of two NaN
        operands.  Any other callable is called row by row.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected an (m, {self.dim}) matrix, got shape {X.shape}")
        if not self._batched:
            return np.array([self(row) for row in X])
        m = X.shape[0]
        self.eval_count += m
        values = np.empty(m)
        for start in range(0, m, self._block_rows):
            block = X[start:start + self._block_rows]
            block_values = np.asarray(self._fn(block), dtype=float)
            if block_values.shape != (len(block),):
                raise ValueError(
                    f"batched objective returned shape {block_values.shape} for {len(block)} points"
                )
            values[start:start + len(block)] = block_values
        return values


def _orthonormality_defect(G):
    """Infinity norm of G^T G - I (max absolute row sum)."""
    E = G.T @ G
    E.reshape(-1)[::E.shape[0] + 1] -= 1.0  # the diagonal, in place
    return float(np.abs(E, out=E).sum(axis=1).max())


def _square_matrix(matrix):
    """matrix as a fresh float array and its largest absolute entry, which is
    NaN or inf exactly when an entry is; ValueError unless the matrix is
    square, at least 1x1 and finite."""
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if M.shape[0] < 1:
        raise ValueError("matrix must be at least 1x1")
    largest = float(np.abs(M).max())
    if not largest < math.inf:
        raise ValueError("matrix entries must be finite")
    return M, largest


def _householder_q(M):
    """Q of the Householder QR of a square finite matrix M, with diag(R) >= 0.

    Column j of Q is the normalized component of M's column j orthogonal to
    the columns before it, so Q[:, 0] = M[:, 0] / |M[:, 0]|.  Raises
    IllConditionedBasisError, naming the first such column, when a
    component's norm |R[j, j]| is at or below 1e-10 times the largest
    column norm of M.  When that norm overflows, or is below 2^-500, where
    the squares it sums lose bits to underflow and a tolerance of 0 would
    pass any residual, M is first scaled by the power of two that brings
    max |M| into [0.5, 1): the scaling is exact and leaves Q and every
    comparison as they are in exact arithmetic.  Any other matrix is
    factored as it stands.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(M, axis=0).max()
    if not 2.0 ** -500 <= norm < math.inf:
        M = M * 2.0 ** -math.frexp(np.abs(M).max())[1]
        norm = np.linalg.norm(M, axis=0).max()
    Q, R = np.linalg.qr(M)
    diag = np.diag(R)
    dependent = np.flatnonzero(np.abs(diag) <= _DEPENDENCE_RTOL * norm)
    if dependent.size:
        raise IllConditionedBasisError(
            f"basis column {dependent[0]} is linearly dependent within tolerance"
        )
    return Q * np.where(diag < 0.0, -1.0, 1.0)


class BasisMatrix:
    """Square non-singular matrix whose columns serve as derivative directions.

    .orthonormal is measured: True when ||G^T G - I||_inf <= 1e-12.  An
    orthonormal G has max |G| <= 1, so a matrix with max |G| > 2 is not
    measured (its G^T G could overflow); that one max-abs is also the
    finiteness check, since it is NaN or inf exactly when an entry is.  Any
    other matrix is accepted as long as every column's residual against the
    columns before it (the diagonal of a QR factor) stays above 1e-10 times
    the largest column norm.  BasisMatrix(...) copies its argument and
    checks all of this.  A basis the library builds itself and promises
    orthonormal (mgs_orthonormalize, DirectionHistory.update) is adopted
    by _adopt instead: not copied, measured once, and refused with
    ValueError when it does not measure orthonormal.
    """

    def __init__(self, columns):
        G, largest = _square_matrix(columns)
        self.orthonormal = largest <= 2.0 and _orthonormality_defect(G) <= _ORTHONORMAL_TOL
        if not self.orthonormal:
            _householder_q(G)  # raises on a dependent column
        G.flags.writeable = False
        self.matrix = G

    @classmethod
    def _adopt(cls, G):
        """The orthonormal basis G, a fresh array the library has just built.

        G becomes the basis's read-only matrix without a copy.  Its defect
        is the one check: it is NaN or inf when an entry is not finite.
        ValueError unless it measures orthonormal.
        """
        defect = _orthonormality_defect(G)
        if not defect <= _ORTHONORMAL_TOL:
            raise ValueError(f"basis is not orthonormal: ||G^T G - I||_inf = {defect:.3e}")
        basis = cls.__new__(cls)
        G.flags.writeable = False
        basis.matrix = G
        basis.orthonormal = True
        return basis

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    @functools.lru_cache(maxsize=16)
    def identity(cls, n):
        """The n x n identity basis.  Built once per n and shared (it is
        read-only); the 16 most recently used dimensions are kept."""
        return cls(np.eye(n))

    @classmethod
    def rotation_2d(cls, angle):
        """Counter-clockwise rotation of the plane by `angle` radians."""
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[c, -s], [s, c]]))

    def __repr__(self):
        return f"BasisMatrix(dim={self.dim}, orthonormal={self.orthonormal})"


@dataclass(frozen=True)
class Estimate:
    """Gradient or (symmetrized) Hessian estimate with its evaluation cost."""

    values: np.ndarray
    evals_used: int


def _check_point(f, x, basis=None):
    """x as a float array; ValueError unless it is a finite point of f's
    dimension and `basis`, when given, has that dimension too."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim,):
        raise ValueError(f"expected a point of length {f.dim}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if basis is not None and basis.dim != f.dim:
        raise ValueError("basis dimension does not match the objective")
    return x


def directional_derivative(f, x, u, scheme=FdScheme()):
    """Finite-difference derivative of f at x along the unit vector u."""
    x = _check_point(f, x)
    u = np.asarray(u, dtype=float)
    if u.shape != x.shape:
        raise ValueError("direction must match the dimension of x")
    if not abs(np.linalg.norm(u) - 1.0) <= _UNIT_NORM_TOL:  # NaN fails too
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
    if scheme.name == "forward1":
        P = np.empty((n + 1, x.size))
        P[0] = x
        np.add(x, h * U, out=P[1:])
        F = f.eval_rows(P)
        return (F[1:] - F[0]) / h
    if scheme.name == "central1":
        hU = h * U
        P = np.empty((2 * n, x.size))
        np.add(x, hU, out=P[:n])
        np.subtract(x, hU, out=P[n:])
        plus, minus = f.eval_rows(P).reshape(2, -1)
        return (plus - minus) / (2.0 * h)
    hU, h2U = h * U, 2.0 * h * U  # central4
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
    x = _check_point(f, x, basis)
    return _gradient_estimate(f, x, basis, scheme)


def _gradient_estimate(f, x, basis, scheme):
    """gradient_in_basis for a caller that has checked x and basis.dim."""
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


@functools.lru_cache(maxsize=16)
def _lower_pairs(n):
    """Row and column indices (i, j), i > j, of the strict lower triangle of
    an n x n matrix, in np.tril_indices order.  Built once per n and shared
    (read-only); the 16 most recently used dimensions are kept."""
    pairs = np.tril_indices(n, -1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _hessian_points(x, S):
    """The 2 n^2 + 1 points of hessian_in_basis's stencils, one per row of a
    C-contiguous matrix: x, the n rows x + S, the n rows x - S, then over the
    pairs (i, j) of _lower_pairs(n) the blocks (x + S[i]) + S[j],
    (x + S[i]) - S[j], (x - S[i]) + S[j] and (x - S[i]) - S[j].

    Each cross block is gathered straight into its own rows and stepped in
    place, so the one temporary beside the matrix is the gather S[j], which
    is freed when this returns.
    """
    n = S.shape[0]
    i, j = _lower_pairs(n)
    P = np.empty((2 * n * n + 1, n))
    P[0] = x
    plus, minus = P[1:n + 1], P[n + 1:2 * n + 1]
    np.add(x, S, out=plus)
    np.subtract(x, S, out=minus)
    Sj = S[j]
    blocks = P[2 * n + 1:].reshape(4, i.size, n)
    for block, rows, step in zip(blocks, (plus, plus, minus, minus), (np.add, np.subtract) * 2):
        # mode="clip" lets take write into `out` without a buffer; every
        # index is in range, so nothing is clipped
        rows.take(i, axis=0, out=block, mode="clip")
        step(block, Sj, out=block)
    return P


def hessian_in_basis(f, x, basis, scheme=FdScheme()):
    """Hessian estimate taken along the columns of an orthonormal basis.

    The inner Hessian of h(phi) = f(x + G phi) uses central second
    differences with the scheme's step h: diagonal entries from the
    three-point stencil, off-diagonal entries from the four-point cross
    stencil.  The result is mapped back as G H G^T and symmetrized, costing
    2 n^2 + 1 evaluations.  They go to f as one batch, written in place into
    one (2 n^2 + 1, n) matrix: 16 MB at n = 100.  The one temporary beside
    it, an (n (n - 1) / 2, n) gather, is freed before f runs, and f gets
    the points in blocks (see ObjectiveFn.eval_rows): at freudenstein-roth
    n = 100 the traced peak of a call, f's own temporaries included, is
    about 20 MB, 1.27 times the points.
    """
    if not basis.orthonormal:
        raise ValueError("hessian_in_basis requires an orthonormal basis")
    x = _check_point(f, x, basis)
    n = basis.dim
    h = scheme.step
    cols = basis.matrix
    before = f.eval_count
    F = f.eval_rows(_hessian_points(x, h * cols.T))  # row i of h G^T steps along column i
    f0, f_plus, f_minus = F[0], F[1:n + 1], F[n + 1:2 * n + 1]
    pp, pm, mp, mm = F[2 * n + 1:].reshape(4, -1)
    inner = np.diag((f_plus - 2.0 * f0 + f_minus) / (h * h))
    cross = (pp - pm - mp + mm) / (4.0 * h * h)
    i, j = _lower_pairs(n)
    inner[i, j] = cross
    inner[j, i] = cross
    transformed = cols @ inner @ cols.T
    values = 0.5 * (transformed + transformed.T)
    return Estimate(values=values, evals_used=f.eval_count - before)
