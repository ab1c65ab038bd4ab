"""Finite-difference estimation of directional derivatives, gradients and
Hessians, along the canonical axes or the columns of a supplied basis.

All gradient entry points funnel through one stencil routine, so an estimate
taken in the identity basis is bit-for-bit the plain canonical estimate.
Each entry checks what it is given once, through _check_point, before any
evaluation: the scheme must be an FdScheme, the objective an ObjectiveFn,
the point a finite vector of the objective's dimension and the basis, if
the entry takes one, a BasisMatrix of that dimension.
Each stencil's points are stacked into one C-contiguous matrix, one point
per row, and evaluated by ObjectiveFn.eval_rows, which hands a batched
objective the rows in blocks.
"""

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

_ORTHONORMAL_TOL = 1e-12
_DEPENDENCE_RTOL = 1e-10
_UNIT_NORM_TOL = 1e-12
_BLOCK_BYTES = 64 * 1024  # see ObjectiveFn.eval_rows
SCHEME_NAMES = ("central1", "central4", "forward1")


def _integer(value, name, least=1):
    """value as an int; ValueError, naming it `name`, unless it is a Python or
    numpy integer >= least, not a bool."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return n


def _number(value, name):
    """value as a float, or inf of its sign if it overflows one; ValueError,
    naming it `name`, unless it is a Python or numpy real number, not a
    bool.  A float, since under numpy 2 a numpy scalar keeps its own dtype
    in arithmetic with Python floats: a float16 step's 2.0 * h is float16."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _wrong_point(dim, shape):
    """The error for a point whose shape is not (dim,), from ObjectiveFn and
    _check_point alike."""
    return ValueError(f"expected a point of shape ({dim},), got shape {shape}")


def _scalar(value):
    """value, an objective's value at one point, as a Python float;
    ValueError, naming its shape, unless it is 0-d.  numpy's own float()
    of a one-element array is deprecated, or an error, by version."""
    shape = np.asarray(value).shape  # np.shape(1.0) raises and catches an error first
    if shape:
        raise ValueError(f"objective returned shape {shape} for one point, not a scalar")
    return float(value)


class IllConditionedBasisError(ValueError):
    """Raised when a basis matrix is singular or numerically close to it."""


@dataclass(frozen=True)
class FdScheme:
    """Finite-difference scheme: a named stencil and its step.

    name is one of SCHEME_NAMES: the two-point central, five-point central
    and two-point forward stencils, in that order.  step is the absolute
    step length h, applied as-is regardless of the scale of x, and is kept
    as a Python float.
    """

    name: str = "central1"
    step: float = 1e-3

    def __post_init__(self):
        if self.name not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme name {self.name!r}")
        step = _number(self.step, "step")
        if not 0.0 < step < math.inf:
            raise ValueError("step must be positive and finite")
        object.__setattr__(self, "step", step)

    @classmethod
    def from_name(cls, name, step=1e-3):
        """FdScheme(name, step); perfbench/workloads.py builds schemes this way."""
        return cls(name, step)


def _check_scheme(scheme):
    """scheme; ValueError unless it is an FdScheme."""
    if not isinstance(scheme, FdScheme):
        raise ValueError(f"scheme must be an FdScheme, got {scheme!r}")
    return scheme


class ObjectiveFn:
    """A scalar objective f: R^n -> R with an evaluation counter.

    The wrapped callable must be pure (deterministic for a fixed input).
    The counter is plain Python state; counts are exact as long as the
    instance is not shared across concurrent runs.  A callable with the
    attribute `batched = True` also accepts an (m, n) array of points and
    returns their m values, in blocks (see eval_rows).  A callable may
    also carry a private line form for _line, as the test functions do.
    """

    def __init__(self, fn, dim):
        self.dim = _integer(dim, "dim")
        self._fn = fn
        self._batched = bool(getattr(fn, "batched", False))
        self.eval_count = 0
        self._shape = (self.dim,)
        self._block_rows = max(1, _BLOCK_BYTES // (8 * self.dim))

    def __call__(self, x):
        """f at the point x, a vector of shape (dim,); counts one evaluation."""
        x = np.asarray(x, float)  # a dtype= keyword costs 0.1 us more per call
        if x.shape != self._shape:
            raise _wrong_point(self.dim, x.shape)
        self.eval_count += 1
        return _scalar(self._fn(x))

    def _line(self, x, d):
        """phi(t) = f(x + t d) as a Python float, for x of shape (dim,),
        checked once here, and d of x's shape, which line_search, the one
        caller, has checked; counts one evaluation per call.  Through the
        callable's _line form if it has one (with f's bits), else f itself."""
        x, d = np.asarray(x, float), np.asarray(d, float)
        if x.shape != self._shape:
            raise _wrong_point(self.dim, x.shape)
        line = getattr(self._fn, "_line", None)
        on_line = line(x, d) if line else lambda t: _scalar(self._fn(x + t * d))

        def phi(t):
            self.eval_count += 1
            return on_line(t)

        return phi

    def eval_rows(self, X):
        """f at each row of the (m, dim) matrix X, as a fresh length-m array.

        Counts m evaluations.  A batched callable gets the rows in
        C-contiguous blocks of consecutive rows, one call per block, each
        block at most _BLOCK_BYTES of points (max(1, _BLOCK_BYTES // (8 *
        dim)) rows).  Small blocks keep the callable's temporaries small
        enough for the allocator to reuse from call to call instead of
        mapping and faulting them in anew.  The values of a matrix that
        fits in one block are a float copy of what the callable returns;
        a larger matrix's blocks are each checked and then written, as
        floats, into their slice of one array allocated up front.  A
        row-wise reduction sums each row in the same order as a lone point,
        so the values equal those of m single calls bit for bit, except
        that a NaN value's sign bit may differ: numpy's add loops do not
        all return the same one of two NaN operands.  Any other callable is
        called row by row.
        """
        X = np.ascontiguousarray(X, float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected an (m, {self.dim}) matrix, got shape {X.shape}")
        if not self._batched:
            return np.array([self(row) for row in X])
        m = X.shape[0]
        rows = self._block_rows
        self.eval_count += m
        if m <= rows:
            return self._eval_block(X)
        values = np.empty(m)
        for s in range(0, m, rows):
            values[s:s + rows] = self._eval_block(X[s:s + rows], np.asarray)
        return values

    def _eval_block(self, X, convert=np.array):
        """The batched callable's values at the rows of X, as a float array
        made by `convert`: a fresh one by default, while np.asarray, for a
        caller that copies them on, may return the callable's own; ValueError
        unless there is one value per row."""
        values = convert(self._fn(X), float)
        if values.shape != (len(X),):
            raise ValueError(f"batched objective returned shape {values.shape} for {len(X)} points")
        return values


def _orthonormality_defect(G):
    """Infinity norm of G^T G - I (max absolute row sum)."""
    E = G.T.dot(G)
    E.reshape(-1)[::E.shape[0] + 1] -= 1.0  # the diagonal, in place
    # .sum(axis=1).max() without the Python wrappers of the two methods
    return float(np.maximum.reduce(np.add.reduce(np.abs(E, out=E), axis=1)))


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
    def identity(cls, n):
        """The n x n identity basis, built once per integer n >= 1 (else
        ValueError) and shared read-only; the 16 most recent n are kept."""
        return cls._identity(_integer(n, "n"))

    @classmethod
    @functools.lru_cache(maxsize=16)
    def _identity(cls, n):  # identity(n) for a checked n
        return cls(np.eye(n))

    @classmethod
    def rotation_2d(cls, angle):
        """Counter-clockwise rotation of the plane by `angle` radians, a
        finite real number taken as a Python float (else ValueError)."""
        angle = _number(angle, "angle")
        if not math.isfinite(angle):
            raise ValueError(f"angle must be finite, got {angle!r}")
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[c, -s], [s, c]]))

    def __repr__(self):
        return f"BasisMatrix(dim={self.dim}, orthonormal={self.orthonormal})"


@dataclass(frozen=True)
class Estimate:
    """Gradient or (symmetrized) Hessian estimate with its evaluation cost."""

    values: np.ndarray
    evals_used: int


def _objective(f):
    """f; ValueError unless it is an ObjectiveFn."""
    if not isinstance(f, ObjectiveFn):
        raise ValueError(f"f must be an ObjectiveFn, got {f!r}")
    return f


_NO_BASIS = object()  # _check_point's default, so that a None basis is refused


def _check_point(f, x, scheme, basis=_NO_BASIS):
    """x as a float array: the one check of what a derivative entry takes.

    ValueError, in this order, unless scheme is an FdScheme, f is an
    ObjectiveFn, x is a finite point of f's dimension and `basis`, when
    given, is a BasisMatrix of that dimension too.  Nothing is evaluated.
    """
    _check_scheme(scheme)
    x = np.asarray(x, float)
    if x.shape != (_objective(f).dim,):
        raise _wrong_point(f.dim, x.shape)
    if not np.logical_and.reduce(np.isfinite(x)):  # .all() without its Python wrapper
        raise ValueError("x must be finite")
    if basis is not _NO_BASIS and not isinstance(basis, BasisMatrix):
        raise ValueError(f"basis must be a BasisMatrix, got {type(basis).__name__}")
    if basis is not _NO_BASIS and basis.dim != f.dim:
        raise ValueError("basis dimension does not match the objective")
    return x


def directional_derivative(f, x, u, scheme=FdScheme()):
    """Finite-difference derivative of f at x along the unit vector u."""
    x = _check_point(f, x, scheme)
    u = np.asarray(u, dtype=float)
    if u.shape != x.shape:
        raise ValueError("direction must match the dimension of x")
    # NaN fails too, and so does inf, an overflowing |u|^2
    if not abs(math.sqrt(np.vdot(u, u)) - 1.0) <= _UNIT_NORM_TOL:
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
        F = f.eval_rows(P)
        return (F[:n] - F[n:]) / (2.0 * h)
    hU, h2U = h * U, 2.0 * h * U  # central4
    P = np.empty((4 * n, x.size))
    np.add(x, h2U, out=P[:n])
    np.add(x, hU, out=P[n:2 * n])
    np.subtract(x, hU, out=P[2 * n:3 * n])
    np.subtract(x, h2U, out=P[3 * n:])
    F = f.eval_rows(P)
    return (-F[:n] + 8.0 * F[n:2 * n] - 8.0 * F[2 * n:3 * n] + F[3 * n:]) / (12.0 * h)


def gradient_in_basis(f, x, basis, scheme=FdScheme()):
    """Gradient estimate taken along the columns of `basis`.

    The inner estimate differentiates h(phi) = f(x + G phi) at phi = 0 and
    is mapped back to canonical coordinates: for orthonormal G the map is
    the plain product G @ inner (no linear solve); otherwise the dense
    system G^T y = inner is solved.
    """
    x = _check_point(f, x, scheme, basis)
    return _gradient_estimate(f, x, basis, scheme)


def _gradient_estimate(f, x, basis, scheme):
    """gradient_in_basis for a caller that has checked its arguments."""
    before = f.eval_count
    values = _to_canonical(basis, _gradient_along_columns(f, x, basis.matrix, scheme))
    return Estimate(values=values, evals_used=f.eval_count - before)


def _to_canonical(basis, inner):
    """The canonical gradient whose derivatives along basis's columns are
    inner: basis.matrix @ inner for an orthonormal basis, else the solution
    y of basis.matrix.T @ y = inner."""
    if basis.orthonormal:
        return basis.matrix.dot(inner)
    return np.linalg.solve(basis.matrix.T, inner)


def vanilla_gradient(f, x, scheme=FdScheme()):
    """Gradient estimate along the canonical axes (identity basis)."""
    return gradient_in_basis(f, x, BasisMatrix._identity(_objective(f).dim), scheme)


@functools.lru_cache(maxsize=16)
def _lower_pairs(n):
    """(i, j, layout) for an n x n matrix: the row and column indices (i, j),
    i > j, of its strict lower triangle, in np.tril_indices order, and the
    (n * n,) layout that sends each entry, row-major, to its place in one
    array of the n diagonal entries followed by the n (n - 1) / 2 pairs'
    entries, so that array.take(layout).reshape(n, n) is the symmetric
    matrix.  Built once per n and shared (read-only); the 16 most recently
    used dimensions are kept, n * n + n * (n - 1) indices each.
    """
    i, j = np.tril_indices(n, -1)
    layout = np.empty((n, n), np.intp)
    np.fill_diagonal(layout, np.arange(n))
    layout[i, j] = layout[j, i] = np.arange(n, n + i.size)
    layout = layout.reshape(-1)
    for index in (i, j, layout):
        index.flags.writeable = False
    return i, j, layout


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
    i, j, _ = _lower_pairs(n)
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
    stencil.  The n diagonal quotients and then the n (n - 1) / 2 cross
    quotients are written into one array, and the inner Hessian is gathered
    from it in one take through _lower_pairs(n)'s layout.  The result is
    mapped back as G H G^T and symmetrized, costing 2 n^2 + 1 evaluations.
    They go to f as one batch, written in place into one (2 n^2 + 1, n)
    matrix: 16 MB at n = 100.  The one temporary beside it, an
    (n (n - 1) / 2, n) gather, is freed before f runs, and f gets the
    points in blocks (see ObjectiveFn.eval_rows): at freudenstein-roth
    n = 100 the traced peak of a call, f's own temporaries included, is
    about 20 MB, 1.27 times the points.
    """
    x = _check_point(f, x, scheme, basis)
    if not basis.orthonormal:
        raise ValueError("hessian_in_basis requires an orthonormal basis")
    n = basis.dim
    h = scheme.step
    cols = basis.matrix
    before = f.eval_count
    F = f.eval_rows(_hessian_points(x, h * cols.T))  # row i of h G^T steps along column i
    f0, f_plus, f_minus = F[0], F[1:n + 1], F[n + 1:2 * n + 1]
    pp, pm, mp, mm = F[2 * n + 1:].reshape(4, -1)
    entries = np.empty(n + pp.size)  # [diagonal | cross], in _lower_pairs order
    np.divide(f_plus - 2.0 * f0 + f_minus, h * h, out=entries[:n])
    np.divide(pp - pm - mp + mm, 4.0 * h * h, out=entries[n:])
    inner = entries.take(_lower_pairs(n)[2]).reshape(n, n)
    transformed = cols.dot(inner).dot(cols.T)
    values = 0.5 * (transformed + transformed.T)
    return Estimate(values=values, evals_used=f.eval_count - before)
