"""Self-contained BFGS minimizer with a strong-Wolfe line search.

The gradient callback is invoked exactly once per accepted iterate
(including the starting point), never at rejected trial points: the line
search works from function values alone, checking the curvature condition
with one-dimensional central differences along the search ray.  This keeps
stateful gradient callbacks fed with genuine accepted steps, and the run
returns what the callback gave at each iterate beside the iterate itself.
Like a trial step, each such difference's two points are evaluated one by
one: given an ObjectiveFn, on the search's ray through ObjectiveFn._line,
where a test function sums them in Python floats (see testbed).

The line-search constants are fixed at the standard quasi-Newton values
(Nocedal & Wright, *Numerical Optimization*, 2nd ed., section 3.1):
sufficient decrease c1 = 1e-4 and curvature c2 = 0.9, loose enough that
the unit step is usually accepted.  A search doubles its trial step at most
50 times and zooms at most 60 times.  Every run, and every restart from
steepest descent, starts from the identity inverse Hessian.
"""

import math
from dataclasses import dataclass

import numpy as np

from .finite_difference import ObjectiveFn, _integer, _number, _scalar

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
_MAX_EXPANSIONS = 50
_MAX_ZOOM_STEPS = 60
_CURVATURE_RTOL = 1e-10
_CURVATURE_FD_STEP = 1e-5


class LineSearchError(RuntimeError):
    """No step satisfying the Wolfe conditions could be found."""


@dataclass(frozen=True)
class BfgsOptions:
    """The run's budget and tolerance, kept as a Python int and float: a
    numpy scalar would compare in its own dtype under numpy 2, so a float16
    grad_tol would let a gradient above it pass."""

    max_iters: int = 200
    grad_tol: float = 1e-6

    def __post_init__(self):
        # an integer, as a dimension is: a float would run the loop to its
        # next integer up, and True as 1
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters"))
        grad_tol = _number(self.grad_tol, "grad_tol")
        if not grad_tol >= 0.0:
            raise ValueError("grad_tol must be a non-negative number")
        object.__setattr__(self, "grad_tol", grad_tol)


@dataclass
class OptimResult:
    """A BFGS run: its last iterate and value, every accepted iterate with
    the gradient the callback gave there, and why it stopped.  iterations
    is read from the trajectory: the accepted steps after the start."""

    x_opt: np.ndarray
    f_opt: float
    trajectory: np.ndarray  # accepted iterates, row 0 is the starting point
    gradients: np.ndarray  # row i is what the gradient callback gave at trajectory[i]
    # why the run stopped: "grad_tol", "max_iters", "non_finite" or
    # "line_search: <message>"
    reason: str

    @property
    def iterations(self):
        return len(self.trajectory) - 1

    @property
    def converged(self):
        return self.reason == "grad_tol"


def line_search(f, x, d, f0, g0):
    """Find a step along d satisfying the strong Wolfe conditions.

    Bracketing with doubling trial steps starting at 1, then a zoom phase
    with safeguarded quadratic interpolation.  The curvature condition is
    checked with central differences of a -> f(x + a d), whose two points
    are evaluated one after the other; g0 is the gradient at x and gives
    the slope at a = 0.  An ObjectiveFn checks x against its dimension
    once and counts each point (see ObjectiveFn._line); any other f is
    called as given at x + a d, once per point, and its value taken as a
    Python float, ValueError unless it is 0-d, as ObjectiveFn does.

    A trial step whose value is not finite (NaN or +-inf) fails the
    sufficient-decrease condition, so the search shrinks the step away
    from it.

    Returns (alpha, f(x + alpha d)).  Raises ValueError, before any
    evaluation, when f0 is not finite, d or g0 has not x's shape, d is not
    a descent direction or the slope d.g0 is not finite (-inf, when it
    overflows), and LineSearchError when no acceptable step exists within
    the iteration budget.
    """
    if not math.isfinite(f0):
        raise ValueError(f"f0 must be finite, got {f0}")
    x, d, g0 = np.asarray(x, float), np.asarray(d, float), np.asarray(g0, float)
    if d.shape != x.shape:
        raise ValueError(f"d must have x's shape {x.shape}, got {d.shape}")
    if g0.shape != x.shape:
        raise ValueError(f"g0 must have x's shape {x.shape}, got {g0.shape}")
    dphi0 = float(np.vdot(d, g0))
    if not -math.inf < dphi0 < 0.0:  # NaN is not a descent slope either
        raise ValueError(_slope_fault(dphi0))
    phi = f._line(x, d) if isinstance(f, ObjectiveFn) else lambda a: _scalar(f(x + a * d))

    def dphi(a):
        step = _CURVATURE_FD_STEP * max(1.0, abs(a))
        return (phi(a + step) - phi(a - step)) / (2.0 * step)

    alpha_prev, phi_prev, dphi_prev = 0.0, f0, dphi0
    alpha = 1.0
    for k in range(_MAX_EXPANSIONS):
        phi_a = phi(alpha)
        if not _decreases(phi_a, alpha, f0, dphi0) or (k > 0 and phi_a >= phi_prev):
            return _zoom(
                phi, dphi, alpha_prev, phi_prev, dphi_prev, alpha, phi_a, f0, dphi0
            )
        dphi_a = dphi(alpha)
        if abs(dphi_a) <= -WOLFE_C2 * dphi0:
            return _refine(phi, dphi, alpha, phi_a, f0, dphi0)
        if dphi_a >= 0.0:
            return _zoom(
                phi, dphi, alpha, phi_a, dphi_a, alpha_prev, phi_prev, f0, dphi0
            )
        alpha_prev, phi_prev, dphi_prev = alpha, phi_a, dphi_a
        alpha *= 2.0
    raise LineSearchError(f"no bracket found after {_MAX_EXPANSIONS} expansions")


def _slope_fault(slope):
    """Why a line search cannot start from the slope d.g, which must be
    negative and finite."""
    if slope < 0.0:
        return f"the slope along d is not finite: {slope}"
    return "d is not a descent direction"


def _decreases(phi_a, a, phi0, dphi0):
    """Sufficient decrease at step a; a non-finite value never passes."""
    return phi_a <= phi0 + WOLFE_C1 * a * dphi0 and math.isfinite(phi_a)


def _refine(phi, dphi, alpha, phi_a, phi0, dphi0):
    """Try to improve an already acceptable step by one quadratic fit.

    The fit through (0, phi0) with slope dphi0 and (alpha, phi_a) has its
    minimizer at the exact 1-D minimizer when the objective is quadratic
    along the ray, which gives BFGS its finite termination on quadratics.
    The refined step is only taken when it lowers the function value and
    itself satisfies the strong Wolfe conditions.
    """
    denom = 2.0 * (phi_a - phi0 - alpha * dphi0)
    if denom <= 0.0:
        return alpha, phi_a
    cand = -dphi0 * alpha * alpha / denom
    if not 0.0 < cand <= 2.0 * alpha or cand == alpha:
        return alpha, phi_a
    phi_c = phi(cand)
    if (
        phi_c < phi_a
        and _decreases(phi_c, cand, phi0, dphi0)
        and abs(dphi(cand)) <= -WOLFE_C2 * dphi0
    ):
        return cand, phi_c
    return alpha, phi_a


def _zoom(phi, dphi, a_lo, phi_lo, dphi_lo, a_hi, phi_hi, phi0, dphi0):
    """Shrink a bracketing interval until the strong Wolfe conditions hold.

    a_lo always satisfies the sufficient-decrease condition and carries the
    lowest function value seen; its one-sided derivative feeds a quadratic
    interpolation step, safeguarded to fall back to bisection near the
    interval edges.  When phi_hi or dphi_lo is not finite, the candidate is
    a_lo itself, infinite or NaN, never inside the safeguard window, so the
    zoom bisects.

    The bisection fallback is part of the specification, not a detail of
    it.  Clamping the interpolated step into the safeguard window instead
    halves the zoom's trial values (39,419 to 18,804 over one race-hi
    benchmark pass, seed 21), but the iterates it accepts change the
    accuracy record: the criterion-8 ratio (chained n=10, five-point
    stencil) falls to 0.546, outside its band [0.8, 1.25].
    """
    for _ in range(_MAX_ZOOM_STEPS):
        width = a_hi - a_lo
        a = None
        curvature = (phi_hi - phi_lo - dphi_lo * width) / (width * width)
        if curvature > 0.0:
            candidate = a_lo - dphi_lo / (2.0 * curvature)
            lo, hi = (a_lo, a_hi) if a_lo < a_hi else (a_hi, a_lo)
            margin = 0.1 * abs(width)
            if lo + margin <= candidate <= hi - margin:
                a = candidate
        if a is None:
            a = a_lo + 0.5 * width
        phi_a = phi(a)
        if not _decreases(phi_a, a, phi0, dphi0) or phi_a >= phi_lo:
            a_hi, phi_hi = a, phi_a
        else:
            dphi_a = dphi(a)
            if abs(dphi_a) <= -WOLFE_C2 * dphi0:
                return a, phi_a
            if dphi_a * (a_hi - a_lo) >= 0.0:
                a_hi, phi_hi = a_lo, phi_lo
            a_lo, phi_lo, dphi_lo = a, phi_a, dphi_a
        if abs(a_hi - a_lo) <= 1e-14 * max(1.0, abs(a_lo)):
            raise LineSearchError("zoom interval collapsed")
    raise LineSearchError("zoom failed to satisfy the Wolfe conditions")


def bfgs_minimize(f, grad, x0, opts=None):
    """Minimize f from x0 with BFGS, gradients supplied by `grad`.

    The inverse-Hessian update is skipped whenever the curvature product
    s.y fails to clear 1e-10 * |s| * |y|, which keeps the approximation
    positive definite under noisy finite-difference gradients.  A failed
    line search terminates the run with the best iterate so far and
    converged=False; so does a value or gradient that is not finite at an
    accepted iterate, the start included (reason "non_finite"), and a
    gradient so small that even steepest descent has no negative slope, or
    so large that its slope overflows to -inf.
    `reason` records which test stopped the run.  A gradient whose shape is
    not x0's raises ValueError, and so does, before any evaluation, an opts
    that is neither None nor a BfgsOptions.  f's value is taken as a Python
    float at every point, ValueError unless it is 0-d, as ObjectiveFn does,
    so f_opt is a float.  Each accepted iterate is one trajectory row; the
    run's iterations are counted from it.
    """
    if opts is None:
        opts = BfgsOptions()
    elif not isinstance(opts, BfgsOptions):
        raise ValueError(f"opts must be a BfgsOptions or None, got {opts!r}")
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"x0 must be a non-empty vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    fx = _scalar(f(x))
    g = _gradient(grad, x)
    trajectory = [x]
    gradients = [g]
    eye = H = np.eye(x.size)
    reason = _stop_reason(fx, g, opts.grad_tol)
    while reason is None and len(trajectory) <= opts.max_iters:
        d = -H.dot(g)
        if not -math.inf < float(np.vdot(g, d)) < 0.0:
            # rounding broke positive definiteness, or the slope overflowed;
            # restart from steepest descent
            H = eye
            d = -g
            slope = float(np.vdot(g, d))
            if not -math.inf < slope < 0.0:
                # g.g underflowed to 0 or overflowed: no slope to search along
                reason = f"line_search: {_slope_fault(slope)}"
                break
        try:
            alpha, f_new = line_search(f, x, d, fx, g)
        except LineSearchError as exc:
            reason = f"line_search: {exc}"
            break
        x_new = x + alpha * d
        g_new = _gradient(grad, x_new)
        trajectory.append(x_new)
        gradients.append(g_new)
        reason = _stop_reason(f_new, g_new, opts.grad_tol)
        if reason is None:
            s = x_new - x
            y = g_new - g
            sy = float(s.dot(y))
            if sy > _CURVATURE_RTOL * math.sqrt(s.dot(s)) * math.sqrt(y.dot(y)):
                rho = 1.0 / sy
                V = eye - rho * (s[:, None] * y)
                H = V.dot(H).dot(V.T) + rho * (s[:, None] * s)
        x, fx, g = x_new, f_new, g_new
    return OptimResult(
        x_opt=x,
        f_opt=fx,
        trajectory=np.array(trajectory),
        gradients=np.array(gradients),
        reason=reason or "max_iters",
    )


def _gradient(grad, x):
    """A copy of grad(x) as floats, so that a callback that returns one
    buffer it overwrites still gives each iterate its own gradient;
    ValueError unless it has x's shape."""
    g = np.array(grad(x), float)
    if g.shape != x.shape:
        raise ValueError(f"grad returned shape {g.shape}, expected x0's shape {x.shape}")
    return g


def _stop_reason(fx, g, grad_tol):
    """Why the run must stop at an iterate with value fx and gradient g:
    "non_finite", "grad_tol", or None to go on."""
    g_max = float(np.maximum.reduce(np.abs(g)))  # g.max() without its Python wrapper
    if not (math.isfinite(fx) and math.isfinite(g_max)):
        return "non_finite"
    return "grad_tol" if g_max <= grad_tol else None
