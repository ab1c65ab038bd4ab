"""Self-contained BFGS minimizer with a strong-Wolfe line search.

The gradient callback is invoked exactly once per accepted iterate
(including the starting point), never at rejected trial points: the line
search works from function values alone, checking the curvature condition
with one-dimensional central differences along the search ray.  This keeps
stateful gradient callbacks fed with genuine accepted steps.  The two
points of each such difference go to the objective as two lone points,
like a trial step: a test-function family sums a lone point in Python
floats, which costs less than a batch of two in numpy.

The line-search constants are fixed at the standard quasi-Newton values
(Nocedal & Wright, *Numerical Optimization*, 2nd ed., section 3.1):
sufficient decrease c1 = 1e-4 and curvature c2 = 0.9, loose enough that
the unit step is usually accepted.  A search doubles its trial step at most
50 times and zooms at most 60 times.  Every run, and every restart from
steepest descent, starts from the identity inverse Hessian.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
_MAX_EXPANSIONS = 50
_MAX_ZOOM_STEPS = 60
_CURVATURE_RTOL = 1e-10
_CURVATURE_FD_STEP = 1e-5


class LineSearchError(RuntimeError):
    """No step satisfying the Wolfe conditions could be found."""


@dataclass
class BfgsOptions:
    max_iters: int = 200
    grad_tol: float = 1e-6

    def __post_init__(self):
        # an integer as finite_difference._positive_int takes a dimension:
        # the loop would run a float's next integer up, and True as 1
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_tol >= 0.0:
            raise ValueError("grad_tol must be a non-negative number")


@dataclass
class OptimResult:
    x_opt: np.ndarray
    f_opt: float
    iterations: int
    trajectory: np.ndarray  # accepted iterates, row 0 is the starting point
    # why the run stopped: "grad_tol", "max_iters", "non_finite" or
    # "line_search: <message>"
    reason: str

    @property
    def converged(self):
        return self.reason == "grad_tol"


def line_search(f, x, d, f0, g0):
    """Find a step along d satisfying the strong Wolfe conditions.

    Bracketing with doubling trial steps starting at 1, then a zoom phase
    with safeguarded quadratic interpolation.  The curvature condition is
    checked with central differences of a -> f(x + a d), whose two points
    are evaluated one after the other; g0 is the gradient at x and gives
    the slope at a = 0.  f is called as given, once per point: pass an
    ObjectiveFn to have the points checked and counted.

    A trial step whose value is not finite (NaN or +-inf) fails the
    sufficient-decrease condition, so the search shrinks the step away
    from it.

    Returns (alpha, f(x + alpha d)).  Raises ValueError when d is not a
    descent direction and LineSearchError when no acceptable step exists
    within the iteration budget.
    """
    d = np.asarray(d, dtype=float)
    dphi0 = float(np.dot(g0, d))
    if not dphi0 < 0.0:  # NaN is not a descent slope either
        raise ValueError("d is not a descent direction")

    def phi(a):
        return f(x + a * d)

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
    accepted iterate, the start included (reason "non_finite").  `reason`
    records which test stopped the run.
    """
    if opts is None:
        opts = BfgsOptions()
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"x0 must be a non-empty vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    n = x.size
    fx = f(x)
    g = np.asarray(grad(x), dtype=float)
    trajectory = [x.copy()]
    eye = H = np.eye(n)
    iterations = 0
    reason = _stop_reason(fx, g, opts.grad_tol)
    while reason is None and iterations < opts.max_iters:
        d = -(H @ g)
        if float(np.dot(g, d)) >= 0.0:
            # rounding broke positive definiteness; restart from steepest descent
            H = eye
            d = -g
        try:
            alpha, f_new = line_search(f, x, d, fx, g)
        except LineSearchError as exc:
            reason = f"line_search: {exc}"
            break
        x_new = x + alpha * d
        g_new = np.asarray(grad(x_new), dtype=float)
        trajectory.append(x_new.copy())
        iterations += 1
        reason = _stop_reason(f_new, g_new, opts.grad_tol)
        if reason is None:
            s = x_new - x
            y = g_new - g
            sy = float(np.dot(s, y))
            if sy > _CURVATURE_RTOL * math.sqrt(s @ s) * math.sqrt(y @ y):
                rho = 1.0 / sy
                V = eye - rho * (s[:, None] * y)
                H = V @ H @ V.T + rho * (s[:, None] * s)
        x, fx, g = x_new, f_new, g_new
    return OptimResult(
        x_opt=x,
        f_opt=fx,
        iterations=iterations,
        trajectory=np.array(trajectory),
        reason=reason or "max_iters",
    )


def _stop_reason(fx, g, grad_tol):
    """Why the run must stop at an iterate with value fx and gradient g:
    "non_finite", "grad_tol", or None to go on."""
    g_max = float(np.abs(g).max())
    if not (math.isfinite(fx) and math.isfinite(g_max)):
        return "non_finite"
    return "grad_tol" if g_max <= grad_tol else None
