"""Self-contained BFGS minimizer with a strong-Wolfe line search.

The gradient callback is invoked exactly once per accepted iterate
(including the starting point), never at rejected trial points: the line
search works from function values alone, checking the curvature condition
with one-dimensional central differences along the search ray.  This keeps
stateful gradient callbacks fed with genuine accepted steps.

The line-search constants are fixed at the standard quasi-Newton values
(Nocedal & Wright, *Numerical Optimization*, 2nd ed., section 3.1):
sufficient decrease c1 = 1e-4 and curvature c2 = 0.9, loose enough that
the unit step is usually accepted.  A search doubles its trial step at most
50 times and zooms at most 60 times.  Every run, and every restart from
steepest descent, starts from the identity inverse Hessian.
"""

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
    converged: bool


def line_search(f, x, d, f0, g0):
    """Find a step along d satisfying the strong Wolfe conditions.

    Bracketing with doubling trial steps starting at 1, then a zoom phase
    with safeguarded quadratic interpolation.  The curvature condition is
    checked with central differences of a -> f(x + a d); g0 is the gradient
    at x and gives the slope at a = 0.

    Returns (alpha, f(x + alpha d)).  Raises ValueError when d is not a
    descent direction and LineSearchError when no acceptable step exists
    within the iteration budget.
    """
    d = np.asarray(d, dtype=float)
    dphi0 = float(np.dot(g0, d))
    if dphi0 >= 0.0:
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
        if phi_a > f0 + WOLFE_C1 * alpha * dphi0 or (k > 0 and phi_a >= phi_prev):
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
        and phi_c <= phi0 + WOLFE_C1 * cand * dphi0
        and abs(dphi(cand)) <= -WOLFE_C2 * dphi0
    ):
        return cand, phi_c
    return alpha, phi_a


def _zoom(phi, dphi, a_lo, phi_lo, dphi_lo, a_hi, phi_hi, phi0, dphi0):
    """Shrink a bracketing interval until the strong Wolfe conditions hold.

    a_lo always satisfies the sufficient-decrease condition and carries the
    lowest function value seen; its one-sided derivative feeds a quadratic
    interpolation step, safeguarded to fall back to bisection near the
    interval edges.
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
        if phi_a > phi0 + WOLFE_C1 * a * dphi0 or phi_a >= phi_lo:
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
    converged=False.
    """
    if opts is None:
        opts = BfgsOptions()
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    n = x.size
    fx = f(x)
    g = np.asarray(grad(x), dtype=float)
    trajectory = [x.copy()]
    eye = H = np.eye(n)
    converged = bool(np.max(np.abs(g)) <= opts.grad_tol)
    iterations = 0
    while not converged and iterations < opts.max_iters:
        d = -(H @ g)
        if float(np.dot(g, d)) >= 0.0:
            # rounding broke positive definiteness; restart from steepest descent
            H = eye
            d = -g
        try:
            alpha, f_new = line_search(f, x, d, fx, g)
        except LineSearchError:
            break
        x_new = x + alpha * d
        g_new = np.asarray(grad(x_new), dtype=float)
        trajectory.append(x_new.copy())
        iterations += 1
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > _CURVATURE_RTOL * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            V = eye - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
        x, fx, g = x_new, f_new, g_new
        converged = bool(np.max(np.abs(g)) <= opts.grad_tol)
    return OptimResult(
        x_opt=x,
        f_opt=fx,
        iterations=iterations,
        trajectory=np.array(trajectory),
        converged=converged,
    )
