"""Analytic benchmark functions, their gradients, and the error metric.

A family is one row of _families() (name, objective, analytic gradient,
dimension rule, repeating unit of the optimum) plus its objective and
gradient, which apply the rule to their input's last axis.  The objectives
are batched: each takes points along its trailing axis, input (..., n) and
output (...), and is marked `batched = True` for ObjectiveFn.eval_rows.
Their analytic gradients are batched the same way, input (..., n) and
output (..., n), and grad_mse reduces over the trailing axis.  A row of a
C-contiguous batch has the bits of that point evaluated alone.  The
Rosenbrock families sum one banana term, 100 (b - a^2)^2 + (1 - a)^2, over
pairs of coordinates (More, Garbow & Hillstrom, *ACM TOMS* 7 (1981) 17-41)
and differ only in the pairing (_rosenbrock); rosenbrock2d is
rosenbrock-pairwise at n = 2.

An array goes through an in-place kernel.  It copies the coordinate slices
its formula uses into term-major C-contiguous arrays, (..., k) -> (k, ...),
applies the formula's operations one at a time into those buffers, in the
formula's order, and adds each point's k terms in coordinate order,
(t[0] + t[1]) + t[2] + ..., so that a batch adds whole rows of terms at a
time (_sum_terms).  Recursive summation is within (k - 1) u sum |t_i| of
the exact sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., section 4.2), far below the truncation error of the stencils that
use these values.  The kernels never write into their argument.

Every family sums a finite lone point (a 1-D argument) in Python floats:
the kernel's operations in its order, the terms added first to last, so
the value has the bits of a batch row.  The running sum starts at 0.0,
which adds exactly: each term is a sum of two squares, so never -0.0.
Each numpy ufunc call costs about a microsecond of dispatch, more than a
lone point's arithmetic, and the BFGS line search sends its trial steps
and curvature probes as lone points.  A point whose value is not finite
goes on to the kernel, so it keeps numpy's RuntimeWarnings and
np.errstate; its value and its batch row's are NaN together but may
differ in sign, as numpy's add loops do not all return the same one of
two NaN operands.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .finite_difference import _positive_int


def _dim_two(n, name):
    if n != 2:
        raise ValueError(f"{name} requires dimension 2, got {n}")


def _dim_min_two(n, name):
    if n < 2:
        raise ValueError(f"{name} requires dimension >= 2, got {n}")


def _dim_even(n, name):
    if n % 2 != 0 or n < 2:
        raise ValueError(f"{name} requires an even dimension >= 2, got {n}")


def _term_major(s):
    """A C-contiguous copy of s with its trailing (coordinate) axis first.

    Always a copy, even of a slice that is already contiguous: the kernels
    write into it.
    """
    return (s.T if s.ndim <= 2 else np.moveaxis(s, -1, 0)).copy()


def _sum_terms(t):
    """Add the terms along the leading axis in coordinate order.

    Gives ((t[0] + t[1]) + t[2]) + ... for every point.  A reduce over the
    leading axis of a C-contiguous batch adds whole rows one after another;
    for one point, numpy would sum the k contiguous terms pairwise instead,
    so that goes through accumulate, which is sequential by definition.
    One point here is a (1, n) batch or a lone point whose value is not
    finite; a finite lone point never gets here (see the module docstring).
    """
    if t.size == t.shape[0]:
        return np.add.accumulate(t, axis=0)[-1]
    return np.add.reduce(t, axis=0)


def _rosenbrock(x, step):
    """The sum of banana terms 100 (b - a^2)^2 + (1 - a)^2 over the pairs
    (a, b) = (x[i], x[i + 1]), i = 0, step, 2 step, ... of x's last axis:
    (x0, x1), (x2, x3), ... at step 2, (x0, x1), (x1, x2), ... at step 1.
    x is a float array whose last axis the caller has checked."""
    if x.ndim == 1:
        v = x.tolist()
        total = 0.0
        for a, b in zip(v[::step], v[1::step]):
            t = b - a * a
            u = 1.0 - a
            total += t * t * 100.0 + u * u
        if math.isfinite(total):
            return np.float64(total)
    if step == 1:
        # a and b overlap in one copy: b is read before a is written
        xt = _term_major(x)
        a, b = xt[:-1], xt[1:]
    else:
        a, b = _term_major(x[..., 0::2]), _term_major(x[..., 1::2])
    t = np.square(a)
    np.subtract(b, t, out=t)
    np.square(t, out=t)
    t *= 100.0
    np.subtract(1.0, a, out=a)
    np.square(a, out=a)
    t += a
    return _sum_terms(t)


def _rosenbrock_grad(x, step):
    """The gradient of _rosenbrock(x, step): each pair's two partial
    derivatives, added up where pairs share a coordinate (step 1)."""
    a, b = x[..., :-1:step], x[..., 1::step]
    t = b - a * a
    da, db = -400.0 * a * t - 2.0 * (1.0 - a), 200.0 * t
    if step == 1:
        g = np.zeros_like(x)
        g[..., :-1] += da
        g[..., 1:] += db
    else:
        g = np.empty_like(x)
        g[..., 0::2] = da
        g[..., 1::2] = db
    return g


def rosenbrock2d(x):
    """Banana-valley function on R^2, rosenbrock-pairwise at n = 2; minimum 0 at (1, 1)."""
    x = np.asarray(x, float)
    _dim_two(x.shape[-1], "rosenbrock2d")
    return _rosenbrock(x, 2)


rosenbrock2d.batched = True


def rosenbrock2d_grad(x):
    x = np.asarray(x, float)
    _dim_two(x.shape[-1], "rosenbrock2d")
    return _rosenbrock_grad(x, 2)


rosenbrock2d_grad.batched = True


def rosenbrock_pairwise(x):
    """Sum of independent two-variable banana terms; even dimension only."""
    x = np.asarray(x, float)
    _dim_even(x.shape[-1], "rosenbrock-pairwise")
    return _rosenbrock(x, 2)


rosenbrock_pairwise.batched = True


def rosenbrock_pairwise_grad(x):
    x = np.asarray(x, float)
    _dim_even(x.shape[-1], "rosenbrock-pairwise")
    return _rosenbrock_grad(x, 2)


rosenbrock_pairwise_grad.batched = True


def rosenbrock_chained(x):
    """Banana chain coupling consecutive coordinates; any dimension >= 2."""
    x = np.asarray(x, float)
    _dim_min_two(x.shape[-1], "rosenbrock-chained")
    return _rosenbrock(x, 1)


rosenbrock_chained.batched = True


def rosenbrock_chained_grad(x):
    x = np.asarray(x, float)
    _dim_min_two(x.shape[-1], "rosenbrock-chained")
    return _rosenbrock_grad(x, 1)


rosenbrock_chained_grad.batched = True


def freudenstein_roth(x):
    """Paired squared-residual sums; minimum 0 at (5, 4, 5, 4, ...)."""
    x = np.asarray(x, float)
    _dim_even(x.shape[-1], "freudenstein-roth")
    # sum of (-13 + a + b (b (5 - b) - 2))^2 + (-29 + a + b (b (b + 1) - 14))^2
    if x.ndim == 1:
        v = x.tolist()
        total = 0.0
        for a, b in zip(v[0::2], v[1::2]):
            r1 = -13.0 + a + ((5.0 - b) * b - 2.0) * b
            r2 = -29.0 + a + ((b + 1.0) * b - 14.0) * b
            total += r1 * r1 + r2 * r2
        if math.isfinite(total):
            return np.float64(total)
    a, b = _term_major(x[..., 0::2]), _term_major(x[..., 1::2])
    t = np.subtract(5.0, b)
    t *= b
    t -= 2.0
    t *= b
    r1 = np.add(-13.0, a)
    r1 += t
    np.add(b, 1.0, out=t)
    t *= b
    t -= 14.0
    t *= b
    r2 = np.add(-29.0, a, out=a)
    r2 += t
    np.square(r1, out=r1)
    np.square(r2, out=r2)
    r1 += r2
    return _sum_terms(r1)


freudenstein_roth.batched = True


def freudenstein_roth_grad(x):
    x = np.asarray(x, dtype=float)
    _dim_even(x.shape[-1], "freudenstein-roth")
    a, b = x[..., 0::2], x[..., 1::2]
    r1 = -13.0 + a + b * (b * (5.0 - b) - 2.0)
    r2 = -29.0 + a + b * (b * (b + 1.0) - 14.0)
    g = np.empty_like(x)
    g[..., 0::2] = 2.0 * (r1 + r2)
    g[..., 1::2] = 2.0 * r1 * (10.0 * b - 3.0 * b * b - 2.0) + 2.0 * r2 * (
        3.0 * b * b + 2.0 * b - 14.0
    )
    return g


freudenstein_roth_grad.batched = True


def grad_mse(estimate, exact):
    """Mean squared componentwise difference between gradient vectors.

    Reduces over the trailing axis: two vectors give a float, two (..., n)
    stacks an array of shape (...).  For C-contiguous stacks each entry has
    the same bits as the call on that pair of rows alone.
    """
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(exact, dtype=float)
    if e.shape != t.shape:
        raise ValueError("gradient vectors must have equal shapes")
    diff = e - t
    mse = (diff * diff).mean(axis=-1)
    return float(mse) if mse.ndim == 0 else mse


@dataclass(frozen=True)
class TestFunction:
    """A named objective with analytic gradient and optional known optimum."""

    __test__ = False  # not a pytest collection target

    name: str
    dim: int
    fn: Callable
    grad: Callable
    optimum: Optional[np.ndarray] = None


def _families():
    """The family rows, built per call from the module's current functions
    so that one rebound on the module (a tracer wraps them) is handed out."""
    return {
        "rosenbrock2d": (rosenbrock2d, rosenbrock2d_grad, _dim_two, (1.0,)),
        "rosenbrock-pairwise": (rosenbrock_pairwise, rosenbrock_pairwise_grad, _dim_even, (1.0,)),
        "rosenbrock-chained": (rosenbrock_chained, rosenbrock_chained_grad, _dim_min_two, (1.0,)),
        "freudenstein-roth": (freudenstein_roth, freudenstein_roth_grad, _dim_even, (5.0, 4.0)),
    }


FUNCTION_NAMES = tuple(_families())


def get_test_function(name, dim):
    """Build the named test function at the requested dimension; ValueError
    for an unknown name or a dimension the family's rule refuses."""
    dim = _positive_int(dim, "dim")
    if name not in FUNCTION_NAMES:
        raise ValueError(f"unknown test function {name!r}")
    fn, grad, rule, unit = _families()[name]
    rule(dim, name)
    return TestFunction(name, dim, fn, grad, np.tile(unit, dim // len(unit)))
