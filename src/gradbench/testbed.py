"""Analytic benchmark functions, their gradients, and the error metric.

A family is one row of _families() (name, objective, analytic gradient,
dimension rule, repeating unit of the optimum) plus its objective and
gradient, which apply the rule to their input's last axis.  The objectives
are batched: each takes points along its trailing axis, input (..., n) and
output (...), so a 1-D point is a batch of one, and is marked
`batched = True` for ObjectiveFn.eval_rows.  Their analytic
gradients are batched the same way, input (..., n) and output (..., n),
and grad_mse reduces over the trailing axis.  Each point's value is
computed with the same operations in the same order as for that point
alone, provided the batch is C-contiguous, so a batch gives the same bits
as one call per point.

rosenbrock_pairwise, rosenbrock_chained and freudenstein_roth are in-place
kernels.  Each copies the coordinate slices its formula uses into
term-major C-contiguous arrays, (..., k) -> (k, ...), applies the
formula's operations one at a time into those buffers, in the formula's
order, and adds each point's k terms in coordinate order,
(t[0] + t[1]) + t[2] + ..., so that a batch adds whole rows of terms at a
time (_sum_terms).  Recursive summation is within (k - 1) u sum |t_i| of
the exact sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., section 4.2), far below the truncation error of the stencils that
use these values.  The kernels never write into their argument.  Where a
value is NaN, the batch row and the lone point are both NaN but may differ
in sign: numpy's add loops do not all return the same one of two NaN
operands.

rosenbrock_chained and freudenstein_roth evaluate a lone point (a 1-D
argument) in Python floats instead: the same operations in the same order,
and the terms added first to last, so the value has the bits of the array
path.  The running sum starts at 0.0, which adds exactly: each term is a
sum of two squares, so never -0.0, and 0.0 + t is t for every other t.  A
lone point has a handful of terms, and each numpy ufunc call costs about a
microsecond of dispatch, more than the arithmetic; the BFGS line search
sends its trial steps and curvature probes as lone points.  A point whose
value is not finite goes on to the array path, so it keeps numpy's
RuntimeWarnings and np.errstate.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .finite_difference import _positive_dim


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
    One point here is a (1, n) batch, a lone point of rosenbrock_pairwise,
    or a lone point of the other kernels whose value is not finite.
    Either way a batch row has the bits of its lone point, up to a NaN's
    sign (see the module docstring).
    """
    if t.size == t.shape[0]:
        return np.add.accumulate(t, axis=0)[-1]
    return np.add.reduce(t, axis=0)


def rosenbrock2d(x):
    """Banana-valley function on R^2; minimum 0 at (1, 1)."""
    x = np.asarray(x, dtype=float)
    _dim_two(x.shape[-1], "rosenbrock2d")
    x1, x2 = x[..., 0], x[..., 1]
    return (1.0 - x1) ** 2 + 100.0 * (x2 - x1 * x1) ** 2


rosenbrock2d.batched = True


def rosenbrock2d_grad(x):
    x = np.asarray(x, dtype=float)
    _dim_two(x.shape[-1], "rosenbrock2d")
    x1, x2 = x[..., 0], x[..., 1]
    g = np.empty_like(x)
    g[..., 0] = -2.0 * (1.0 - x1) - 400.0 * x1 * (x2 - x1 * x1)
    g[..., 1] = 200.0 * (x2 - x1 * x1)
    return g


rosenbrock2d_grad.batched = True


def rosenbrock_pairwise(x):
    """Sum of independent two-variable banana terms; even dimension only."""
    x = np.asarray(x, dtype=float)
    _dim_even(x.shape[-1], "rosenbrock-pairwise")
    # sum of 100 (b - a^2)^2 + (1 - a)^2
    a, b = _term_major(x[..., 0::2]), _term_major(x[..., 1::2])
    t = a * a
    np.subtract(b, t, out=t)
    np.square(t, out=t)
    t *= 100.0
    np.subtract(1.0, a, out=a)
    np.square(a, out=a)
    t += a
    return _sum_terms(t)


rosenbrock_pairwise.batched = True


def rosenbrock_pairwise_grad(x):
    x = np.asarray(x, dtype=float)
    _dim_even(x.shape[-1], "rosenbrock-pairwise")
    a, b = x[..., 0::2], x[..., 1::2]
    g = np.empty_like(x)
    g[..., 0::2] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    g[..., 1::2] = 200.0 * (b - a * a)
    return g


rosenbrock_pairwise_grad.batched = True


def rosenbrock_chained(x):
    """Banana chain coupling consecutive coordinates; any dimension >= 2."""
    x = np.asarray(x, float)
    _dim_min_two(x.shape[-1], "rosenbrock-chained")
    # sum over i < n - 1 of 100 (x[i+1] - x[i]^2)^2 + (1 - x[i])^2
    if x.ndim == 1:
        v = x.tolist()
        total = 0.0
        for a, b in zip(v, v[1:]):
            t = b - a * a
            u = 1.0 - a
            total += t * t * 100.0 + u * u
        if math.isfinite(total):
            return np.float64(total)
    # head and tail overlap in one copy: tail is read before head is written
    xt = _term_major(x)
    head, tail = xt[:-1], xt[1:]
    t = np.square(head)
    np.subtract(tail, t, out=t)
    np.square(t, out=t)
    t *= 100.0
    np.subtract(1.0, head, out=head)
    np.square(head, out=head)
    t += head
    return _sum_terms(t)


rosenbrock_chained.batched = True


def rosenbrock_chained_grad(x):
    x = np.asarray(x, dtype=float)
    _dim_min_two(x.shape[-1], "rosenbrock-chained")
    head = x[..., :-1]
    g = np.zeros_like(x)
    t = x[..., 1:] - head ** 2
    g[..., :-1] += -400.0 * head * t - 2.0 * (1.0 - head)
    g[..., 1:] += 200.0 * t
    return g


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
    dim = _positive_dim(dim)
    if name not in FUNCTION_NAMES:
        raise ValueError(f"unknown test function {name!r}")
    fn, grad, rule, unit = _families()[name]
    rule(dim, name)
    return TestFunction(name, dim, fn, grad, np.tile(unit, dim // len(unit)))
