"""Analytic benchmark functions, their gradients, and the error metric.

The four objectives are batched: each takes points along its trailing axis,
input (..., n) and output (...), so a 1-D point is a batch of one, and is
marked `batched = True` for ObjectiveFn.eval_rows.  Their analytic
gradients are batched the same way, input (..., n) and output (..., n),
and grad_mse reduces over the trailing axis.  Each point's value is
computed with the same operations in the same order as for that point
alone, provided the batch is C-contiguous, so a batch gives the same bits
as one call per point.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

FUNCTION_NAMES = (
    "rosenbrock2d",
    "rosenbrock-pairwise",
    "rosenbrock-chained",
    "freudenstein-roth",
)


def _require_even(n, name):
    if n % 2 != 0 or n < 2:
        raise ValueError(f"{name} requires an even dimension >= 2, got {n}")


# Squares each element as a Python float does, through libm pow(v, 2), which
# rounds differently from numpy's v * v in about 1 case in 1000.
# rosenbrock2d's values, and the bench and rotate CSVs built on them, are
# defined by that rounding.
_pow2 = np.vectorize(lambda v: v ** 2, otypes=[float])


def rosenbrock2d(x):
    """Banana-valley function on R^2; minimum 0 at (1, 1)."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    return _pow2(1.0 - x1) + 100.0 * _pow2(x2 - x1 * x1)


rosenbrock2d.batched = True


def rosenbrock2d_grad(x):
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    g = np.empty_like(x)
    g[..., 0] = -2.0 * (1.0 - x1) - 400.0 * x1 * (x2 - x1 * x1)
    g[..., 1] = 200.0 * (x2 - x1 * x1)
    return g


rosenbrock2d_grad.batched = True


def rosenbrock_pairwise(x):
    """Sum of independent two-variable banana terms; even dimension only."""
    x = np.asarray(x, dtype=float)
    _require_even(x.shape[-1], "rosenbrock-pairwise")
    a, b = x[..., 0::2], x[..., 1::2]
    return np.add.reduce(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=-1)


rosenbrock_pairwise.batched = True


def rosenbrock_pairwise_grad(x):
    x = np.asarray(x, dtype=float)
    _require_even(x.shape[-1], "rosenbrock-pairwise")
    a, b = x[..., 0::2], x[..., 1::2]
    g = np.empty_like(x)
    g[..., 0::2] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    g[..., 1::2] = 200.0 * (b - a * a)
    return g


rosenbrock_pairwise_grad.batched = True


def rosenbrock_chained(x):
    """Banana chain coupling consecutive coordinates; any dimension >= 2."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise ValueError("rosenbrock-chained requires dimension >= 2")
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(100.0 * (tail - head ** 2) ** 2 + (1.0 - head) ** 2, axis=-1)


rosenbrock_chained.batched = True


def rosenbrock_chained_grad(x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise ValueError("rosenbrock-chained requires dimension >= 2")
    head = x[..., :-1]
    g = np.zeros_like(x)
    t = x[..., 1:] - head ** 2
    g[..., :-1] += -400.0 * head * t - 2.0 * (1.0 - head)
    g[..., 1:] += 200.0 * t
    return g


rosenbrock_chained_grad.batched = True


def freudenstein_roth(x):
    """Paired squared-residual sums; minimum 0 at (5, 4, 5, 4, ...)."""
    x = np.asarray(x, dtype=float)
    _require_even(x.shape[-1], "freudenstein-roth")
    a, b = x[..., 0::2], x[..., 1::2]
    r1 = -13.0 + a + b * (b * (5.0 - b) - 2.0)
    r2 = -29.0 + a + b * (b * (b + 1.0) - 14.0)
    return np.add.reduce(r1 * r1 + r2 * r2, axis=-1)


freudenstein_roth.batched = True


def freudenstein_roth_grad(x):
    x = np.asarray(x, dtype=float)
    _require_even(x.shape[-1], "freudenstein-roth")
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


def get_test_function(name, dim):
    """Build the named test function at the requested dimension.

    Raises ValueError for unknown names or invalid (name, dim) pairs, e.g.
    odd dimensions for the pairwise families.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if name == "rosenbrock2d":
        if dim != 2:
            raise ValueError("rosenbrock2d is two-dimensional")
        return TestFunction(name, 2, rosenbrock2d, rosenbrock2d_grad, np.ones(2))
    if name == "rosenbrock-pairwise":
        _require_even(dim, name)
        return TestFunction(
            name, dim, rosenbrock_pairwise, rosenbrock_pairwise_grad, np.ones(dim)
        )
    if name == "rosenbrock-chained":
        if dim < 2:
            raise ValueError("rosenbrock-chained requires dimension >= 2")
        return TestFunction(
            name, dim, rosenbrock_chained, rosenbrock_chained_grad, np.ones(dim)
        )
    if name == "freudenstein-roth":
        _require_even(dim, name)
        return TestFunction(
            name,
            dim,
            freudenstein_roth,
            freudenstein_roth_grad,
            np.tile(np.array([5.0, 4.0]), dim // 2),
        )
    raise ValueError(f"unknown test function {name!r}")
