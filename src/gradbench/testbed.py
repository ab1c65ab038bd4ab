"""Analytic benchmark functions, their gradients, and the error metric.

A family is one row of the constant table _FAMILIES (its name, dimension
rule and the repeating unit of its optimum), its private kernels for its
value, gradient and line form, and one _family call, which makes its
public objective and gradient, rosenbrock_chained and
rosenbrock_chained_grad for rosenbrock-chained: each converts its input,
checks the input's last axis against the rule through _check_dim and calls
its kernel with the family's fixed argument (the Rosenbrock step).
get_test_function looks the two up on the module by public name, so a
function rebound on the module (a tracer wraps them) is what it hands out.
The objectives are batched: each takes points along its trailing axis,
input (..., n) and output (...), and is marked `batched = True` for
ObjectiveFn.eval_rows.  Their analytic gradients are batched the same way,
input (..., n) and output (..., n), and grad_mse reduces over the trailing
axis.  A row of a C-contiguous batch has the bits of that point evaluated
alone.  The Rosenbrock families sum one banana term, 100 (b - a^2)^2 +
(1 - a)^2, over pairs of coordinates (More, Garbow & Hillstrom, *ACM TOMS*
7 (1981) 17-41) and differ only in the pairing (_rosenbrock, and the stride
of _rosenbrock_grad); rosenbrock2d is rosenbrock-pairwise at n = 2, so at
n = 2 the three give the same bits, values and gradients alike.

An array goes through an in-place kernel.  It copies the coordinate slices
its formula uses into term-major C-contiguous arrays, (..., k) -> (k, ...),
applies the formula's operations one at a time into those buffers, in the
formula's order, and adds each point's k terms in coordinate order,
(t[0] + t[1]) + t[2] + ..., so that a batch adds whole rows of terms at a
time (_sum_terms).  Recursive summation is within (k - 1) u sum |t_i| of
the exact sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., section 4.2), far below the truncation error of the stencils that
use these values.  The kernels never write into their argument.

Every family's objective carries a private line form, _line(x, d), which
ObjectiveFn._line uses for the BFGS line search's points x + t d: given
1-D float x and d it checks x's last axis once and returns phi(t), the
value at x + t d as a Python float.  phi forms each pair's coordinates as
x_i + t * d_i, the two roundings of numpy's x + t * d, applies the array
path's operations in its order and adds the terms first to last from a
running sum that starts at 0.0, which adds exactly: each term is a sum of
two squares, so never -0.0.  A lone point's analytic gradient (a 1-D
argument) is taken in Python floats the same way for freudenstein-roth
only, whose array path takes about twice the loop's time, where a
Rosenbrock family's takes under a microsecond more; the hessian
benchmark's set-up takes 2n lone gradients per reference Hessian.  The
other families' lone gradients take the array path, with the same bits.
A numpy ufunc call costs about a microsecond of dispatch, more than a
point's arithmetic: a point on a line took 0.7 us (rosenbrock-chained,
n = 5) and 2.9 us (freudenstein-roth, n = 26), against 2.8 and 4.9 us as
ObjectiveFn(x + t * d); a lone freudenstein-roth gradient at n = 26 took
6.7-7.0 us, against 14.1-15.0 us on the array path, and a lone
rosenbrock-chained one at n = 25 5.8-6.0 us on the array path, against
5.2-5.3 us in Python floats (2 vCPU, Python 3.11, numpy 2.4).  A lone
value, and a point on a line or a lone freudenstein-roth gradient that is
not finite, take the array path, which keeps numpy's RuntimeWarnings and
np.errstate.
A NaN value and its batch row's are NaN together but may differ in sign,
as numpy's add loops do not all return the same one of two NaN operands.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .finite_difference import _integer


# Each family, by name: its dimension rule, as plain bounds on its input's
# last axis length n (its requirement, as its error words it; the least n;
# whether n must be even; and the one n it takes, or None), then the
# repeating unit of its optimum.  get_test_function passes the shape
# (dim,).  A 0-d input has no last axis and is refused like a dimension the
# rule does not accept.
_FAMILIES = {
    "rosenbrock2d": ("dimension 2", 2, False, 2, (1.0,)),
    "rosenbrock-pairwise": ("an even dimension >= 2", 2, True, None, (1.0,)),
    "rosenbrock-chained": ("dimension >= 2", 2, False, None, (1.0,)),
    "freudenstein-roth": ("an even dimension >= 2", 2, True, None, (5.0, 4.0)),
}
FUNCTION_NAMES = tuple(_FAMILIES)


def _check_dim(shape, name):
    """ValueError, naming the family, unless its rule accepts shape's last axis."""
    requirement, least, even, exact, _ = _FAMILIES[name]
    n = shape[-1] if shape else 0  # every rule refuses 0
    if n >= least and not (even and n % 2) and (exact is None or n == exact):
        return
    raise ValueError(f"{name} requires {requirement}, got {n if shape else 'a 0-d input'}")


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
    so that goes through accumulate, which is sequential by definition:
    a lone point, a (1, n) batch or the point of a line form whose sum is
    not finite (see the module docstring).
    """
    if t.size == t.shape[0]:
        return np.add.accumulate(t, axis=0)[-1]
    return np.add.reduce(t, axis=0)


def _rosenbrock(x, step):
    """The sum of banana terms 100 (b - a^2)^2 + (1 - a)^2 over the pairs
    (a, b) = (x[i], x[i + 1]), i = 0, step, 2 step, ... of x's last axis:
    (x0, x1), (x2, x3), ... at step 2, (x0, x1), (x1, x2), ... at step 1.
    x is a float array whose last axis the caller has checked."""
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


def _rosenbrock_line(x, d, step):
    """phi(t) = _rosenbrock(x + t d, step) as a Python float, for 1-D x and
    d: see the module docstring."""
    xs, ds = x.tolist(), d.tolist()
    pairs = list(zip(xs[0::step], ds[0::step], xs[1::step], ds[1::step]))

    def phi(t):
        total = 0.0
        for xa, da, xb, db in pairs:
            a = xa + t * da
            b = xb + t * db
            s = b - a * a
            u = 1.0 - a
            total += s * s * 100.0 + u * u
        return total if math.isfinite(total) else float(_rosenbrock(x + t * d, step))

    return phi


def _rosenbrock_grad(x, step):
    """The gradient of _rosenbrock(x, step): each pair's two partial
    derivatives added into zeros, where pairs share a coordinate (step 1)
    one after the other.  A lone point takes the same path as a batch."""
    a, b = x[..., :-1:step], x[..., 1::step]
    t = b - a * a
    g = np.zeros(x.shape)
    g[..., :-1:step] += -400.0 * a * t - 2.0 * (1.0 - a)
    g[..., 1::step] += 200.0 * t
    return g


def _freudenstein_roth(x, _):
    """The sum of (-13 + a + b (b (5 - b) - 2))^2 and
    (-29 + a + b (b (b + 1) - 14))^2 over the pairs (a, b) = (x0, x1),
    (x2, x3), ...; this family has no fixed argument, so its kernels ignore
    their second."""
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


def _freudenstein_roth_line(x, d, _):
    """phi(t) = _freudenstein_roth(x + t d) as a Python float, for 1-D x
    and d: see the module docstring."""
    xs, ds = x.tolist(), d.tolist()
    pairs = list(zip(xs[0::2], ds[0::2], xs[1::2], ds[1::2]))

    def phi(t):
        total = 0.0
        for xa, da, xb, db in pairs:
            a = xa + t * da
            b = xb + t * db
            r1 = -13.0 + a + ((5.0 - b) * b - 2.0) * b
            r2 = -29.0 + a + ((b + 1.0) * b - 14.0) * b
            total += r1 * r1 + r2 * r2
        return total if math.isfinite(total) else float(_freudenstein_roth(x + t * d, None))

    return phi


def _freudenstein_roth_grad(x, _):
    """The gradient of _freudenstein_roth: each pair's two partials.  A
    lone point is taken in Python floats (see the module docstring)."""
    if x.ndim == 1:
        v = x.tolist()
        g = []
        for a, b in zip(v[0::2], v[1::2]):
            r1 = -13.0 + a + b * (b * (5.0 - b) - 2.0)
            r2 = -29.0 + a + b * (b * (b + 1.0) - 14.0)
            g += (
                2.0 * (r1 + r2),
                2.0 * r1 * (10.0 * b - 3.0 * b * b - 2.0)
                + 2.0 * r2 * (3.0 * b * b + 2.0 * b - 14.0),
            )
        if math.isfinite(sum(g)):
            return np.array(g)
    a, b = x[..., 0::2], x[..., 1::2]
    r1 = -13.0 + a + b * (b * (5.0 - b) - 2.0)
    r2 = -29.0 + a + b * (b * (b + 1.0) - 14.0)
    g = np.empty(x.shape)
    g[..., 0::2] = 2.0 * (r1 + r2)
    g[..., 1::2] = 2.0 * r1 * (10.0 * b - 3.0 * b * b - 2.0) + 2.0 * r2 * (
        3.0 * b * b + 2.0 * b - 14.0
    )
    return g


def _family(name, kernel, kernel_grad, kernel_line, arg, doc):
    """The family's public objective and gradient, rosenbrock_chained and
    rosenbrock_chained_grad for rosenbrock-chained: each converts x, checks
    its last axis by the family's rule and calls its kernel with arg, passed
    by position (*args or functools.partial add 0.3-0.4 us to a 2 us call).
    The objective's _line(x, d) checks x once and returns its line form."""

    def fn(x):
        x = np.asarray(x, float)
        _check_dim(x.shape, name)
        return kernel(x, arg)

    def line(x, d):
        _check_dim(x.shape, name)
        return kernel_line(x, d, arg)

    def grad(x):
        x = np.asarray(x, float)
        _check_dim(x.shape, name)
        return kernel_grad(x, arg)

    public = name.replace("-", "_")
    for f, f_name in ((fn, public), (grad, public + "_grad")):
        f.__name__ = f.__qualname__ = f_name
        # its own code object, so that profiles and tracebacks name it
        f.__code__ = f.__code__.replace(co_name=f_name)
        f.batched = True
    fn.__doc__ = doc
    fn._line = line
    return fn, grad


rosenbrock2d, rosenbrock2d_grad = _family(
    "rosenbrock2d", _rosenbrock, _rosenbrock_grad, _rosenbrock_line, 2,
    "Banana-valley function on R^2, rosenbrock-pairwise at n = 2; minimum 0 at (1, 1).")
rosenbrock_pairwise, rosenbrock_pairwise_grad = _family(
    "rosenbrock-pairwise", _rosenbrock, _rosenbrock_grad, _rosenbrock_line, 2,
    "Sum of independent two-variable banana terms; even dimension only.")
rosenbrock_chained, rosenbrock_chained_grad = _family(
    "rosenbrock-chained", _rosenbrock, _rosenbrock_grad, _rosenbrock_line, 1,
    "Banana chain coupling consecutive coordinates; any dimension >= 2.")
freudenstein_roth, freudenstein_roth_grad = _family(
    "freudenstein-roth", _freudenstein_roth, _freudenstein_roth_grad,
    _freudenstein_roth_line, None,
    "Paired squared-residual sums; minimum 0 at (5, 4, 5, 4, ...).")


def grad_mse(estimate, exact):
    """Mean squared componentwise difference between gradient vectors.

    Reduces over the trailing axis: two vectors give a float, two (..., n)
    stacks an array of shape (...).  For C-contiguous stacks each entry has
    the same bits as the call on that pair of rows alone.  ValueError unless
    the shapes are equal and have a trailing axis of length >= 1: a 0-d
    input has no axis to average over, and an empty one no entries.
    """
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(exact, dtype=float)
    if e.shape != t.shape:
        raise ValueError("gradient vectors must have equal shapes")
    if not e.shape or not e.shape[-1]:
        raise ValueError(f"gradient vectors must have a non-empty last axis, got shape {e.shape}")
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
    """Build the named test function at the requested dimension; ValueError
    for an unknown name or a dimension the family's rule refuses.  Its
    objective and gradient are the module's by public name when called, so
    one rebound on the module (a tracer wraps them) is what it hands out."""
    dim = _integer(dim, "dim")
    if name not in FUNCTION_NAMES:
        raise ValueError(f"unknown test function {name!r}")
    _check_dim((dim,), name)
    public = name.replace("-", "_")
    unit = _FAMILIES[name][-1]
    return TestFunction(name, dim, globals()[public], globals()[public + "_grad"],
                        np.tile(unit, dim // len(unit)))
