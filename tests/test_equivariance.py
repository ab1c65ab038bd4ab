"""A run is equivariant under rotation: a check that does not compare bits.

With Q orthogonal and g(y) = f(Q y), a run on g from y0 = Q^T x0 whose
directions start as the columns of Q^T takes its stencil points at
y + h Q^T e_i = Q^T (x + h e_i), where f has the values a run on f from x0
along the axes takes.  The history update and BFGS are built from inner
products and linear combinations, and the line search from values and
slopes, so the two runs' iterates agree up to rounding: Q y_k = x_k, and
the Hessian of g at the end is Q^T H_f Q.  This holds on any CPU and BLAS
kernel, and through any change to the numbers that keeps the estimate a
function of the directions it differences along.

Measured with one Haar draw (default_rng(0)) and rep 0's start, over ten
iterations: the gap max_k |Q y_k - x_k| is at most 2.1e-10 on chained-10
and 3.1e-9 on freudenstein-roth-10, for both methods and every scheme, and
the Hessian's relative gap at most 1.1e-9.  With g's directions left at
the axes (the wrong mapping) the gap is 1.8e-6 and 1.7e-4 under central1,
and 0.25 and 0.37 under forward1.  GAP_BOUND sits between the two.
"""

import numpy as np
import pytest

from gradbench import bench
from gradbench.direction_history import mgs_orthonormalize
from gradbench.finite_difference import BasisMatrix, FdScheme, ObjectiveFn, gradient_in_basis
from gradbench.optimizer import BfgsOptions, bfgs_minimize
from gradbench.smart_estimator import wrap
from gradbench.testbed import get_test_function

DIM = 10
ITERATIONS = 10
GAP_BOUND = 1e-7
FUNCTIONS = ("rosenbrock-chained", "freudenstein-roth")


def gradient_along(method, objective, basis, scheme):
    """The method's gradient callback on objective, differencing along the
    columns of basis: a smart history that starts there, or that fixed basis."""
    if method == "smart":
        grad = wrap(objective, scheme)
        grad.estimator.history.basis = basis
        return grad
    return lambda x: gradient_in_basis(objective, x, basis, scheme).values


def paired_runs(name, scheme_name, method, rotated=True):
    """Q, and the runs and gradient callbacks on f from x0 and on
    g(y) = f(Q y) from Q^T x0; g's directions start as the columns of Q^T,
    or, with rotated=False, as the axes."""
    fn = get_test_function(name, DIM).fn
    Q = mgs_orthonormalize(np.random.default_rng(0).standard_normal((DIM, DIM))).matrix
    x0 = bench._draw_start(0, 0, DIM)
    scheme = FdScheme(scheme_name)
    opts = BfgsOptions(max_iters=ITERATIONS)
    f = ObjectiveFn(fn, DIM)
    # a plain callable: the line search evaluates g itself, not f's line form
    g = ObjectiveFn(lambda y: fn(Q.dot(y)), DIM)
    grad_f = gradient_along(method, f, BasisMatrix.identity(DIM), scheme)
    basis_g = BasisMatrix(Q.T) if rotated else BasisMatrix.identity(DIM)
    grad_g = gradient_along(method, g, basis_g, scheme)
    run_f = bfgs_minimize(f, grad_f, x0, opts)
    run_g = bfgs_minimize(g, grad_g, Q.T.dot(x0), opts)
    assert run_f.iterations == run_g.iterations == ITERATIONS
    return Q, (run_f, grad_f), (run_g, grad_g)


def trajectory_gap(Q, run_f, run_g):
    """max_k |Q y_k - x_k| over the two runs' iterates."""
    return np.abs(run_g.trajectory.dot(Q.T) - run_f.trajectory).max()


@pytest.mark.parametrize("method", ["smart", "vanilla"])
@pytest.mark.parametrize("scheme_name", ["central1", "central4", "forward1"])
@pytest.mark.parametrize("name", FUNCTIONS)
def test_rotated_run_follows_the_run_it_rotates(name, scheme_name, method):
    Q, (run_f, _), (run_g, _) = paired_runs(name, scheme_name, method)
    assert trajectory_gap(Q, run_f, run_g) < GAP_BOUND


@pytest.mark.parametrize("scheme_name", ["central1", "central4", "forward1"])
@pytest.mark.parametrize("name", FUNCTIONS)
def test_rotated_hessian_at_the_end_is_the_rotated_hessian(name, scheme_name):
    Q, (run_f, grad_f), (run_g, grad_g) = paired_runs(name, scheme_name, "smart")
    H_f = grad_f.estimator.smart_hessian(run_f.x_opt).values
    H_g = grad_g.estimator.smart_hessian(run_g.x_opt).values
    assert np.abs(Q.T.dot(H_f).dot(Q) - H_g).max() < GAP_BOUND * np.abs(H_g).max()


# Only central1 and forward1: the five-point central4 stencil differences a
# quartic exactly, so on the chained function its estimate does not depend
# on the basis, and on freudenstein-roth its h^4 error is below the bound.
# A wrong mapping reads only 1.9e-11 and 2.4e-9 under it.
@pytest.mark.parametrize("method", ["smart", "vanilla"])
@pytest.mark.parametrize("scheme_name", ["central1", "forward1"])
@pytest.mark.parametrize("name", FUNCTIONS)
def test_the_axes_as_the_rotated_basis_break_the_match(name, scheme_name, method):
    # the negative control: the bound is tight enough to see a wrong mapping
    Q, (run_f, _), (run_g, _) = paired_runs(name, scheme_name, method, rotated=False)
    assert trajectory_gap(Q, run_f, run_g) > GAP_BOUND
