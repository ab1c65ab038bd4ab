import numpy as np
import pytest

from gradbench.finite_difference import FdScheme, ObjectiveFn
from gradbench.optimizer import (
    WOLFE_C1,
    WOLFE_C2,
    BfgsOptions,
    LineSearchError,
    bfgs_minimize,
    line_search,
)
from gradbench.smart_estimator import wrap
from gradbench.testbed import (
    rosenbrock2d,
    rosenbrock2d_grad,
    rosenbrock_chained,
)


def wolfe_holds(f, grad, x, d, alpha):
    """Check the strong Wolfe inequalities with the analytic gradient."""
    f0 = f(x)
    dphi0 = grad(x) @ d
    armijo = f(x + alpha * d) <= f0 + WOLFE_C1 * alpha * dphi0
    curvature = abs(grad(x + alpha * d) @ d) <= -WOLFE_C2 * dphi0
    return armijo and curvature


class TestBfgsOptions:
    def test_defaults(self):
        opts = BfgsOptions()
        assert opts.max_iters == 200
        assert opts.grad_tol == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"grad_tol": -1e-6},
            {"grad_tol": float("nan")},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BfgsOptions(**kwargs)


class TestLineSearch:
    def test_newton_step_on_quadratic_accepted_at_one(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        f = lambda x: 0.5 * x @ A @ x
        x = np.array([1.0, -2.0])
        g = A @ x
        d = -np.linalg.solve(A, g)
        alpha, f_a = line_search(f, x, d, f(x), g)
        assert abs(alpha - 1.0) < 1e-6
        assert f_a == pytest.approx(f(x + alpha * d))

    def test_scalar_parabola_satisfies_wolfe(self):
        f = lambda x: float(x[0] ** 2)
        grad = lambda x: np.array([2.0 * x[0]])
        x = np.array([1.0])
        d = np.array([-1.0])
        alpha, _ = line_search(f, x, d, f(x), grad(x))
        assert 0.0 < alpha < 2.0
        assert wolfe_holds(f, grad, x, d, alpha)

    def test_fd_curvature_path_satisfies_wolfe(self):
        # curvature decisions come from differences of f only
        x = np.array([-1.2, 1.0])
        g = rosenbrock2d_grad(x)
        d = -g
        alpha, _ = line_search(rosenbrock2d, x, d, rosenbrock2d(x), g)
        assert wolfe_holds(rosenbrock2d, rosenbrock2d_grad, x, d, alpha)

    def test_non_descent_direction_rejected(self):
        f = lambda x: float(x[0] ** 2)
        with pytest.raises(ValueError):
            line_search(f, np.array([1.0]), np.array([1.0]), 1.0, np.array([2.0]))

    def test_unbounded_descent_fails(self):
        f = lambda x: float(x[0])
        with pytest.raises(LineSearchError):
            line_search(f, np.array([0.0]), np.array([-1.0]), 0.0, np.array([1.0]))


class TestBfgsMinimize:
    def test_isotropic_quadratic_converges_fast(self):
        c = np.array([1.0, 2.0, 3.0])
        f = ObjectiveFn(lambda x: 0.5 * float((x - c) @ (x - c)), 3)
        grad = lambda x: x - c
        res = bfgs_minimize(f, grad, np.zeros(3), BfgsOptions())
        assert res.converged
        assert res.iterations <= 3
        np.testing.assert_allclose(res.x_opt, c, atol=1e-8)

    def test_general_quadratics_terminate_within_n_plus_2(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 6, 8):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            A = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
            c = rng.standard_normal(n)
            f = ObjectiveFn(lambda x, A=A, c=c: 0.5 * float((x - c) @ A @ (x - c)), n)
            grad = lambda x, A=A, c=c: A @ (x - c)
            res = bfgs_minimize(f, grad, rng.standard_normal(n),
                                BfgsOptions(grad_tol=1e-10))
            assert res.iterations <= n + 2
            assert np.linalg.norm(res.x_opt - c) <= 1e-8

    def test_banana_with_analytic_gradient(self):
        f = ObjectiveFn(rosenbrock2d, 2)
        res = bfgs_minimize(f, rosenbrock2d_grad, np.array([-1.2, 1.0]), BfgsOptions())
        assert res.converged
        np.testing.assert_allclose(res.x_opt, np.ones(2), atol=1e-5)

    def test_chained_banana_with_smart_gradient(self):
        x0 = np.random.default_rng(0).standard_normal(5)
        obj = ObjectiveFn(rosenbrock_chained, 5)
        res = bfgs_minimize(obj, wrap(obj, FdScheme()), x0, BfgsOptions())
        np.testing.assert_allclose(res.x_opt, np.ones(5), atol=1e-4)

    def test_trajectory_function_values_strictly_decrease(self):
        f = ObjectiveFn(rosenbrock2d, 2)
        res = bfgs_minimize(f, rosenbrock2d_grad, np.array([-1.2, 1.0]), BfgsOptions())
        values = [rosenbrock2d(x) for x in res.trajectory]
        assert all(b < a for a, b in zip(values, values[1:]))
        np.testing.assert_array_equal(res.trajectory[0], [-1.2, 1.0])
        assert res.iterations == len(res.trajectory) - 1

    def test_gradient_called_once_per_accepted_iterate(self):
        calls = []

        def counting_grad(x):
            calls.append(np.array(x))
            return rosenbrock2d_grad(x)

        f = ObjectiveFn(rosenbrock2d, 2)
        res = bfgs_minimize(f, counting_grad, np.array([-1.2, 1.0]), BfgsOptions())
        assert len(calls) == len(res.trajectory)
        for called, accepted in zip(calls, res.trajectory):
            np.testing.assert_array_equal(called, accepted)

    def test_inverse_hessian_stays_positive_definite(self):
        # rebuild the update sequence from the trajectory and verify every
        # intermediate approximation has positive eigenvalues
        f = ObjectiveFn(rosenbrock2d, 2)
        res = bfgs_minimize(f, rosenbrock2d_grad, np.array([-1.2, 1.0]), BfgsOptions())
        H = np.eye(2)
        eye = np.eye(2)
        for x_prev, x_next in zip(res.trajectory, res.trajectory[1:]):
            s = x_next - x_prev
            y = rosenbrock2d_grad(x_next) - rosenbrock2d_grad(x_prev)
            sy = s @ y
            if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
                rho = 1.0 / sy
                V = eye - rho * np.outer(s, y)
                H = V @ H @ V.T + rho * np.outer(s, s)
            assert np.linalg.eigvalsh(H)[0] > 0.0

    def test_line_search_failure_returns_best_so_far(self):
        a = np.array([1.0, -2.0])
        f = ObjectiveFn(lambda x: float(a @ x), 2)
        grad = lambda x: a
        res = bfgs_minimize(f, grad, np.zeros(2), BfgsOptions())
        assert not res.converged
        assert len(res.trajectory) == res.iterations + 1

    def test_deterministic(self):
        f1 = ObjectiveFn(rosenbrock2d, 2)
        f2 = ObjectiveFn(rosenbrock2d, 2)
        r1 = bfgs_minimize(f1, rosenbrock2d_grad, np.array([-1.2, 1.0]), BfgsOptions())
        r2 = bfgs_minimize(f2, rosenbrock2d_grad, np.array([-1.2, 1.0]), BfgsOptions())
        assert r1.trajectory.tobytes() == r2.trajectory.tobytes()

    def test_non_finite_start_rejected(self):
        f = ObjectiveFn(rosenbrock2d, 2)
        with pytest.raises(ValueError):
            bfgs_minimize(f, rosenbrock2d_grad, np.array([np.nan, 0.0]), BfgsOptions())
