import warnings

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
    get_test_function,
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

    def test_numpy_integer_max_iters_accepted(self):
        assert BfgsOptions(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"max_iters": "3"},
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

    @pytest.mark.parametrize("d,g0", [
        ([np.nan, 0.0], [1.0, 1.0]),
        ([-1.0, 0.0], [np.nan, 1.0]),
    ], ids=["nan-direction", "nan-gradient"])
    def test_nan_slope_rejected_before_any_evaluation(self, d, g0):
        f = ObjectiveFn(rosenbrock2d, 2)
        x = np.array([-1.2, 1.0])
        with pytest.raises(ValueError, match="not a descent direction"):
            line_search(f, x, np.array(d), rosenbrock2d(x), np.array(g0))
        assert f.eval_count == 0

    def test_unbounded_descent_fails(self):
        f = lambda x: float(x[0])
        with pytest.raises(LineSearchError):
            line_search(f, np.array([0.0]), np.array([-1.0]), 0.0, np.array([1.0]))

    @pytest.mark.parametrize(
        "name, dim", [("rosenbrock-chained", 25), ("freudenstein-roth", 26)]
    )
    def test_batched_and_row_by_row_objectives_agree_bitwise(self, name, dim):
        # The curvature probe's two points go to every objective as two lone
        # calls; a batched objective sums a lone point in Python floats,
        # unbatched and plain callables call the kernel on it as it stands.
        tf = get_test_function(name, dim)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = tf.optimum + rng.standard_normal(dim)
            g = tf.grad(x)
            d = -g * 10.0 ** rng.uniform(-4.0, 0.0)
            f0 = tf.fn(x)
            batched = ObjectiveFn(tf.fn, dim)
            unbatched = ObjectiveFn(lambda z: tf.fn(z), dim)
            plain_calls = []

            def plain(z):
                plain_calls.append(None)
                return tf.fn(z)

            def outcome(f):
                try:
                    return line_search(f, x, d, f0, g)
                except LineSearchError as exc:
                    return str(exc)

            results = [outcome(batched), outcome(unbatched), outcome(plain)]
            assert results[0] == results[1] == results[2]
            assert batched.eval_count == unbatched.eval_count == len(plain_calls)


def line_search_case(case):
    """(objective, x, d, f0, g0) of a line search the tests above run."""
    if case == "parabola":
        return lambda x: float(x[0] ** 2), np.array([1.0]), np.array([-1.0]), 1.0, np.array([2.0])
    if case == "rosenbrock2d":
        x = np.array([-1.2, 1.0])
        g = rosenbrock2d_grad(x)
        return rosenbrock2d, x, -g, rosenbrock2d(x), g
    name, dim, draw = case
    tf = get_test_function(name, dim)
    rng = np.random.default_rng(7)
    for _ in range(draw + 1):
        x = tf.optimum + rng.standard_normal(dim)
        g = tf.grad(x)
        d = -g * 10.0 ** rng.uniform(-4.0, 0.0)
    return tf.fn, x, d, tf.fn(x), g


class TestLineSearchEvaluations:
    # alpha and f(x + alpha d) as float.hex, and the evaluations spent, as
    # the line search gave them when a curvature probe was one batch of two
    # points; a probe still spends two evaluations
    CASES = [
        ("parabola", "0x1.0p+0", "0x0.0p+0", 3),
        ("rosenbrock2d", "0x1.7e26910e629d4p-10", "0x1.ec10f161cb0edp+3", 11),
        (("rosenbrock-chained", 25, 0), "0x1.0e28ac008f043p-5", "0x1.067334374d4f2p+10", 7),
        (("rosenbrock-chained", 25, 1), "0x1.0p+0", "0x1.371327135d07dp+11", 4),
        (("rosenbrock-chained", 25, 2), "0x1.9c20b603db0fcp-6", "0x1.3b6e2522a400ep+10", 8),
        (("freudenstein-roth", 26, 0), "0x1.0p-4", "0x1.eb42d07eec131p+11", 7),
        (("freudenstein-roth", 26, 1), "0x1.0p-2", "0x1.e0538022ac8a8p+12", 5),
        (("freudenstein-roth", 26, 2), "0x1.de29e79ee3d74p-12", "0x1.936fd45791a42p+12", 14),
    ]

    @pytest.mark.parametrize("case, alpha, value, evals", CASES, ids=[
        c[0] if isinstance(c[0], str) else f"{c[0][0]}-{c[0][2]}" for c in CASES])
    def test_results_and_counts_are_unchanged(self, case, alpha, value, evals):
        fn, x, d, f0, g0 = line_search_case(case)
        shapes = []

        def recording(z):
            shapes.append(np.shape(z))
            return fn(z)

        # marked batched, so that a batch of points would reach it as one call
        recording.batched = True
        f = ObjectiveFn(recording, x.size)
        # a relative 1e-12 leaves room for a BLAS kernel's own np.dot(g0, d)
        assert line_search(f, x, d, f0, g0) == (
            pytest.approx(float.fromhex(alpha), rel=1e-12),
            pytest.approx(float.fromhex(value), rel=1e-12),
        )
        # every evaluation is one lone point
        assert f.eval_count == evals
        assert shapes == [x.shape] * evals


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

    @pytest.mark.parametrize("x0, at_start", [([-1.2, 1.0], False), ([1.0, 1.0], True)])
    def test_reason_grad_tol(self, x0, at_start):
        f = ObjectiveFn(rosenbrock2d, 2)
        res = bfgs_minimize(f, rosenbrock2d_grad, np.array(x0), BfgsOptions())
        assert res.converged
        assert (res.iterations == 0) == at_start
        assert res.reason == "grad_tol"

    def test_reason_max_iters(self):
        f = ObjectiveFn(rosenbrock2d, 2)
        res = bfgs_minimize(
            f, rosenbrock2d_grad, np.array([-1.2, 1.0]), BfgsOptions(max_iters=3)
        )
        assert not res.converged
        assert res.iterations == 3
        assert res.reason == "max_iters"

    def test_reason_line_search(self):
        a = np.array([1.0, -2.0])
        f = ObjectiveFn(lambda x: float(a @ x), 2)
        res = bfgs_minimize(f, lambda x: a, np.zeros(2), BfgsOptions())
        assert not res.converged
        assert res.reason == "line_search: no bracket found after 50 expansions"

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

    @pytest.mark.parametrize("x0", [np.ones((2, 2)), np.float64(1.0), np.zeros(0)],
                             ids=["matrix", "scalar", "empty"])
    def test_start_that_is_not_a_vector_rejected_before_any_call(self, x0):
        calls = []

        def f(x):
            calls.append("f")
            return float(np.sum(x * x))

        def grad(x):
            calls.append("grad")
            return 2.0 * x

        with pytest.raises(ValueError, match="x0 must be a non-empty vector"):
            bfgs_minimize(f, grad, x0)
        assert calls == []


class TestNonFiniteValues:
    @staticmethod
    def walled(bad):
        # the banana valley with the half-plane x[0] <= 0.5 cut away
        return lambda x: bad if x[0] <= 0.5 else rosenbrock2d(x)

    def test_non_finite_start_stops_at_once(self):
        calls = []

        def grad(x):
            calls.append(x)
            return rosenbrock2d_grad(x)

        f = ObjectiveFn(lambda x: np.nan, 2)
        res = bfgs_minimize(f, grad, np.array([3.0, 1.0]))
        assert res.reason == "non_finite"
        assert not res.converged
        assert res.iterations == 0
        assert f.eval_count == 1 and len(calls) == 1

        f = ObjectiveFn(rosenbrock2d, 2)
        res = bfgs_minimize(f, lambda x: np.array([np.inf, 0.0]), np.array([3.0, 1.0]))
        assert res.reason == "non_finite"
        assert f.eval_count == 1

    def test_inf_wall_stops_at_the_wall_without_warnings(self):
        f = ObjectiveFn(self.walled(np.inf), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = bfgs_minimize(f, rosenbrock2d_grad, np.array([3.0, 1.0]))
        assert res.reason == "line_search: zoom interval collapsed"
        values = [rosenbrock2d(x) for x in res.trajectory]
        assert (res.trajectory[:, 0] > 0.5).all()
        assert all(b < a for a, b in zip(values, values[1:]))
        assert res.f_opt == values[-1]

    def test_nan_wall_is_shrunk_away_from_like_an_inf_wall(self):
        runs = []
        for bad in (np.inf, np.nan):
            f = ObjectiveFn(self.walled(bad), 2)
            runs.append(bfgs_minimize(f, rosenbrock2d_grad, np.array([3.0, 1.0])))
        assert runs[1].iterations > 0
        assert runs[1].reason == runs[0].reason
        assert runs[1].trajectory.tobytes() == runs[0].trajectory.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_non_finite_trial_value_fails_sufficient_decrease(self, bad):
        # every step of 0.5 or more lands on `bad`; the search shrinks below it
        f = ObjectiveFn(lambda x: bad if x[0] >= 0.5 else 0.5 * x @ x, 2)
        x = np.array([-1.0, 0.0])
        alpha, f_a = line_search(f, x, np.array([2.0, 0.0]), f(x), x)
        assert 0.0 < alpha < 0.75
        assert np.isfinite(f_a)
