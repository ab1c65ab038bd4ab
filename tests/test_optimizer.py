import dataclasses
import re
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


def recording(grad):
    """grad, keeping (point, returned value) for each call in `.calls`."""
    def recorded(x):
        value = grad(x)
        recorded.calls.append((np.array(x), value))
        return value

    recorded.calls = []
    return recorded


def assert_gradients_are_the_callbacks(res, calls):
    """Row i of res.gradients has the bytes the callback returned at trajectory[i]."""
    assert len(res.gradients) == len(res.trajectory) == len(calls)
    for row, point, (called_at, value) in zip(res.gradients, res.trajectory, calls):
        assert called_at.tobytes() == point.tobytes()
        assert row.tobytes() == np.asarray(value, dtype=float).tobytes()


class TestBfgsOptions:
    def test_defaults(self):
        opts = BfgsOptions()
        assert opts.max_iters == 200
        assert opts.grad_tol == 1e-6

    def test_numpy_integer_max_iters_accepted(self):
        assert BfgsOptions(max_iters=np.int64(3)).max_iters == 3

    def test_fields_kept_as_a_python_int_and_float(self):
        opts = BfgsOptions(max_iters=np.int64(3), grad_tol=np.float16(1e-3))
        assert type(opts.max_iters) is int and type(opts.grad_tol) is float
        assert opts.grad_tol == float(np.float16(1e-3))

    def test_a_float16_grad_tol_compares_in_float64(self):
        # |g| is 3e-7 above the tolerance; float16, whose spacing there is
        # 9.5e-7, would round it to the tolerance itself
        tol = np.float16(1e-3)
        g = np.array([float(tol) + 3e-7, 0.0])
        # a linear objective: only its start could pass the gradient test
        res = bfgs_minimize(lambda x: float(g @ x), lambda x: g, np.zeros(2),
                            BfgsOptions(grad_tol=tol))
        assert not res.converged
        assert res.reason == "line_search: no bracket found after 50 expansions"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"max_iters": "3"},
            {"grad_tol": -1e-6},
            {"grad_tol": float("nan")},
            {"grad_tol": True},
            {"grad_tol": "1"},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        [field] = kwargs
        with pytest.raises(ValueError, match=f"^{field} must be"):
            BfgsOptions(**kwargs)
        # nor can the rule be bypassed after construction
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(BfgsOptions(), field, kwargs[field])


    @pytest.mark.parametrize("opts", [{"max_iters": 5}, 5, "fast", BfgsOptions],
                             ids=["dict", "int", "str", "the class"])
    def test_bfgs_refuses_other_opts_before_any_evaluation(self, opts):
        f = ObjectiveFn(rosenbrock_chained, 3)
        grad = recording(lambda x: np.zeros(3))
        with pytest.raises(ValueError) as refused:
            bfgs_minimize(f, grad, np.zeros(3), opts)
        assert str(refused.value) == f"opts must be a BfgsOptions or None, got {opts!r}"
        assert f.eval_count == 0
        assert grad.calls == []


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

    def test_lists_search_like_arrays(self):
        x = np.array([-1.2, 1.0])
        g = rosenbrock2d_grad(x)
        f0 = rosenbrock2d(x)
        expected = line_search(rosenbrock2d, x, -g, f0, g)
        assert line_search(rosenbrock2d, x.tolist(), (-g).tolist(), f0, g.tolist()) == expected

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

    @pytest.mark.parametrize("entry", [0, 1, 2])
    def test_infinite_slope_rejected_before_any_evaluation(self, entry):
        # a slope of -inf passed the descent test: the search spent 48
        # evaluations and ended on "zoom interval collapsed"
        f = ObjectiveFn(rosenbrock_chained, 3)
        x = np.array([0.5, 0.2, -0.1])
        g = get_test_function("rosenbrock-chained", 3).grad(x)
        d = -g
        d[entry] = -np.sign(g[entry]) * np.inf
        with pytest.raises(ValueError, match="slope along d is not finite: -inf"):
            line_search(f, x, d, rosenbrock_chained(x), g)
        assert f.eval_count == 0

    @pytest.mark.parametrize("f0", [np.nan, -np.inf, np.inf])
    def test_non_finite_start_value_rejected_before_any_evaluation(self, f0):
        # no trial value decreases from NaN or -inf: the search used to
        # spend 48 evaluations here and end on "zoom interval collapsed"
        f = ObjectiveFn(rosenbrock_chained, 3)
        x = np.array([0.5, 0.2, -0.1])
        g = get_test_function("rosenbrock-chained", 3).grad(x)
        with pytest.raises(ValueError, match="f0 must be finite"):
            line_search(f, x, -g, f0, g)
        assert f.eval_count == 0

    @pytest.mark.parametrize("d_shape, g0_shape, name, shape", [
        # d and g0 of one entry used to broadcast: the search ran along
        # (d0, ..., d0), spent 48 evaluations and ended on "zoom interval
        # collapsed"; a column g0 raised TypeError
        ((1,), (1,), "d", (1,)),
        ((5,), (5, 1), "g0", (5, 1)),
        ((5,), (1,), "g0", (1,)),
        ((5, 1), (5,), "d", (5, 1)),
    ])
    def test_direction_and_gradient_of_another_shape_rejected_before_any_evaluation(
            self, d_shape, g0_shape, name, shape):
        f = ObjectiveFn(rosenbrock_chained, 5)
        x = np.array([0.5, 0.2, -0.1, 0.3, 0.9])
        g = get_test_function("rosenbrock-chained", 5).grad(x)
        d, g0 = -g[:d_shape[0]].reshape(d_shape), g[:g0_shape[0]].reshape(g0_shape)
        with pytest.raises(ValueError, match=re.escape(f"{name} must have x's shape (5,), got {shape}")):
            line_search(f, x, d, rosenbrock_chained(x), g0)
        assert f.eval_count == 0

    def test_unbounded_descent_fails(self):
        f = lambda x: float(x[0])
        with pytest.raises(LineSearchError):
            line_search(f, np.array([0.0]), np.array([-1.0]), 0.0, np.array([1.0]))

    @pytest.mark.parametrize(
        "name, dim", [("rosenbrock-chained", 25), ("freudenstein-roth", 26)]
    )
    def test_batched_and_row_by_row_objectives_agree_bitwise(self, name, dim):
        # An ObjectiveFn of a test function sums the search's points on
        # their line in Python floats; a wrapper without the line form is
        # called at x + a * d, and so is a plain callable, which is put
        # behind an ObjectiveFn of its own.
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
        # the bare callable is put behind an ObjectiveFn of its own, so both
        # search along the one ray
        objective = ObjectiveFn(recording, x.size)
        results = []
        for f in (recording, objective):
            shapes.clear()
            results.append(line_search(f, x, d, f0, g0))
            # every evaluation is one lone point
            assert shapes == [x.shape] * evals
        assert objective.eval_count == evals
        assert results[0] == results[1]
        # a relative 1e-12 leaves room for a BLAS kernel's own np.dot(g0, d)
        assert results[1] == (
            pytest.approx(float.fromhex(alpha), rel=1e-12),
            pytest.approx(float.fromhex(value), rel=1e-12),
        )


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
        grad = recording(rosenbrock2d_grad)
        f = ObjectiveFn(rosenbrock2d, 2)
        res = bfgs_minimize(f, grad, np.array([-1.2, 1.0]), BfgsOptions())
        assert res.reason == "grad_tol" and res.iterations > 10
        assert_gradients_are_the_callbacks(res, grad.calls)

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
        grad = recording(lambda x: a)
        res = bfgs_minimize(f, grad, np.zeros(2), BfgsOptions())
        assert not res.converged
        assert len(res.trajectory) == res.iterations + 1
        assert_gradients_are_the_callbacks(res, grad.calls)

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

    def test_underflowing_slope_stops_the_run(self):
        # g.g underflows to 0, so even steepest descent has slope -0.0
        f = ObjectiveFn(lambda x: 1e-300 * float(x @ x), 2)
        res = bfgs_minimize(f, lambda x: 2e-300 * x, np.array([1e-3, 2e-3]),
                            BfgsOptions(grad_tol=0.0))
        assert res.reason == "line_search: d is not a descent direction"
        assert res.iterations == 0
        np.testing.assert_array_equal(res.x_opt, [1e-3, 2e-3])

    def test_overflowing_slope_stops_the_run(self):
        # a finite gradient whose g.d overflows to -inf restarts from
        # steepest descent, whose slope overflows too; the run used to end
        # on "zoom interval collapsed" after 49 evaluations.  The slopes are
        # np.vdot, so no overflow warning is raised on the way
        f = ObjectiveFn(lambda x: float(x @ x), 3)
        res = bfgs_minimize(f, lambda x: np.full(3, 1e160), np.ones(3))
        assert res.reason == "line_search: the slope along d is not finite: -inf"
        assert res.iterations == 0
        assert f.eval_count == 1

    def test_deterministic(self):
        f1 = ObjectiveFn(rosenbrock2d, 2)
        f2 = ObjectiveFn(rosenbrock2d, 2)
        r1 = bfgs_minimize(f1, rosenbrock2d_grad, np.array([-1.2, 1.0]), BfgsOptions())
        r2 = bfgs_minimize(f2, rosenbrock2d_grad, np.array([-1.2, 1.0]), BfgsOptions())
        assert r1.trajectory.tobytes() == r2.trajectory.tobytes()
        # the bare function is put behind an ObjectiveFn and reaches its own
        # line form, with the same bits
        bare = bfgs_minimize(rosenbrock2d, rosenbrock2d_grad, np.array([-1.2, 1.0]))
        assert bare.trajectory.tobytes() == r1.trajectory.tobytes()

    # the quadratic 1/2 x.A x, with gradient A x
    A = np.diag([1.0, 10.0, 100.0])

    def quadratic(self):
        return ObjectiveFn(lambda x: 0.5 * float(x @ self.A @ x), 3)

    def test_callback_that_reuses_one_buffer(self):
        # a callback that writes each gradient into one array and returns
        # it must run as one that returns a new array each time
        buf = np.empty(3)
        fresh = bfgs_minimize(self.quadratic(), lambda x: self.A @ x, np.ones(3))
        reused = bfgs_minimize(self.quadratic(), lambda x: np.dot(self.A, x, out=buf),
                               np.ones(3))
        assert fresh.reason == "grad_tol" and fresh.iterations == 3
        assert reused.trajectory.tobytes() == fresh.trajectory.tobytes()
        assert reused.gradients.tobytes() == fresh.gradients.tobytes()

    @pytest.mark.parametrize("bad", [np.zeros(4), 0.0, np.ones(4), np.ones((3, 1))],
                             ids=["zeros4", "scalar", "ones4", "column"])
    @pytest.mark.parametrize("at_call", [0, 1], ids=["start", "iterate"])
    def test_gradient_of_the_wrong_shape_rejected(self, bad, at_call):
        calls = []

        def grad(x):
            calls.append(x)
            return bad if len(calls) > at_call else self.A @ x

        with pytest.raises(ValueError, match=re.escape(
                f"shape {np.shape(bad)}, expected x0's shape (3,)")):
            bfgs_minimize(self.quadratic(), grad, np.ones(3))
        assert len(calls) == at_call + 1

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


class TestObjectiveValues:
    # the message ObjectiveFn gives for a value that is not 0-d
    NOT_A_SCALAR = r"^objective returned shape \(1,\) for one point, not a scalar$"

    @staticmethod
    def one_element(x):
        return np.array([x @ x])

    def test_bfgs_refuses_a_value_that_is_not_a_scalar(self):
        with pytest.raises(ValueError, match=self.NOT_A_SCALAR):
            ObjectiveFn(self.one_element, 2)(np.ones(2))
        with pytest.raises(ValueError, match=self.NOT_A_SCALAR):
            bfgs_minimize(self.one_element, lambda x: 2 * x, [1.0, 2.0])

    def test_line_search_refuses_a_value_that_is_not_a_scalar(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match=self.NOT_A_SCALAR):
            line_search(self.one_element, x, -2 * x, 5.0, 2 * x)

    @staticmethod
    def counted(calls):
        """x.x, appending each point it is called at to calls."""
        def f(x):
            calls.append(x)
            return float(np.sum(x * x))

        return f

    def test_line_search_refuses_a_start_value_that_is_not_a_scalar(self):
        # f0 used to reach math.isfinite and die in numpy's TypeError
        calls = []
        x = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match=r"^f0 must be finite and 0-d, got \[5\.\]$"):
            line_search(self.counted(calls), x, -2 * x, np.array([5.0]), 2 * x)
        assert calls == []

    def test_line_search_takes_a_float32_start_value_as_a_float(self):
        # a float32 f0 used to carry its dtype into the step's fit
        x = np.array([1.0, 2.0])
        alpha, value = line_search(lambda z: float(z @ z), x, -2 * x, np.float32(5.0), 2 * x)
        assert type(alpha) is float and type(value) is float
        assert alpha == 0.5

    def test_line_search_refuses_a_point_that_is_not_a_vector(self):
        # a plain callable used to be called at each (2, 2) point
        calls = []
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match=re.escape("expected a point of shape (4,), got shape (2, 2)")):
            line_search(self.counted(calls), x, -2 * x, 30.0, 2 * x)
        assert calls == []

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [1.0, 2.0]], ids=["start", "run"])
    def test_float32_values_give_a_float_f_opt(self, x0):
        # at the start f_opt is the start value, after a run a line-search value
        res = bfgs_minimize(lambda x: np.float32(x @ x), lambda x: 2 * x, x0)
        assert type(res.f_opt) is float


class TestNonFiniteValues:
    @staticmethod
    def walled(bad):
        # the banana valley with the half-plane x[0] <= 0.5 cut away
        return lambda x: bad if x[0] <= 0.5 else rosenbrock2d(x)

    def test_non_finite_start_stops_at_once(self):
        grad = recording(rosenbrock2d_grad)
        f = ObjectiveFn(lambda x: np.nan, 2)
        res = bfgs_minimize(f, grad, np.array([3.0, 1.0]))
        assert res.reason == "non_finite"
        assert not res.converged
        assert res.iterations == 0
        assert f.eval_count == 1 and len(grad.calls) == 1
        assert_gradients_are_the_callbacks(res, grad.calls)

        grad = recording(lambda x: np.array([np.inf, 0.0]))
        f = ObjectiveFn(rosenbrock2d, 2)
        res = bfgs_minimize(f, grad, np.array([3.0, 1.0]))
        assert res.reason == "non_finite"
        assert f.eval_count == 1
        assert_gradients_are_the_callbacks(res, grad.calls)

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
