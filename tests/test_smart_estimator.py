import numpy as np
import pytest

from gradbench.finite_difference import (
    FdScheme,
    ObjectiveFn,
    gradient_in_basis,
    vanilla_gradient,
)
from gradbench.optimizer import BfgsOptions, bfgs_minimize
from gradbench.smart_estimator import SmartEstimator, wrap
from gradbench.testbed import rosenbrock2d, rosenbrock2d_grad, rosenbrock_chained


def quad_objective(A):
    n = A.shape[0]
    return ObjectiveFn(lambda x: 0.5 * float(x @ A @ x), n)


class TestSmartGradient:
    def test_cold_start_is_bitwise_vanilla(self):
        x = np.array([-0.29, 0.40])
        smart = SmartEstimator(ObjectiveFn(rosenbrock2d, 2), FdScheme())
        est = smart.smart_gradient(x)
        van = vanilla_gradient(ObjectiveFn(rosenbrock2d, 2), x, FdScheme())
        assert est.values.tobytes() == van.values.tobytes()

    def test_affine_exact_after_updates(self):
        a = np.array([1.0, 2.0])
        est = SmartEstimator(ObjectiveFn(lambda x: float(a @ x), 2), FdScheme())
        rng = np.random.default_rng(0)
        for _ in range(6):
            values = est.smart_gradient(rng.standard_normal(2)).values
            np.testing.assert_allclose(values, a, atol=1e-10)

    def test_worked_sequence_basis_and_estimate(self):
        est = SmartEstimator(ObjectiveFn(rosenbrock2d, 2), FdScheme())
        est.smart_gradient(np.array([1.78, 2.82]))
        est.smart_gradient(np.array([1.89, 4.62]))
        third = est.smart_gradient(np.array([11.54, 4.15]))
        np.testing.assert_allclose(
            est.history.basis.matrix,
            [[0.9989, 0.0486], [-0.0486, 0.9989]],
            atol=5e-4,
        )
        exact = rosenbrock2d_grad(np.array([11.54, 4.15]))
        np.testing.assert_allclose(third.values, exact, rtol=1e-6)
        # the estimate is the one taken along the current history basis
        along_history = gradient_in_basis(
            ObjectiveFn(rosenbrock2d, 2), np.array([11.54, 4.15]), est.history.basis
        )
        assert np.array_equal(third.values, along_history.values)

    def test_repeated_point_is_stable(self):
        est = SmartEstimator(ObjectiveFn(rosenbrock2d, 2), FdScheme())
        x = np.array([0.3, 0.7])
        est.smart_gradient(np.array([1.0, -1.0]))
        est.smart_gradient(x)
        basis_before = est.history.basis.matrix.copy()
        updates_before = est.history.updates_seen
        first = est.smart_gradient(x)
        second = est.smart_gradient(x)
        np.testing.assert_array_equal(first.values, second.values)
        np.testing.assert_array_equal(est.history.basis.matrix, basis_before)
        assert est.history.updates_seen == updates_before

    def test_history_tracks_accepted_points(self):
        est = SmartEstimator(ObjectiveFn(rosenbrock_chained, 3), FdScheme())
        rng = np.random.default_rng(1)
        points = [rng.standard_normal(3) for _ in range(5)]
        for x in points:
            est.smart_gradient(x)
        assert est.history.updates_seen == len(points) - 1
        delta = points[-1] - points[-2]
        np.testing.assert_allclose(
            est.history.basis.matrix[:, 0], delta / np.linalg.norm(delta), atol=1e-12
        )
        np.testing.assert_array_equal(est.last_x, points[-1])

    def test_quadratic_matches_vanilla_in_any_basis(self):
        A = np.array([[3.0, 0.5], [0.5, 1.0]])
        smart = SmartEstimator(quad_objective(A), FdScheme())
        rng = np.random.default_rng(2)
        for _ in range(4):
            smart.smart_gradient(rng.standard_normal(2))
        x = np.array([0.4, -0.8])
        smart_values = smart.smart_gradient(x).values
        vanilla_values = vanilla_gradient(quad_objective(A), x, FdScheme()).values
        np.testing.assert_allclose(smart_values, vanilla_values, atol=1e-8)

    def test_dimension_mismatch_rejected(self):
        est = SmartEstimator(ObjectiveFn(rosenbrock2d, 2), FdScheme())
        with pytest.raises(ValueError):
            est.smart_gradient(np.zeros(3))


class TestSmartHessian:
    A = np.array([[2.0, 1.0], [1.0, 3.0]])

    def test_fresh_estimator_recovers_quadratic(self):
        est = SmartEstimator(quad_objective(self.A), FdScheme())
        hess = est.smart_hessian(np.array([0.2, -0.5]))
        np.testing.assert_allclose(hess.values, self.A, atol=1e-6)

    def test_after_updates_recovers_quadratic(self):
        est = SmartEstimator(quad_objective(self.A), FdScheme())
        rng = np.random.default_rng(3)
        for _ in range(5):
            est.smart_gradient(rng.standard_normal(2))
        hess = est.smart_hessian(np.array([0.2, -0.5]))
        np.testing.assert_allclose(hess.values, self.A, atol=1e-6)

    def test_does_not_touch_history(self):
        est = SmartEstimator(ObjectiveFn(rosenbrock2d, 2), FdScheme())
        est.smart_gradient(np.array([0.5, 0.5]))
        est.smart_gradient(np.array([1.5, -0.5]))
        basis_before = est.history.basis.matrix.copy()
        updates_before = est.history.updates_seen
        last_before = est.last_x.copy()
        est.smart_hessian(np.array([9.0, 9.0]))
        np.testing.assert_array_equal(est.history.basis.matrix, basis_before)
        assert est.history.updates_seen == updates_before
        np.testing.assert_array_equal(est.last_x, last_before)

    def test_banana_mode_after_bfgs(self):
        obj = ObjectiveFn(rosenbrock2d, 2)
        grad_cb = wrap(obj, FdScheme())
        result = bfgs_minimize(obj, grad_cb, np.array([-1.2, 1.0]), BfgsOptions())
        hess = grad_cb.estimator.smart_hessian(result.x_opt)
        target = np.array([[802.0, -400.0], [-400.0, 200.0]])
        np.testing.assert_allclose(hess.values, target, rtol=1e-2)


class TestWrap:
    def test_first_call_is_vanilla(self):
        x0 = np.array([0.1, 0.2])
        cb = wrap(ObjectiveFn(rosenbrock2d, 2), FdScheme())
        van = vanilla_gradient(ObjectiveFn(rosenbrock2d, 2), x0, FdScheme())
        assert cb(x0).tobytes() == van.values.tobytes()

    def test_bfgs_on_chained_banana_reaches_optimum(self):
        x0 = np.random.default_rng(0).standard_normal(5)
        obj = ObjectiveFn(rosenbrock_chained, 5)
        result = bfgs_minimize(obj, wrap(obj, FdScheme()), x0, BfgsOptions())
        np.testing.assert_allclose(result.x_opt, np.ones(5), atol=1e-4)

    def test_independent_wraps_have_independent_histories(self):
        obj_a = ObjectiveFn(rosenbrock2d, 2)
        obj_b = ObjectiveFn(rosenbrock2d, 2)
        cb_a = wrap(obj_a, FdScheme())
        cb_b = wrap(obj_b, FdScheme())
        cb_a(np.array([0.0, 0.0]))
        cb_a(np.array([1.0, 2.0]))
        cb_b(np.array([0.5, 0.5]))
        assert cb_a.estimator.history.updates_seen == 1
        assert cb_b.estimator.history.updates_seen == 0
        np.testing.assert_array_equal(cb_b.estimator.history.basis.matrix, np.eye(2))
