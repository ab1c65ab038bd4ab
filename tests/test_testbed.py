import numpy as np
import pytest

from gradbench import testbed
from gradbench.testbed import (
    FUNCTION_NAMES,
    get_test_function,
    grad_mse,
)

from oracle import richardson_gradient


class TestRosenbrock2d:
    def test_minimum(self):
        assert testbed.rosenbrock2d(np.ones(2)) == 0.0
        np.testing.assert_array_equal(testbed.rosenbrock2d_grad(np.ones(2)), [0.0, 0.0])

    def test_valley_point(self):
        assert testbed.rosenbrock2d(np.array([-0.29, 0.40])) == pytest.approx(11.643381)

    def test_origin(self):
        assert testbed.rosenbrock2d(np.zeros(2)) == 1.0
        np.testing.assert_allclose(testbed.rosenbrock2d_grad(np.zeros(2)), [-2.0, 0.0])

    def test_batch_rounds_like_python_floats(self):
        # Python floats square through libm pow, which differs from v * v in
        # the last bit for some of these points
        X = np.random.default_rng(0).standard_normal((2000, 2))
        expected = [(1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2 for a, b in X.tolist()]
        assert np.array_equal(testbed.rosenbrock2d(X), expected)


class TestRosenbrockPairwise:
    def test_all_ones_is_minimum(self):
        x = np.ones(6)
        assert testbed.rosenbrock_pairwise(x) == 0.0
        np.testing.assert_array_equal(testbed.rosenbrock_pairwise_grad(x), np.zeros(6))

    def test_partial_point(self):
        assert testbed.rosenbrock_pairwise(np.array([1.0, 1.0, 0.0, 0.0])) == 1.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            testbed.rosenbrock_pairwise(np.ones(3))
        with pytest.raises(ValueError):
            testbed.rosenbrock_pairwise_grad(np.ones(3))

    def test_pairs_are_separable(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8)
        g = testbed.rosenbrock_pairwise_grad(x)
        y = x.copy()
        y[4:6] += rng.standard_normal(2)  # perturb pair 3 only
        g2 = testbed.rosenbrock_pairwise_grad(y)
        np.testing.assert_array_equal(g[:4], g2[:4])
        np.testing.assert_array_equal(g[6:], g2[6:])


class TestRosenbrockChained:
    def test_all_ones_is_minimum(self):
        x = np.ones(5)
        assert testbed.rosenbrock_chained(x) == 0.0
        np.testing.assert_array_equal(testbed.rosenbrock_chained_grad(x), np.zeros(5))

    def test_three_dim_point(self):
        assert testbed.rosenbrock_chained(np.array([1.0, 1.0, 2.0])) == 100.0

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            testbed.rosenbrock_chained(np.ones(1))


class TestFreudensteinRoth:
    def test_known_minimum(self):
        x = np.tile([5.0, 4.0], 3)
        assert testbed.freudenstein_roth(x) == 0.0
        np.testing.assert_allclose(testbed.freudenstein_roth_grad(x), np.zeros(6),
                                   atol=1e-10)

    def test_origin_value(self):
        assert testbed.freudenstein_roth(np.zeros(2)) == 1010.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            testbed.freudenstein_roth(np.ones(5))


class TestAnalyticGradientsAgainstOracle:
    # the master cross-check: every analytic gradient matches eighth-order
    # Richardson-extrapolated central differences at random points
    CASES = [
        ("rosenbrock2d", 2, 101),
        ("rosenbrock-pairwise", 6, 102),
        ("rosenbrock-chained", 5, 103),
        ("freudenstein-roth", 4, 104),
    ]

    @pytest.mark.parametrize("name,dim,seed", CASES)
    def test_gradients_match_richardson(self, name, dim, seed):
        tf = get_test_function(name, dim)
        rng = np.random.default_rng(seed)
        for _ in range(100):
            x = rng.standard_normal(dim)
            analytic = tf.grad(x)
            oracle = richardson_gradient(tf.fn, x)
            err = np.linalg.norm(analytic - oracle)
            assert err <= 1e-7 * (1.0 + np.linalg.norm(analytic))


class TestGradMse:
    def test_identical_vectors(self):
        assert grad_mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert grad_mse([1.0, 1.0], [0.0, 0.0]) == 1.0

    def test_mixed(self):
        assert grad_mse([3.0, -1.0, 2.0], [1.0, 1.0, 1.0]) == pytest.approx(3.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grad_mse([1.0, 2.0], [1.0])


class TestRegistry:
    def test_all_names_resolve(self):
        dims = {"rosenbrock2d": 2, "rosenbrock-pairwise": 4,
                "rosenbrock-chained": 5, "freudenstein-roth": 4}
        for name in FUNCTION_NAMES:
            tf = get_test_function(name, dims[name])
            assert tf.name == name
            assert tf.dim == dims[name]

    def test_optima_are_stationary(self):
        for name, dim in [("rosenbrock2d", 2), ("rosenbrock-pairwise", 6),
                          ("rosenbrock-chained", 7), ("freudenstein-roth", 6)]:
            tf = get_test_function(name, dim)
            assert tf.fn(tf.optimum) == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(tf.grad(tf.optimum), np.zeros(dim), atol=1e-10)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_test_function("sphere", 3)

    @pytest.mark.parametrize("name,dim", [
        ("rosenbrock2d", 3),
        ("rosenbrock-pairwise", 5),
        ("rosenbrock-chained", 1),
        ("freudenstein-roth", 7),
    ])
    def test_invalid_dimensions_rejected(self, name, dim):
        with pytest.raises(ValueError):
            get_test_function(name, dim)
