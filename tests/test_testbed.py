import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# derandomized so every run draws the same examples; no example database
PROPERTY_SETTINGS = settings(
    max_examples=200, derandomize=True, database=None, deadline=None
)


@st.composite
def batches(draw):
    """A registry function name and a (k, n) batch of points for it."""
    name = draw(st.sampled_from(FUNCTION_NAMES))
    if name == "rosenbrock2d":
        n = 2
    elif name == "rosenbrock-chained":
        n = draw(st.integers(2, 30))
    else:
        n = 2 * draw(st.integers(1, 15))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-3.0, 2.0))
    return name, scale * np.random.default_rng(seed).standard_normal((k, n))


class TestBatchedGradients:
    """A batch gives, bit for bit, the rows of one call per point."""

    @PROPERTY_SETTINGS
    @given(batches())
    def test_batch_equals_per_point_calls(self, case):
        name, X = case
        grad = get_test_function(name, X.shape[1]).grad
        assert grad.batched
        expected = np.array([grad(x) for x in X])
        assert grad(X).tobytes() == expected.tobytes()

    @PROPERTY_SETTINGS
    @given(batches(), st.integers(0, 2**32 - 1))
    def test_grad_mse_equals_per_row_calls(self, case, seed):
        _, X = case
        E = X + np.random.default_rng(seed).standard_normal(X.shape)
        mse = grad_mse(E, X)
        assert mse.shape == (X.shape[0],)
        assert mse.tolist() == [grad_mse(e, x) for e, x in zip(E, X)]

    def test_one_point_stays_a_vector_and_a_float(self):
        x = np.array([0.3, -1.2, 0.7, 2.0])
        for name in ("rosenbrock-pairwise", "rosenbrock-chained", "freudenstein-roth"):
            assert get_test_function(name, 4).grad(x).shape == (4,)
        assert type(grad_mse(x, np.zeros(4))) is float


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
