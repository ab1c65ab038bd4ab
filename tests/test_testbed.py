import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradbench import testbed
from gradbench.finite_difference import ObjectiveFn
from gradbench.testbed import (
    FUNCTION_NAMES,
    get_test_function,
    grad_mse,
)

from oracle import (
    reference_freudenstein_roth,
    reference_rosenbrock_chained,
    reference_rosenbrock_pairwise,
    richardson_gradient,
)


def accepted_dims(name, high):
    """The dimensions from 1 to high that the family's rule accepts, read
    through testbed._check_dim."""
    dims = []
    for n in range(1, high + 1):
        try:
            testbed._check_dim((n,), name)
        except ValueError:
            continue
        dims.append(n)
    return dims


def largest_dim(name, high):
    """The largest dimension up to high that the family accepts."""
    return accepted_dims(name, high)[-1]


class TestRosenbrock2d:
    def test_minimum(self):
        assert testbed.rosenbrock2d(np.ones(2)) == 0.0
        np.testing.assert_array_equal(testbed.rosenbrock2d_grad(np.ones(2)), [0.0, 0.0])

    def test_valley_point(self):
        assert testbed.rosenbrock2d(np.array([-0.29, 0.40])) == pytest.approx(11.643381)

    def test_origin(self):
        assert testbed.rosenbrock2d(np.zeros(2)) == 1.0
        np.testing.assert_allclose(testbed.rosenbrock2d_grad(np.zeros(2)), [-2.0, 0.0])


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
    n = draw(st.sampled_from(accepted_dims(name, 30)))
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

    @pytest.mark.parametrize("name", FUNCTION_NAMES)
    def test_f_ordered_batch_gives_a_c_ordered_gradient_with_the_same_bits(self, name):
        tf = get_test_function(name, largest_dim(name, 10))
        X = np.random.default_rng(11).standard_normal((5, tf.dim))
        g = tf.grad(np.asfortranarray(X))
        assert g.flags.c_contiguous
        assert g.tobytes() == tf.grad(X).tobytes()


KERNELS = {
    "rosenbrock-pairwise": (testbed.rosenbrock_pairwise, reference_rosenbrock_pairwise),
    "rosenbrock-chained": (testbed.rosenbrock_chained, reference_rosenbrock_chained),
    "freudenstein-roth": (testbed.freudenstein_roth, reference_freudenstein_roth),
}
# 1e155 squares to inf, and inf - inf gives NaN
SPECIAL_VALUES = (1e155, -1e155, np.inf, -np.inf, np.nan)


@st.composite
def kernel_inputs(draw):
    """A kernel name and a C-contiguous (k, n) batch or 1-D point for it,
    sometimes with overflowing, infinite and NaN entries."""
    name = draw(st.sampled_from(sorted(KERNELS)))
    n = draw(st.sampled_from(accepted_dims(name, 30)))
    k = draw(st.integers(0, 40))
    shape = (n,) if k == 0 else (k, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = 10.0 ** draw(st.floats(-3.0, 2.0)) * rng.standard_normal(shape)
    if draw(st.booleans()):
        special = rng.random(shape) < draw(st.floats(0.0, 0.5))
        X[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
    return name, X


class TestInPlaceKernels:
    """The kernels give the bits of the whole-array expressions they replace."""

    @PROPERTY_SETTINGS
    @given(kernel_inputs())
    def test_kernel_matches_expression_form(self, case):
        name, X = case
        kernel, oracle = KERNELS[name]
        with np.errstate(all="ignore"):
            assert kernel(X).tobytes() == oracle(X).tobytes()

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("shape", [(6,), (4, 6), (1, 2)])
    def test_kernel_never_writes_its_argument(self, name, shape):
        kernel, oracle = KERNELS[name]
        X = np.random.default_rng(7).standard_normal(shape)
        before = X.copy()
        X.flags.writeable = False
        assert kernel(X).tobytes() == oracle(X).tobytes()
        assert X.tobytes() == before.tobytes()


class TestCoordinateOrderSum:
    """Each point's terms are added in coordinate order, batched or alone."""

    # Each family at its largest dimension up to 26: the kernels then have
    # 8 or more terms per point, where numpy's pairwise summation of a
    # contiguous row would differ.
    @pytest.mark.parametrize("name", FUNCTION_NAMES)
    @pytest.mark.parametrize("lead", [(), (1,), (2,), (7,), (7, 1), (1, 1)])
    def test_batch_rows_equal_lone_points(self, name, lead):
        tf = get_test_function(name, largest_dim(name, 26))
        rng = np.random.default_rng(11)
        for scale in (1e-2, 1.0, 30.0):
            X = tf.optimum + scale * rng.standard_normal(lead + (tf.dim,))
            values = tf.fn(X)
            assert np.shape(values) == lead
            for index in np.ndindex(*lead):
                point = np.array(X[index])
                assert np.asarray(values)[index].tobytes() == tf.fn(point).tobytes()

    def test_small_terms_after_a_large_one_are_added_in_order(self):
        # one term of 1 and seven of about 1e-16: each small term rounds away
        # against 1, where a pairwise sum adds them first and keeps them
        a = 1.0 + 1e-8
        x = np.array([0.0, 0.0] + [a, a * a] * 7)
        assert testbed.rosenbrock_pairwise(x) == 1.0
        assert testbed.rosenbrock_pairwise(x[None]).tolist() == [1.0]
        assert testbed.rosenbrock_pairwise(np.stack([x, x, x])).tolist() == [1.0] * 3


# the families that take a lone point's gradient in Python floats; the
# others take it on the array path
FLOAT_GRADIENT_FAMILIES = ("freudenstein-roth",)


@st.composite
def lone_points(draw):
    """A family and one point for it, at coordinate scales from 1e-3 to
    1e160, so that many points overflow."""
    name = draw(st.sampled_from(FUNCTION_NAMES))
    n = draw(st.sampled_from(accepted_dims(name, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return name, 10.0 ** draw(st.floats(-3.0, 160.0)) * rng.standard_normal(n)


def value_and_warned(f, x):
    """f(x), and whether it gave a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = f(x)
    return value, any(issubclass(w.category, RuntimeWarning) for w in caught)


class TestLonePoints:
    """A lone point's value is taken on the array path, and its gradient in
    Python floats or on the array path by family, all with a batch row's
    bits."""

    @PROPERTY_SETTINGS
    @given(lone_points())
    def test_lone_point_equals_a_batch_of_one(self, case):
        name, x = case
        fn = get_test_function(name, x.size).fn
        value, warned = value_and_warned(fn, x)
        (batch_value,), batch_warned = value_and_warned(fn, x[None])
        assert type(value) is np.float64
        assert warned == batch_warned
        if np.isnan(value):
            assert np.isnan(batch_value)
        else:
            assert value.tobytes() == batch_value.tobytes()

    @PROPERTY_SETTINGS
    @given(lone_points())
    def test_lone_gradient_equals_a_batch_of_one(self, case):
        # a gradient that is not finite takes the array path, as its batch
        # does, so here even NaN entries keep their bits
        name, x = case
        grad = get_test_function(name, x.size).grad
        g, warned = value_and_warned(grad, x)
        batch_g, batch_warned = value_and_warned(grad, x[None])
        assert type(g) is np.ndarray and g.dtype == np.float64 and g.shape == x.shape
        assert warned == batch_warned
        assert g.tobytes() == batch_g[0].tobytes()

    def test_rosenbrock2d_lone_point_has_the_batch_bits(self):
        # ** on a numpy scalar goes through libm pow, which squares b - a^2
        # here one bit off the product: the value would end ...045, not ...038
        x = np.array([-3.574910478381077, -4.501639824452281])
        for name in ("rosenbrock2d", "rosenbrock-pairwise", "rosenbrock-chained"):
            fn = get_test_function(name, 2).fn
            assert fn(x) == 29886.385215859038
            assert fn(x[None]).tolist() == [29886.385215859038]

    def test_rosenbrock_gradients_have_the_same_bits_at_n2(self):
        # The three families pair the same two coordinates at n = 2 and add
        # each partial into zeros, so at the optimum and at rows of +-0.0,
        # where a partial is a zero of either sign, its sign agrees too.
        rng = np.random.default_rng(13)
        X = np.concatenate([
            [[1.0, 1.0], [0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]],
            rng.standard_normal((5, 2)),
            30.0 * rng.standard_normal((5, 2)),
        ])
        expected = testbed.rosenbrock_chained_grad(X)
        for name in ("rosenbrock2d", "rosenbrock-pairwise", "rosenbrock-chained"):
            grad = get_test_function(name, 2).grad
            assert grad(X).tobytes() == expected.tobytes()
            for x, row in zip(X, expected):
                assert grad(x).tobytes() == row.tobytes()

    @pytest.mark.parametrize("name", FUNCTION_NAMES)
    def test_finite_point_on_a_line_never_takes_the_array_path(self, name, monkeypatch):
        def array_path(s):
            raise AssertionError("the array path was taken")

        monkeypatch.setattr(testbed, "_term_major", array_path)
        tf = get_test_function(name, largest_dim(name, 10))
        rng = np.random.default_rng(3)
        x = tf.optimum + rng.standard_normal(tf.dim)
        phi = ObjectiveFn(tf.fn, tf.dim)._line(x, rng.standard_normal(tf.dim))
        assert all(math.isfinite(phi(t)) for t in (0.0, 1e-5, 0.5, 2.0))
        with pytest.raises(AssertionError, match="array path"):
            tf.fn(x)

    @pytest.mark.parametrize("name", FLOAT_GRADIENT_FAMILIES)
    def test_finite_lone_gradient_never_takes_the_array_path(self, name, monkeypatch):
        # The batch's bits are taken first.  The points around the optimum
        # show the rounding of every operation.
        tf = get_test_function(name, largest_dim(name, 10))
        rng = np.random.default_rng(5)
        X = np.array([tf.optimum, np.full(tf.dim, -0.0)] + [
            tf.optimum + scale * rng.standard_normal(tf.dim)
            for scale in (1e-3, 1e-1, 1.0, 30.0) for _ in range(5)
        ])
        batch = tf.grad(X)

        def array_path(*args, **kwargs):
            raise AssertionError("the array path was taken")

        # the gradient's array path allocates its result with this
        monkeypatch.setattr(np, "empty", array_path)
        for x, row in zip(X, batch):
            g = tf.grad(x)
            assert np.isfinite(g).all()
            assert g.tobytes() == row.tobytes()
        with pytest.raises(AssertionError, match="array path"):
            tf.grad(X[:1])


# 0 of either sign, the curvature probe's offsets, the unit step, powers of
# two the search doubles or halves to, and steps at which the sum (2^600)
# or t * d itself (2^1023) overflows
LINE_STEPS = (0.0, -0.0, 1e-5, -1e-5, 1.0, 2.0 ** -30, 0.375, 8.0, 2.0 ** 40,
              2.0 ** 600, 2.0 ** 1023)
LINE_CELLS = [(name, n) for name in FUNCTION_NAMES
              for n in accepted_dims(name, 10) if n in (2, 3, 5, 6, 10)]


def line_and_array_values(tf, x, d, steps):
    """For each t: ObjectiveFn._line(x, d)(t) and ObjectiveFn(x + t * d),
    each with whether it gave a RuntimeWarning; checks that each line call
    counts one evaluation."""
    f = ObjectiveFn(tf.fn, tf.dim)
    phi = f._line(x, d)
    pairs = []
    for t in steps:
        before = f.eval_count
        on_line = value_and_warned(phi, t)
        assert f.eval_count == before + 1
        assert type(on_line[0]) is float
        pairs.append((on_line, value_and_warned(lambda t: f(x + t * d), t)))
    return pairs


def same_value(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestLineForm:
    """A point on a line, ObjectiveFn._line(x, d)(t), has the bits and the
    warnings of the same point evaluated as ObjectiveFn(x + t * d)."""

    @pytest.mark.parametrize("name, n", LINE_CELLS)
    def test_points_on_a_line_have_the_array_bits(self, name, n):
        tf = get_test_function(name, n)
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n)
        d[::3] = -0.0
        lines = [
            (tf.optimum + rng.standard_normal(n), d),
            (np.full(n, -0.0), d),
            (tf.optimum, -np.sign(d) - 0.0),
        ]
        for x, d in lines:
            pairs = line_and_array_values(tf, x, d, LINE_STEPS)
            for t, ((value, warned), (expected, expected_warned)) in zip(LINE_STEPS, pairs):
                assert same_value(value, expected), (x, d, t)
                assert warned == expected_warned == (not math.isfinite(value))
            assert not math.isfinite(pairs[-2][0][0])  # 2^600 overflows

    @PROPERTY_SETTINGS
    @given(lone_points(), st.integers(0, 2**32 - 1), st.floats(-60.0, 60.0))
    def test_random_lines_have_the_array_bits(self, case, seed, log2_t):
        name, x = case
        d = np.random.default_rng(seed).standard_normal(x.size)
        steps = (2.0 ** log2_t, -(2.0 ** log2_t), 2.0 ** round(log2_t))
        pairs = line_and_array_values(get_test_function(name, x.size), x, d, steps)
        for (value, warned), (expected, expected_warned) in pairs:
            assert warned == expected_warned
            # a NaN value is taken on the array path both ways, sign included
            assert same_value(value, expected)

    def test_dimension_rule_is_checked_once_per_line(self, monkeypatch):
        checked = []
        check_dim = testbed._check_dim
        monkeypatch.setattr(testbed, "_check_dim", lambda *a: checked.append(a) or check_dim(*a))
        phi = ObjectiveFn(testbed.rosenbrock_chained, 3)._line(np.ones(3), np.ones(3))
        assert [phi(t) for t in (0.0, 1.0, 2.0)] == [0.0, 802.0, 7208.0]
        assert checked == [((3,), "rosenbrock-chained")]


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

    @pytest.mark.parametrize("estimate, exact, shape", [
        (1.0, 2.0, r"\(\)"), ([], [], r"\(0,\)"), (np.zeros((3, 0)), np.zeros((3, 0)), r"\(3, 0\)"),
    ], ids=["0-d", "empty", "empty-rows"])
    def test_nothing_to_average_rejected(self, estimate, exact, shape):
        # numpy would raise AxisError for a 0-d input, and warn "Mean of
        # empty slice" and give nan for an empty last axis
        with pytest.raises(ValueError, match=f"non-empty last axis, got shape {shape}$"):
            grad_mse(estimate, exact)

    def test_empty_stack_of_vectors_gives_no_values(self):
        assert grad_mse(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in FUNCTION_NAMES:
            dim = largest_dim(name, 5)
            tf = get_test_function(name, dim)
            assert tf.name == name
            assert tf.dim == dim
            # the family's public objective and gradient are the module
            # attributes their names give, batched, and profiles and
            # tracebacks show those names; the objective is documented
            public = name.replace("-", "_")
            for f, f_name in ((tf.fn, public), (tf.grad, public + "_grad")):
                assert f.__name__ == f.__qualname__ == f.__code__.co_name == f_name
                assert getattr(testbed, f_name) is f
                assert f.batched is True
            assert tf.fn.__doc__

    @pytest.mark.parametrize("name", FUNCTION_NAMES)
    def test_hands_out_the_functions_rebound_on_the_module(self, name, monkeypatch):
        # the benchmark's tracer wraps each family's functions by rebinding
        # their public names, and the registry must hand out the wrappers
        public = name.replace("-", "_")
        fn, grad = object(), object()
        monkeypatch.setattr(testbed, public, fn)
        monkeypatch.setattr(testbed, public + "_grad", grad)
        tf = get_test_function(name, largest_dim(name, 5))
        assert tf.fn is fn and tf.grad is grad

    def test_optima_are_stationary(self):
        for name in FUNCTION_NAMES:
            dim = largest_dim(name, 7)
            tf = get_test_function(name, dim)
            assert tf.fn(tf.optimum) == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(tf.grad(tf.optimum), np.zeros(dim), atol=1e-10)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_test_function("sphere", 3)

    def test_non_integral_dimension_rejected(self):
        with pytest.raises(ValueError, match="3.9"):
            get_test_function("rosenbrock-chained", 3.9)
        with pytest.raises(ValueError, match="True"):
            get_test_function("rosenbrock-chained", True)
        assert get_test_function("rosenbrock-chained", np.int64(3)).dim == 3

    @pytest.mark.parametrize("name,dim", [
        ("rosenbrock2d", 1),
        ("rosenbrock2d", 3),
        ("rosenbrock-pairwise", 5),
        ("rosenbrock-chained", 1),
        ("freudenstein-roth", 7),
    ])
    def test_invalid_dimensions_rejected(self, name, dim):
        with pytest.raises(ValueError, match=f"^{name} requires"):
            get_test_function(name, dim)
        # the objective and gradient check their input's last axis too; a
        # 0-d input has none
        tf = get_test_function(name, largest_dim(name, 5))
        for f in (tf.fn, tf.grad):
            for x in (np.zeros(dim), np.zeros((3, dim))):
                with pytest.raises(ValueError, match=f"^{name} requires .*, got {dim}$"):
                    f(x)
            for x in (3.0, np.float64(3.0), np.zeros(())):
                with pytest.raises(ValueError, match=f"^{name} requires .*, got a 0-d input$"):
                    f(x)
