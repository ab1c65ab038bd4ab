import re
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradbench.finite_difference import (
    _BLOCK_BYTES,
    SCHEME_NAMES,
    BasisMatrix,
    FdScheme,
    IllConditionedBasisError,
    ObjectiveFn,
    _householder_q,
    _lower_pairs,
    _orthonormality_defect,
    directional_derivative,
    gradient_in_basis,
    hessian_in_basis,
    vanilla_gradient,
)
from gradbench.direction_history import mgs_orthonormalize
from gradbench.smart_estimator import SmartEstimator, wrap
from gradbench.testbed import (
    get_test_function,
    rosenbrock2d,
    rosenbrock2d_grad,
    rosenbrock_chained,
)
from oracle import (
    reference_gradient_in_basis,
    reference_hessian_in_basis,
    reference_householder_q,
    reference_stencil_value,
)

X_BANANA = np.array([-0.29, 0.40])

# Every testbed family, at dimensions long enough for numpy's unrolled
# pairwise summation to matter (8 or more terms per point).
FAMILIES = [
    ("rosenbrock2d", 2),
    ("rosenbrock-pairwise", 18),
    ("rosenbrock-chained", 25),
    ("freudenstein-roth", 26),
]
SCHEMES = [FdScheme(name) for name in SCHEME_NAMES]


def _family_point(name, dim, seed):
    """A test function and a point drawn around its optimum."""
    tf = get_test_function(name, dim)
    rng = np.random.default_rng(seed)
    return tf, tf.optimum + 0.5 * rng.standard_normal(dim), rng


# Every derivative entry, as estimate(f, x, scheme).
EVERY_ESTIMATE = pytest.mark.parametrize("estimate", [
    lambda f, x, scheme: gradient_in_basis(f, x, BasisMatrix.identity(2), scheme),
    lambda f, x, scheme: vanilla_gradient(f, x, scheme),
    lambda f, x, scheme: hessian_in_basis(f, x, BasisMatrix.identity(2), scheme),
    lambda f, x, scheme: directional_derivative(f, x, np.array([1.0, 0.0]), scheme),
    lambda f, x, scheme: SmartEstimator(f, scheme).smart_gradient(x),
    lambda f, x, scheme: wrap(f, scheme)(x),
], ids=["gradient_in_basis", "vanilla_gradient", "hessian_in_basis",
        "directional_derivative", "SmartEstimator", "wrap"])


@EVERY_ESTIMATE
@pytest.mark.parametrize("scheme", ["central1", None, 1e-3])
def test_scheme_refused_before_any_evaluation(estimate, scheme):
    f = ObjectiveFn(rosenbrock2d, 2)
    message = f"^scheme must be an FdScheme, got {re.escape(repr(scheme))}$"
    with pytest.raises(ValueError, match=message):
        estimate(f, X_BANANA, scheme)
    assert f.eval_count == 0


@EVERY_ESTIMATE
def test_plain_function_refused_before_any_evaluation(estimate):
    # an ObjectiveFn carries the dimension and the count; a bare callable
    # has neither and is refused by name, not by a missing attribute
    calls = []

    def fn(x):
        calls.append(x)
        return rosenbrock2d(x)

    with pytest.raises(ValueError, match="^f must be an ObjectiveFn, got <function "):
        estimate(fn, X_BANANA, FdScheme())
    assert calls == []


@pytest.mark.parametrize("estimate", [gradient_in_basis, hessian_in_basis])
@pytest.mark.parametrize("basis", [np.eye(2), np.eye(2).tolist(), None],
                         ids=["ndarray", "list", "None"])
def test_basis_that_is_not_a_basis_matrix_refused_before_any_evaluation(estimate, basis):
    f = ObjectiveFn(rosenbrock2d, 2)
    message = f"^basis must be a BasisMatrix, got {type(basis).__name__}$"
    with pytest.raises(ValueError, match=message):
        estimate(f, X_BANANA, basis, FdScheme())
    assert f.eval_count == 0


class TestFdScheme:
    def test_defaults(self):
        scheme = FdScheme()
        assert scheme.name == "central1"
        assert scheme.step == 1e-3

    def test_forward_fourth_rejected(self):
        with pytest.raises(ValueError, match="forward4"):
            FdScheme("forward4")

    # a 0-d array and a Decimal are not numbers.Real, so they are refused
    # too; an int that overflows a float is refused as infinite
    @pytest.mark.parametrize(
        "step",
        [0.0, -1e-3, np.inf, np.nan, True, np.True_, "0.001", None, np.array(1e-3),
         Decimal("0.001"), pytest.param(10**400, id="int-1e400"),
         pytest.param(-(10**400), id="int--1e400")],
    )
    def test_nonpositive_step_rejected(self, step):
        with pytest.raises(ValueError, match="^step must be"):
            FdScheme(step=step)

    @pytest.mark.parametrize("name", ["central2", "backward1", "central"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            FdScheme(name)

    @pytest.mark.parametrize("step", [1, np.float64(1e-3), np.float32(1e-3), np.int64(1)])
    def test_real_scalar_step_accepted(self, step):
        scheme = FdScheme(step=step)
        assert scheme.step == step and type(scheme.step) is float

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_numpy_step_gives_the_float_steps_estimates(self, dtype):
        # Under numpy 2, 2.0 * h, 12.0 * h and h * h would stay in a numpy
        # step's own dtype: a float16 step put this central4 Hessian 3.7e-2
        # off, against 2.8e-11 for the same step as a Python float.
        A = np.array([[3.0, 1.0], [1.0, 2.0]])

        def f(y):
            return 0.5 * y @ A @ y

        x = np.array([0.3, -0.7])
        h = dtype(1e-3)
        schemes = (FdScheme("central4", h), FdScheme("central4", float(h)))
        grads = [vanilla_gradient(ObjectiveFn(f, 2), x, s).values for s in schemes]
        hessians = [hessian_in_basis(ObjectiveFn(f, 2), x, BasisMatrix.identity(2), s).values
                    for s in schemes]
        assert grads[0].tobytes() == grads[1].tobytes()
        assert hessians[0].tobytes() == hessians[1].tobytes()
        np.testing.assert_allclose(grads[0], A @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(hessians[0], A, rtol=0, atol=1e-8)

    def test_from_name(self):
        assert FdScheme.from_name("central1") == FdScheme("central1", 1e-3)
        assert FdScheme.from_name("central4", step=1e-2) == FdScheme("central4", 1e-2)
        assert FdScheme.from_name("forward1") == FdScheme("forward1", 1e-3)
        with pytest.raises(ValueError):
            FdScheme.from_name("central2")


class TestObjectiveFn:
    def test_counts_every_evaluation(self):
        f = ObjectiveFn(lambda x: float(np.sum(x**2)), 3)
        assert f.eval_count == 0
        f(np.zeros(3))
        f(np.ones(3))
        assert f.eval_count == 2

    # a lone evaluation and a stencil's point check give one message
    @pytest.mark.parametrize("entry", [
        lambda f, x: f(x),
        lambda f, x: gradient_in_basis(f, x, BasisMatrix.identity(5)),
    ], ids=["ObjectiveFn", "gradient_in_basis"])
    @pytest.mark.parametrize("shape", [(7,), (3,), (1, 5)])
    def test_a_point_of_the_wrong_shape_is_refused_uncounted(self, entry, shape):
        f = ObjectiveFn(rosenbrock_chained, 5)
        with pytest.raises(ValueError, match=r"\(5,\)") as refused:
            entry(f, np.zeros(shape))
        assert str(refused.value) == f"expected a point of shape (5,), got shape {shape}"
        assert f.eval_count == 0

    # numpy's float() of a one-element array warns or raises by version;
    # every path that takes one value per call names the shape instead
    @pytest.mark.parametrize("evaluate", [
        lambda f, x: f(x),
        lambda f, x: f.eval_rows(np.stack([x, x])),
        lambda f, x: f._line(x, np.ones(3))(0.5),
    ], ids=["call", "eval_rows", "line"])
    @pytest.mark.parametrize("shape", [(2,), (1,)])
    def test_a_value_that_is_not_a_scalar_is_refused(self, evaluate, shape):
        f = ObjectiveFn(lambda x: np.full(shape, x.sum()), 3)
        with pytest.raises(ValueError) as refused:
            evaluate(f, np.zeros(3))
        assert str(refused.value) == f"objective returned shape {shape} for one point, not a scalar"

    @pytest.mark.parametrize("batched", [False, True], ids=["plain", "user-batched"])
    def test_line_without_a_line_form_evaluates_its_points(self, batched):
        # a callable without a line form gets each point x + t * d as a
        # lone evaluation would, and each phi(t) counts one evaluation
        calls = []

        def fn(z):
            calls.append(np.array(z))
            return np.sum(z * z, axis=-1) if batched else float(z @ z)

        fn.batched = batched
        x, d = np.array([0.5, -0.0, 2.0]), np.array([-1.0, 0.25, 3.0])
        steps = (0.0, 1e-5, -1e-5, 1.0, 2.0 ** 10)
        expected = [float(fn(x + t * d)) for t in steps]
        points, calls[:] = calls[:], []
        f = ObjectiveFn(fn, 3)
        phi = f._line(x.tolist(), d)
        for count, (t, value) in enumerate(zip(steps, expected), 1):
            result = phi(t)
            assert type(result) is float and result == value
            assert f.eval_count == count
        assert [c.tobytes() for c in calls] == [p.tobytes() for p in points]

    @pytest.mark.parametrize("fn", [rosenbrock_chained, lambda z: 0.0], ids=["family", "plain"])
    @pytest.mark.parametrize("x_shape, d_shape, message", [
        ((4,), (5,), "expected a point of shape (5,), got shape (4,)"),
        ((1, 5), (5,), "expected a point of shape (5,), got shape (1, 5)"),
    ])
    def test_a_line_of_the_wrong_shape_is_refused_uncounted(self, fn, x_shape, d_shape, message):
        f = ObjectiveFn(fn, 5)
        with pytest.raises(ValueError) as refused:
            f._line(np.zeros(x_shape), np.ones(d_shape))
        assert str(refused.value) == message
        assert f.eval_count == 0

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            ObjectiveFn(lambda x: 0.0, 0)

    def test_rejects_non_integral_dim(self):
        with pytest.raises(ValueError, match="2.7"):
            ObjectiveFn(lambda x: 0.0, 2.7)
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="True"):
                ObjectiveFn(lambda x: 0.0, flag)
        assert ObjectiveFn(lambda x: 0.0, np.int32(2)).dim == 2

    @pytest.mark.parametrize("name,dim", FAMILIES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rows_equal_single_calls_bitwise(self, name, dim, order):
        tf, x, rng = _family_point(name, dim, 0)
        assert tf.fn.batched
        X = np.array(x + 1e-3 * rng.standard_normal((40, dim)), order=order)
        f = ObjectiveFn(tf.fn, dim)
        values = f.eval_rows(X)
        assert values.shape == (40,)
        assert np.array_equal(values, [tf.fn(row) for row in np.array(X, order="C")])
        assert f.eval_count == 40
        f.eval_rows(X[:3])
        assert f.eval_count == 43

    @pytest.mark.parametrize("name,dim", FAMILIES)
    def test_rows_equal_single_calls_bitwise_but_for_a_nan_sign(self, name, dim):
        # row 17 holds a +NaN and a -NaN coordinate; its value is NaN both
        # ways, but its sign bit may differ (with numpy 2.4 it does for
        # rosenbrock2d), and every other row keeps its bits
        tf, x, rng = _family_point(name, dim, 5)
        X = x + 1e-3 * rng.standard_normal((40, dim))
        X[17, 0], X[17, -1] = np.nan, -np.nan
        values = ObjectiveFn(tf.fn, dim).eval_rows(X)
        singles = np.array([tf.fn(row) for row in X])
        assert np.flatnonzero(np.isnan(values)).tolist() == [17]
        assert np.flatnonzero(np.isnan(singles)).tolist() == [17]
        rest = np.arange(40) != 17
        assert np.array_equal(values[rest], singles[rest])

    def test_unmarked_callable_is_called_row_by_row(self):
        seen = []

        def fn(x):
            seen.append(x.shape)
            return float(np.sum(x * x))

        f = ObjectiveFn(fn, 3)
        X = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(f.eval_rows(X), [5.0, 50.0, 149.0, 302.0])
        assert seen == [(3,)] * 4
        assert f.eval_count == 4

    def test_batched_callable_gets_one_c_contiguous_call(self):
        seen = []

        def fn(X):
            seen.append((X.shape, X.flags.c_contiguous))
            return np.sum(X, axis=-1)

        fn.batched = True
        f = ObjectiveFn(fn, 3)
        f.eval_rows(np.asfortranarray(np.ones((5, 3))))
        assert seen == [((5, 3), True)]
        assert f.eval_count == 5

    @pytest.mark.parametrize("full,extra", [(1, 1), (3, 2)])
    def test_batched_callable_gets_consecutive_blocks(self, full, extra):
        # a block holds _BLOCK_BYTES // 24 rows at dim 3; m is `extra` rows
        # past `full` blocks
        rows = _BLOCK_BYTES // 24
        m = full * rows + extra
        seen = []

        def fn(X):
            seen.append((X.copy(), X.flags.c_contiguous))
            return np.sum(np.sin(X) * X, axis=-1)

        fn.batched = True
        X = np.random.default_rng(8).standard_normal((m, 3))
        f = ObjectiveFn(fn, 3)
        values = f.eval_rows(X)
        assert len(seen) == full + 1
        assert all(c_contiguous and len(block) <= rows for block, c_contiguous in seen)
        assert np.array_equal(np.concatenate([block for block, _ in seen]), X)
        assert np.array_equal(values, [fn(row) for row in X])
        assert f.eval_count == m

    def test_wrong_shape_from_a_later_block_raises(self):
        calls = []

        def fn(X):
            calls.append(len(X))
            return np.zeros(len(X) if len(calls) == 1 else len(X) + 1)

        fn.batched = True
        f = ObjectiveFn(fn, 3)
        m = _BLOCK_BYTES // 24 + 1
        with pytest.raises(ValueError, match=re.escape("returned shape (2,) for 1 points")):
            f.eval_rows(np.zeros((m, 3)))
        assert calls == [_BLOCK_BYTES // 24, 1]
        assert f.eval_count == m

    @pytest.mark.parametrize("name,dim", FAMILIES)
    def test_one_block_rows_equal_single_calls_bitwise(self, name, dim):
        # a lone row, each stencil's size and a whole block: one call each
        tf, x, rng = _family_point(name, dim, 9)
        f = ObjectiveFn(tf.fn, dim)
        for m in (1, dim + 1, 2 * dim, 4 * dim, f._block_rows):
            X = x + 1e-3 * rng.standard_normal((m, dim))
            values = f.eval_rows(X)
            assert values.dtype == np.float64 and values.flags.writeable
            assert values.tobytes() == np.array([tf.fn(row) for row in X]).tobytes()

    @pytest.mark.parametrize("extra_rows", [-4, 2], ids=["one block", "two blocks"])
    def test_block_values_are_converted_to_float(self, extra_rows):
        def fn(X):
            return np.sum(X, axis=-1, dtype=np.float32)

        fn.batched = True
        f = ObjectiveFn(fn, 3)
        X = np.random.default_rng(4).standard_normal((f._block_rows + extra_rows, 3))
        values = f.eval_rows(X)
        assert values.dtype == np.float64
        assert values.tolist() == [float(fn(row)) for row in X]

    @pytest.mark.parametrize("extra_rows", [-4, 4], ids=["one block", "two blocks"])
    def test_block_values_do_not_alias_the_callables_buffer(self, extra_rows):
        # the callable overwrites and returns one buffer; each result keeps
        # its own values
        def fn(X):
            return np.sum(X, axis=-1, out=buffer[:len(X)])

        fn.batched = True
        f = ObjectiveFn(fn, 2)
        buffer = np.empty(f._block_rows)
        m = f._block_rows + extra_rows
        first = f.eval_rows(np.ones((m, 2)))
        second = f.eval_rows(np.full((m, 2), 3.0))
        assert first.tolist() == [2.0] * m and second.tolist() == [6.0] * m
        assert not np.shares_memory(first, buffer)
        assert not np.shares_memory(second, buffer)

    @pytest.mark.parametrize("result, shape", [
        (lambda X: 0.0, ()),
        (lambda X: np.zeros((len(X), 1)), (4, 1)),
        (lambda X: np.zeros(len(X) + 1), (5,)),
        (lambda X: [0.0] * (len(X) - 1), (3,)),
    ], ids=["scalar", "column", "one too many", "list one short"])
    def test_batched_callable_returning_wrong_shape_raises(self, result, shape):
        # in one block, refused with its message after the rows are counted
        result.batched = True
        f = ObjectiveFn(result, 2)
        with pytest.raises(ValueError) as refused:
            f.eval_rows(np.zeros((4, 2)))
        assert str(refused.value) == f"batched objective returned shape {shape} for 4 points"
        assert f.eval_count == 4

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_rows_are_counted_before_the_callable_runs(self, blocks):
        # a callable that raises leaves every row counted, in one block or more
        def fn(X):
            raise RuntimeError("objective failed")

        fn.batched = True
        f = ObjectiveFn(fn, 3)
        m = (blocks - 1) * f._block_rows + 2
        with pytest.raises(RuntimeError, match="objective failed"):
            f.eval_rows(np.zeros((m, 3)))
        assert f.eval_count == m

    def test_rows_must_match_the_dimension(self):
        f = ObjectiveFn(rosenbrock2d, 2)
        with pytest.raises(ValueError):
            f.eval_rows(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            f.eval_rows(np.zeros(2))


class TestBasisMatrix:
    def test_identity_is_orthonormal(self):
        basis = BasisMatrix.identity(4)
        assert basis.orthonormal
        np.testing.assert_array_equal(basis.matrix, np.eye(4))

    def test_orthonormality_detected(self):
        assert BasisMatrix.rotation_2d(0.7).orthonormal
        assert not BasisMatrix(np.array([[2.0, 0.0], [0.0, 1.0]])).orthonormal

    @pytest.mark.parametrize("angle", [1, np.int8(1), np.float16(1.0), np.float32(1.0)])
    def test_rotation_takes_its_angle_as_a_float(self, angle):
        # numpy's cos and sin of a small dtype would give float16 entries,
        # 0.54052734 for cos 1, and a basis that does not measure orthonormal
        basis = BasisMatrix.rotation_2d(angle)
        assert basis.orthonormal
        assert basis.matrix.tobytes() == BasisMatrix.rotation_2d(1.0).matrix.tobytes()

    @pytest.mark.parametrize("angle", [True, "1", None, np.inf, -np.inf, np.nan,
                                       pytest.param(10**400, id="int-1e400")])
    def test_rotation_refuses_a_non_number_or_a_non_finite_angle(self, angle):
        # refused before numpy's cos could warn about an infinite angle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^angle must be"):
                BasisMatrix.rotation_2d(angle)

    def test_singular_rejected(self):
        with pytest.raises(IllConditionedBasisError):
            BasisMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_near_singular_rejected(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(IllConditionedBasisError):
            BasisMatrix(G)

    @pytest.mark.parametrize("G", [
        np.diag([1e200, 1e200]),
        1e300 * np.array([[0.6, -0.8], [0.8, 0.6]]),
    ], ids=["diagonal", "rotation"])
    def test_well_conditioned_basis_with_large_entries_accepted(self, G):
        # G^T G and the squared column norms overflow; max |G| > 2 skips
        # the first and a power-of-two rescaling the second
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = BasisMatrix(G)
        assert not basis.orthonormal
        assert basis.matrix.tolist() == G.tolist()

    @pytest.mark.parametrize("big", [1e150, 2e154])
    def test_large_column_makes_a_unit_column_dependent(self, big):
        # |R[1, 1]| = 1 is below 1e-10 times the largest column norm,
        # whether or not that norm's square overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedBasisError, match="column 1 "):
                BasisMatrix(np.diag([big, 1.0]))

    @pytest.mark.parametrize("scale", [1.0, 1e-170])
    def test_dependent_matrix_with_tiny_entries_rejected(self, scale):
        # at 1e-170 the squared column norms underflow to 0, and so would a
        # tolerance taken from them
        G = scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        with pytest.raises(IllConditionedBasisError, match="column 1 "):
            BasisMatrix(G)

    def test_matrix_is_read_only(self):
        basis = BasisMatrix.identity(2)
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 5.0

    def test_orthonormality_defect_equals_subtracting_the_identity(self):
        # the defect subtracts 1 from the diagonal in place; subtracting a
        # whole identity must give the same bits
        rng = np.random.default_rng(3)
        for n in range(1, 31):
            Q = mgs_orthonormalize(rng.standard_normal((n, n))).matrix
            for noise in (0.0, 1e-15, 1e-13, 1e-3):
                G = Q + noise * rng.standard_normal((n, n))
                expected = float(np.abs(G.T @ G - np.eye(n)).sum(axis=1).max())
                assert _orthonormality_defect(G) == expected

    def test_identity_is_built_once_per_dimension(self):
        basis = BasisMatrix.identity(6)
        assert BasisMatrix.identity(6) is basis
        assert BasisMatrix.identity(5) is not basis
        assert not basis.matrix.flags.writeable
        with pytest.raises(ValueError):
            basis.matrix[1, 1] = 0.0
        np.testing.assert_array_equal(BasisMatrix.identity(6).matrix, np.eye(6))

    @pytest.mark.parametrize("n", [True, False, np.True_, 1.0, 3.0, 2.0, "3", 0, -1, None],
                             ids=repr)
    @pytest.mark.parametrize("cached", [False, True], ids=["fresh cache", "warm cache"])
    def test_identity_refuses_an_n_that_is_not_a_positive_integer(self, n, cached):
        # the answer must not depend on what the cache holds
        BasisMatrix._identity.cache_clear()
        if cached:
            BasisMatrix.identity(1)
            BasisMatrix.identity(3)
        with pytest.raises(ValueError) as refused:
            BasisMatrix.identity(n)
        assert str(refused.value).startswith("n must be an integer")

    def test_identity_takes_a_numpy_integer_as_the_same_n(self):
        basis = BasisMatrix.identity(np.int64(7))
        assert BasisMatrix.identity(7) is basis
        assert BasisMatrix.identity(np.int32(7)) is basis
        np.testing.assert_array_equal(basis.matrix, np.eye(7))


@st.composite
def square_matrices(draw):
    """A finite square matrix whose largest column norm is at least 2^-500:
    generic, with a column nearly dependent on the ones before it, or with
    columns of very different lengths, at scales from 1e-150 to 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 9))
    M = rng.standard_normal((n, n))
    kind = draw(st.sampled_from(["generic", "dependent", "column scales"]))
    if kind == "dependent" and n > 1:
        j = int(rng.integers(1, n))
        M[:, j] = M[:, :j] @ rng.standard_normal(j)
        M[:, j] += 10.0 ** rng.uniform(-16.0, -8.0) * rng.standard_normal(n)
    elif kind == "column scales":
        M *= 10.0 ** rng.uniform(-12.0, 12.0, n)
    with np.errstate(over="ignore"):
        M *= 10.0 ** draw(st.floats(-150.0, 300.0))
        assume(np.isfinite(M).all())
        assume(np.linalg.norm(M, axis=0).max() >= 2.0 ** -500)
    return M


class TestHouseholderQ:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(square_matrices())
    def test_unchanged_where_column_norms_do_not_underflow(self, M):
        # only a matrix whose largest column norm is below 2^-500 is scaled
        # anew; any other gets the Q and the decision it got before
        expected = reference_householder_q(M)
        if isinstance(expected, int):
            with pytest.raises(IllConditionedBasisError, match=f"column {expected} "):
                _householder_q(M)
        else:
            assert _householder_q(M).tobytes() == expected.tobytes()


class TestDirectionalDerivative:
    def test_linear_exact(self):
        f = ObjectiveFn(lambda x: float(x[0]), 2)
        d = directional_derivative(f, np.zeros(2), np.array([1.0, 0.0]), FdScheme())
        assert d == 1.0

    def test_banana_first_axis(self):
        # analytic d/dx1 at (-0.29, 0.40) is 34.0644; central truncation
        # is (h^2/6)*fxxx = -1.16e-4
        f = ObjectiveFn(rosenbrock2d, 2)
        d = directional_derivative(f, X_BANANA, np.array([1.0, 0.0]), FdScheme())
        assert abs(d - 34.0644) < 2e-4

    def test_quadratic_exact_to_rounding(self):
        f = ObjectiveFn(lambda x: 0.5 * float(x @ x), 2)
        d = directional_derivative(f, np.array([3.0, -2.0]), np.array([0.0, 1.0]), FdScheme())
        assert abs(d - (-2.0)) < 1e-10

    def test_non_unit_direction_rejected(self):
        f = ObjectiveFn(lambda x: float(x[0]), 2)
        # |u|^2 of the last overflows: refused, not warned about
        for u in ([1.0, 1.0], [np.nan, 0.0], [1e200, 0.0]):
            with pytest.raises(ValueError, match="unit vector"):
                directional_derivative(f, np.zeros(2), np.array(u), FdScheme())
        with pytest.raises(ValueError, match="direction must match"):
            directional_derivative(f, np.zeros(2), np.array([1.0, 0.0, 0.0]), FdScheme())

    def test_fourth_order_matches_on_smooth_function(self):
        f = ObjectiveFn(lambda x: float(np.sin(x[0]) * np.cos(x[1])), 2)
        x = np.array([0.3, -1.1])
        u = np.array([1.0, 0.0])
        d4 = directional_derivative(f, x, u, FdScheme("central4"))
        assert abs(d4 - np.cos(0.3) * np.cos(-1.1)) < 1e-11


class TestVanillaGradient:
    def test_linear_exact(self):
        a = np.array([2.0, -1.0, 0.5])
        f = ObjectiveFn(lambda x: float(a @ x), 3)
        for x in (np.zeros(3), np.array([0.3, -1.2, 2.0])):
            est = vanilla_gradient(f, x, FdScheme())
            np.testing.assert_allclose(est.values, a, atol=1e-10)

    def test_banana_point(self):
        f = ObjectiveFn(rosenbrock2d, 2)
        est = vanilla_gradient(f, X_BANANA, FdScheme())
        # second component has zero third derivative, so it is rounding-exact
        assert abs(est.values[0] - 34.0644) < 2e-4
        assert abs(est.values[1] - 63.18) < 1e-9

    def test_banana_minimum(self):
        # the estimate at the optimum is pure truncation: (h^2/6)*2400 = 4e-4
        # in component 1, zero in component 2
        f = ObjectiveFn(rosenbrock2d, 2)
        est = vanilla_gradient(f, np.ones(2), FdScheme())
        assert abs(est.values[0]) < 5e-4
        assert abs(est.values[1]) < 1e-9

    @pytest.mark.parametrize(
        "scheme,expected",
        [
            (FdScheme("central1"), lambda n: 2 * n),
            (FdScheme("central4"), lambda n: 4 * n),
            (FdScheme("forward1"), lambda n: n + 1),
        ],
    )
    def test_evaluation_accounting(self, scheme, expected):
        n = 5
        f = ObjectiveFn(lambda x: float(np.sum(x**3)), n)
        est = vanilla_gradient(f, np.linspace(-1, 1, n), scheme)
        assert est.evals_used == expected(n)
        assert f.eval_count == expected(n)


class TestGradientInBasis:
    def test_identity_reduces_to_vanilla_bitwise(self):
        f1 = ObjectiveFn(rosenbrock2d, 2)
        f2 = ObjectiveFn(rosenbrock2d, 2)
        a = vanilla_gradient(f1, X_BANANA, FdScheme())
        b = gradient_in_basis(f2, X_BANANA, BasisMatrix.identity(2), FdScheme())
        assert a.values.tobytes() == b.values.tobytes()

    def test_linear_invariant_under_orthonormal_basis(self):
        rng = np.random.default_rng(7)
        a = np.array([1.5, -2.0, 0.25, 3.0])
        f = ObjectiveFn(lambda x: float(a @ x), 4)
        basis = mgs_orthonormalize(rng.standard_normal((4, 4)))
        est = gradient_in_basis(f, rng.standard_normal(4), basis, FdScheme())
        np.testing.assert_allclose(est.values, a, atol=1e-10)

    def test_linear_in_general_basis_uses_solve(self):
        rng = np.random.default_rng(3)
        a = np.array([0.5, 2.0])
        f = ObjectiveFn(lambda x: float(a @ x), 2)
        G = BasisMatrix(np.array([[1.0, 1.0], [0.0, 2.0]]))
        assert not G.orthonormal
        est = gradient_in_basis(f, np.zeros(2), G, FdScheme())
        np.testing.assert_allclose(est.values, a, atol=1e-10)

    def test_rotated_banana_close_to_analytic_but_not_vanilla(self):
        f = ObjectiveFn(rosenbrock2d, 2)
        basis = BasisMatrix.rotation_2d(np.pi / 4)
        est = gradient_in_basis(f, X_BANANA, basis, FdScheme())
        exact = rosenbrock2d_grad(X_BANANA)
        np.testing.assert_allclose(est.values, exact, atol=2e-1)
        van = vanilla_gradient(ObjectiveFn(rosenbrock2d, 2), X_BANANA, FdScheme())
        assert not np.array_equal(est.values, van.values)

    def test_norm_invariance_on_quadratic(self):
        rng = np.random.default_rng(11)
        A = np.array([[2.0, 0.4], [0.4, 1.0]])
        f = ObjectiveFn(lambda x: 0.5 * float(x @ A @ x), 2)
        x = np.array([0.7, -1.3])
        basis = BasisMatrix.rotation_2d(rng.uniform(0, np.pi))
        est = gradient_in_basis(f, x, basis, FdScheme())
        assert abs(np.linalg.norm(est.values) - np.linalg.norm(A @ x)) < 1e-9

    def test_dimension_mismatch_rejected(self):
        f = ObjectiveFn(lambda x: float(x[0]), 2)
        with pytest.raises(ValueError):
            gradient_in_basis(f, np.zeros(3), BasisMatrix.identity(2), FdScheme())
        with pytest.raises(ValueError, match="basis dimension"):
            gradient_in_basis(f, np.zeros(2), BasisMatrix.identity(3), FdScheme())


class TestHessianInBasis:
    A = np.array([[2.0, 1.0], [1.0, 3.0]])

    def _quad(self):
        return ObjectiveFn(lambda x: 0.5 * float(x @ self.A @ x), 2)

    def test_quadratic_identity_basis(self):
        est = hessian_in_basis(self._quad(), np.array([0.4, -1.0]),
                               BasisMatrix.identity(2), FdScheme())
        np.testing.assert_allclose(est.values, self.A, atol=1e-6)

    def test_quadratic_rotated_basis(self):
        est = hessian_in_basis(self._quad(), np.array([0.4, -1.0]),
                               BasisMatrix.rotation_2d(0.7), FdScheme())
        np.testing.assert_allclose(est.values, self.A, atol=1e-6)

    def test_banana_hessian_at_minimum(self):
        f = ObjectiveFn(rosenbrock2d, 2)
        est = hessian_in_basis(f, np.ones(2), BasisMatrix.identity(2), FdScheme())
        target = np.array([[802.0, -400.0], [-400.0, 200.0]])
        np.testing.assert_allclose(est.values, target, rtol=1e-2)

    def test_exactly_symmetric(self):
        f = ObjectiveFn(lambda x: float(np.sum(np.sin(x)) * x[0]), 3)
        basis = mgs_orthonormalize(np.random.default_rng(5).standard_normal((3, 3)))
        est = hessian_in_basis(f, np.array([0.1, 0.2, 0.3]), basis, FdScheme())
        assert np.array_equal(est.values, est.values.T)

    def test_evaluation_accounting(self):
        n = 3
        f = ObjectiveFn(lambda x: float(np.sum(x**4)), n)
        est = hessian_in_basis(f, np.zeros(n), BasisMatrix.identity(n), FdScheme())
        assert est.evals_used == 2 * n * n + 1
        assert f.eval_count == 2 * n * n + 1

    def test_non_orthonormal_basis_rejected(self):
        G = BasisMatrix(np.array([[1.0, 1.0], [0.0, 2.0]]))
        with pytest.raises(ValueError):
            hessian_in_basis(self._quad(), np.zeros(2), G, FdScheme())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="basis dimension"):
            hessian_in_basis(self._quad(), np.zeros(2), BasisMatrix.identity(3), FdScheme())

    def test_pair_indices_are_built_once_per_dimension(self):
        pairs = _lower_pairs(6)
        assert _lower_pairs(6) is pairs
        assert _lower_pairs(5) is not pairs
        for index, expected in zip(pairs, np.tril_indices(6, -1)):
            np.testing.assert_array_equal(index, expected)
        for index in pairs:
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 0
        # the layout's take of [diagonal | cross] is np.diag of the diagonal
        # with the cross entries assigned below and above it
        rng = np.random.default_rng(3)
        for n in (1, 2, 6):
            i, j, layout = _lower_pairs(n)
            assert layout.shape == (n * n,)
            diagonal, cross = rng.standard_normal(n), rng.standard_normal(i.size)
            expected = np.diag(diagonal)
            expected[i, j] = cross
            expected[j, i] = cross
            taken = np.concatenate([diagonal, cross]).take(layout).reshape(n, n)
            assert taken.tobytes() == expected.tobytes()

    def test_peak_memory_is_the_points_and_one_gather(self):
        # the (2n^2 + 1, n) points plus one (n(n-1)/2, n) gather is 1.25x;
        # a copy of all the points would be 2x
        n = 60

        def first(X):
            return X[..., 0]

        first.batched = True
        f = ObjectiveFn(first, n)
        tracemalloc.start()
        try:
            hessian_in_basis(f, np.zeros(n), BasisMatrix.identity(n), FdScheme())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (2 * n * n + 1) * n * 8

    def test_peak_memory_of_a_testbed_hessian(self):
        # the objective gets the points in blocks, so its temporaries stay
        # small beside the points; one call on all the points peaks at 3x them
        n = 60
        tf, x, _ = _family_point("rosenbrock-chained", n, 5)
        f = ObjectiveFn(tf.fn, n)
        tracemalloc.start()
        try:
            hessian_in_basis(f, x, BasisMatrix.identity(n), FdScheme())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (2 * n * n + 1) * n * 8


def _basis(kind, dim, rng):
    if kind == "identity":
        return BasisMatrix.identity(dim)
    M = rng.standard_normal((dim, dim))
    if kind == "orthonormal":
        return mgs_orthonormalize(M)
    basis = BasisMatrix(M + dim * np.eye(dim))
    assert not basis.orthonormal
    return basis


class TestAgreesWithScalarStencilsBitwise:
    """Batched stencils against the one-point-per-call loops they replaced."""

    @pytest.mark.parametrize("name,dim", FAMILIES)
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("kind", ["identity", "orthonormal", "general"])
    def test_gradient_in_basis(self, name, dim, scheme, kind):
        tf, x, rng = _family_point(name, dim, 1)
        basis = _basis(kind, dim, rng)
        est = gradient_in_basis(ObjectiveFn(tf.fn, dim), x, basis, scheme)
        assert np.array_equal(est.values, reference_gradient_in_basis(tf.fn, x, basis, scheme))

    @pytest.mark.parametrize("name,dim", FAMILIES)
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_directional_derivative(self, name, dim, scheme):
        tf, x, rng = _family_point(name, dim, 2)
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        d = directional_derivative(ObjectiveFn(tf.fn, dim), x, u, scheme)
        assert d == reference_stencil_value(tf.fn, x, u, scheme)

    @pytest.mark.parametrize("name,dim", FAMILIES)
    @pytest.mark.parametrize("kind", ["identity", "orthonormal"])
    def test_hessian_in_basis(self, name, dim, kind):
        tf, x, rng = _family_point(name, dim, 3)
        basis = _basis(kind, dim, rng)
        est = hessian_in_basis(ObjectiveFn(tf.fn, dim), x, basis, FdScheme())
        assert np.array_equal(est.values, reference_hessian_in_basis(tf.fn, x, basis, FdScheme()))

    # batches of more than one block
    @pytest.mark.parametrize("name", ["rosenbrock-chained", "freudenstein-roth"])
    def test_blocked_hessian_in_basis(self, name):
        assert 2 * 40 * 40 + 1 > _BLOCK_BYTES // (8 * 40)
        tf, x, rng = _family_point(name, 40, 6)
        basis = _basis("orthonormal", 40, rng)
        f = ObjectiveFn(tf.fn, 40)
        est = hessian_in_basis(f, x, basis, FdScheme())
        assert np.array_equal(est.values, reference_hessian_in_basis(tf.fn, x, basis, FdScheme()))
        assert est.evals_used == f.eval_count == 2 * 40 * 40 + 1

    def test_blocked_gradient_in_basis(self):
        assert 4 * 64 > _BLOCK_BYTES // (8 * 64)
        scheme = FdScheme("central4")
        tf, x, rng = _family_point("rosenbrock-chained", 64, 7)
        basis = _basis("orthonormal", 64, rng)
        est = gradient_in_basis(ObjectiveFn(tf.fn, 64), x, basis, scheme)
        assert np.array_equal(est.values, reference_gradient_in_basis(tf.fn, x, basis, scheme))
        assert est.evals_used == 4 * 64

    @pytest.mark.parametrize("dim,batched", [(1, True), (3, False)])
    def test_hessian_in_basis_at_the_edges(self, dim, batched):
        # n = 1 has no cross stencils; an unmarked callable is called row by row
        def fn(x):
            return np.sum(np.sin(3.0 * x) * x, axis=-1) + np.sum(x, axis=-1) ** 4

        if batched:
            fn.batched = True
        rng = np.random.default_rng(4)
        x = rng.standard_normal(dim)
        basis = _basis("orthonormal", dim, rng)
        f = ObjectiveFn(fn, dim)
        est = hessian_in_basis(f, x, basis, FdScheme())
        assert np.array_equal(est.values, reference_hessian_in_basis(fn, x, basis, FdScheme()))
        assert est.evals_used == f.eval_count == 2 * dim * dim + 1
