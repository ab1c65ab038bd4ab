import numpy as np
import pytest

from gradbench.finite_difference import (
    BasisMatrix,
    FdScheme,
    IllConditionedBasisError,
    ObjectiveFn,
    _orthonormality_defect,
    directional_derivative,
    gradient_in_basis,
    hessian_in_basis,
    vanilla_gradient,
)
from gradbench.direction_history import mgs_orthonormalize
from gradbench.testbed import get_test_function, rosenbrock2d, rosenbrock2d_grad
from oracle import (
    reference_gradient_in_basis,
    reference_hessian_in_basis,
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
SCHEMES = [FdScheme("central", 1), FdScheme("central", 4), FdScheme("forward", 1)]


def _family_point(name, dim, seed):
    """A test function and a point drawn around its optimum."""
    tf = get_test_function(name, dim)
    rng = np.random.default_rng(seed)
    return tf, tf.optimum + 0.5 * rng.standard_normal(dim), rng


class TestFdScheme:
    def test_defaults(self):
        scheme = FdScheme()
        assert scheme.kind == "central"
        assert scheme.order == 1
        assert scheme.step == 1e-3

    def test_forward_fourth_rejected(self):
        with pytest.raises(ValueError):
            FdScheme(kind="forward", order=4)

    @pytest.mark.parametrize("step", [0.0, -1e-3, np.inf, np.nan])
    def test_nonpositive_step_rejected(self, step):
        with pytest.raises(ValueError):
            FdScheme(step=step)

    def test_unknown_kind_and_order_rejected(self):
        with pytest.raises(ValueError):
            FdScheme(kind="backward")
        with pytest.raises(ValueError):
            FdScheme(order=2)

    def test_from_name(self):
        assert FdScheme.from_name("central1") == FdScheme("central", 1, 1e-3)
        assert FdScheme.from_name("central4", step=1e-2) == FdScheme("central", 4, 1e-2)
        assert FdScheme.from_name("forward1") == FdScheme("forward", 1, 1e-3)
        with pytest.raises(ValueError):
            FdScheme.from_name("central2")


class TestObjectiveFn:
    def test_counts_every_evaluation(self):
        f = ObjectiveFn(lambda x: float(np.sum(x**2)), 3)
        assert f.eval_count == 0
        f(np.zeros(3))
        f(np.ones(3))
        assert f.eval_count == 2

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            ObjectiveFn(lambda x: 0.0, 0)

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

    @pytest.mark.parametrize("result", [lambda X: 0.0, lambda X: np.zeros((len(X), 1)),
                                        lambda X: np.zeros(len(X) + 1)])
    def test_batched_callable_returning_wrong_shape_raises(self, result):
        result.batched = True
        with pytest.raises(ValueError):
            ObjectiveFn(result, 2).eval_rows(np.zeros((4, 2)))

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

    def test_orthonormal_flag_verified(self):
        with pytest.raises(ValueError):
            BasisMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), orthonormal=True)

    def test_orthonormality_detected(self):
        assert BasisMatrix.rotation_2d(0.7).orthonormal
        assert not BasisMatrix(np.array([[2.0, 0.0], [0.0, 1.0]])).orthonormal

    def test_singular_rejected(self):
        with pytest.raises(IllConditionedBasisError):
            BasisMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_near_singular_rejected(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(IllConditionedBasisError):
            BasisMatrix(G)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            BasisMatrix(np.ones((2, 3)))

    def test_matrix_is_read_only(self):
        basis = BasisMatrix.identity(2)
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 5.0

    def test_orthonormality_defect_equals_subtracting_the_identity(self):
        # the defect subtracts 1 on the diagonal in place; a fresh identity
        # must give the same bits
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
        with pytest.raises(ValueError):
            directional_derivative(f, np.zeros(2), np.array([1.0, 1.0]), FdScheme())

    def test_fourth_order_matches_on_smooth_function(self):
        f = ObjectiveFn(lambda x: float(np.sin(x[0]) * np.cos(x[1])), 2)
        x = np.array([0.3, -1.1])
        u = np.array([1.0, 0.0])
        d4 = directional_derivative(f, x, u, FdScheme(order=4))
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
            (FdScheme("central", 1), lambda n: 2 * n),
            (FdScheme("central", 4), lambda n: 4 * n),
            (FdScheme("forward", 1), lambda n: n + 1),
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
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: f"{s.kind}{s.order}")
    @pytest.mark.parametrize("kind", ["identity", "orthonormal", "general"])
    def test_gradient_in_basis(self, name, dim, scheme, kind):
        tf, x, rng = _family_point(name, dim, 1)
        basis = _basis(kind, dim, rng)
        est = gradient_in_basis(ObjectiveFn(tf.fn, dim), x, basis, scheme)
        assert np.array_equal(est.values, reference_gradient_in_basis(tf.fn, x, basis, scheme))

    @pytest.mark.parametrize("name,dim", FAMILIES)
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: f"{s.kind}{s.order}")
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
