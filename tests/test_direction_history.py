import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradbench.direction_history import DirectionHistory, mgs_orthonormalize
from gradbench.finite_difference import BasisMatrix
from oracle import reference_mgs

# derandomized so every run draws the same examples; no example database
PROPERTY_SETTINGS = settings(
    max_examples=300, derandomize=True, database=None, deadline=None
)


def orthonormality_defect(Q):
    E = Q.T @ Q - np.eye(Q.shape[1])
    return np.abs(E).sum(axis=1).max()


class TestMgsOrthonormalize:
    def test_identity_fixed_point(self):
        out = mgs_orthonormalize(np.eye(3))
        np.testing.assert_array_equal(out.matrix, np.eye(3))

    def test_worked_example_first_step(self):
        M = np.array([[0.11, 1.0], [1.80, 0.0]])
        out = mgs_orthonormalize(M).matrix
        np.testing.assert_allclose(
            out, [[0.0610, 0.9981], [0.9981, -0.0610]], atol=5e-4
        )

    def test_worked_example_second_step(self):
        M = np.array([[9.65, 0.0610], [-0.47, 0.9981]])
        out = mgs_orthonormalize(M).matrix
        np.testing.assert_allclose(
            out, [[0.9989, 0.0486], [-0.0486, 0.9989]], atol=5e-4
        )

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 7):
            M = rng.standard_normal((n, n))
            once = mgs_orthonormalize(M).matrix
            twice = mgs_orthonormalize(once).matrix
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_span_preserved_on_full_rank_input(self):
        # compare the projector QQ^T against one from an independent
        # factorization (SVD) of the same column space
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 8):
            M = rng.standard_normal((n, n))
            Q = mgs_orthonormalize(M).matrix
            U = np.linalg.svd(M)[0]
            np.testing.assert_allclose(Q @ Q.T, U @ U.T, atol=1e-8)

    def test_matches_qr_up_to_column_signs(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 5))
        Q = mgs_orthonormalize(M).matrix
        Qr, R = np.linalg.qr(M)
        Qr = Qr * np.sign(np.diag(R))
        np.testing.assert_allclose(Q, Qr, atol=1e-10)

    def test_determinant_is_unit(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            Q = mgs_orthonormalize(rng.standard_normal((n, n))).matrix
            assert abs(abs(np.linalg.det(Q)) - 1.0) < 1e-10

    def test_rank_deficient_recovers_full_basis(self):
        M = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
        out = mgs_orthonormalize(M)
        assert orthonormality_defect(out.matrix) <= 1e-12

    def test_zero_matrix_recovers_full_basis(self):
        out = mgs_orthonormalize(np.zeros((3, 3)))
        assert orthonormality_defect(out.matrix) <= 1e-12

    def test_near_parallel_columns_stay_orthonormal(self):
        # single-pass MGS would lose ~eps/1e-9 of orthogonality here
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6)
        M = np.column_stack([v, v + 1e-9 * rng.standard_normal(6),
                             *rng.standard_normal((4, 6))])
        out = mgs_orthonormalize(M)
        assert orthonormality_defect(out.matrix) <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mgs_orthonormalize(np.ones((2, 3)))


class TestDirectionHistory:
    def test_fresh_history_is_identity(self):
        hist = DirectionHistory(3)
        np.testing.assert_array_equal(hist.basis.matrix, np.eye(3))
        assert hist.updates_seen == 0

    def test_worked_example_sequence(self):
        hist = DirectionHistory(2)
        hist.update(np.array([0.11, 1.80]))
        np.testing.assert_allclose(
            hist.basis.matrix, [[0.0610, 0.9981], [0.9981, -0.0610]], atol=5e-4
        )
        hist.update(np.array([9.65, -0.47]))
        np.testing.assert_allclose(
            hist.basis.matrix, [[0.9989, 0.0486], [-0.0486, 0.9989]], atol=5e-4
        )
        assert hist.updates_seen == 2

    def test_zero_step_leaves_history_unchanged(self):
        hist = DirectionHistory(2)
        hist.update(np.array([1.0, 2.0]))
        before = hist.basis.matrix.copy()
        hist.update(np.zeros(2))
        np.testing.assert_array_equal(hist.basis.matrix, before)
        assert hist.updates_seen == 1

    def test_leading_column_is_normalized_step(self):
        rng = np.random.default_rng(5)
        hist = DirectionHistory(4)
        for _ in range(10):
            delta = rng.standard_normal(4)
            hist.update(delta)
            np.testing.assert_allclose(
                hist.basis.matrix[:, 0], delta / np.linalg.norm(delta), atol=1e-12
            )

    def test_orthonormal_after_every_update(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 8):
            hist = DirectionHistory(n)
            for _ in range(25):
                hist.update(rng.standard_normal(n))
                assert orthonormality_defect(hist.basis.matrix) <= 1e-12

    def test_repeated_direction_recovers(self):
        # the same step twice makes the candidate rank deficient
        hist = DirectionHistory(3)
        step = np.array([1.0, 2.0, -1.0])
        hist.update(step)
        hist.update(step)
        assert orthonormality_defect(hist.basis.matrix) <= 1e-12
        assert hist.updates_seen == 2

    def test_storage_is_single_matrix(self):
        hist = DirectionHistory(5)
        rng = np.random.default_rng(7)
        for _ in range(100):
            hist.update(rng.standard_normal(5))
        assert hist.basis.matrix.shape == (5, 5)

    def test_basis_is_basis_matrix(self):
        hist = DirectionHistory(2)
        hist.update(np.array([1.0, 1.0]))
        assert isinstance(hist.basis, BasisMatrix)
        assert hist.basis.orthonormal

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DirectionHistory(3).update(np.ones(2))

    @pytest.mark.parametrize("norm", [2e-14, 1e-12, 9e-11])
    def test_tiny_step_puts_first_axis_in_front(self, norm):
        # A step above the 1e-14 no-movement threshold but at or below the
        # 1e-10 dependence tolerance is itself degenerate: the leading
        # column becomes e_0 (no column before it, so every axis ties), not
        # the step's direction, and the older directions follow behind it.
        rng = np.random.default_rng(8)
        n = 5
        hist = DirectionHistory(n)
        for _ in range(3):
            hist.update(rng.standard_normal(n))
        before = hist.basis.matrix.copy()
        delta = rng.standard_normal(n)
        delta *= norm / np.linalg.norm(delta)
        hist.update(delta)
        assert hist.updates_seen == 4
        Q = hist.basis.matrix
        np.testing.assert_allclose(Q[:, 0], np.eye(n)[0], rtol=0, atol=1e-15)
        reference, _ = reference_mgs(np.column_stack([delta, before[:, : n - 1]]))
        np.testing.assert_allclose(Q, reference, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 25, 30])
    def test_no_drift_over_many_updates(self, n):
        # Each update builds on the last, so rounding in one basis is
        # carried into every later one; it must not accumulate.
        rng = np.random.default_rng(n)
        hist = DirectionHistory(n)
        for _ in range(2000):
            before = hist.basis.matrix
            delta = rng.standard_normal(n)
            hist.update(delta)
            Q = hist.basis.matrix
            assert orthonormality_defect(Q) <= 1e-13
            M = np.column_stack([delta, before[:, : n - 1]])
            reference, _ = reference_mgs(M)
            assert np.abs(Q - reference).max() <= 1e-13 * np.linalg.cond(M)


class TestAgreesWithReferenceMgs:
    """The Householder QR against the column-by-column MGS it replaced."""

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 20),
        log_cond=st.floats(0.0, 8.0),
        log_scale=st.floats(-6.0, 6.0),
    )
    def test_full_rank_input(self, seed, n, log_cond, log_scale):
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = (U * np.logspace(log_scale, log_scale - log_cond, n)) @ V.T
        Q = mgs_orthonormalize(M).matrix
        reference, _ = reference_mgs(M)
        assert np.abs(Q - reference).max() <= 1e-13 * np.linalg.cond(M)

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        kinds=st.lists(
            st.sampled_from(["parallel", "span2", "tiny", "generic"]),
            min_size=1,
            max_size=8,
        ),
    )
    def test_update_sequences(self, seed, n, kinds):
        # Degenerate steps make the candidate rank deficient, so a column is
        # replaced by the spare canonical axis.  Where two axis masses tie to
        # rounding, the two orthonormalizations may pick different axes; both
        # bases are valid, and the reference continues from the library's.
        rng = np.random.default_rng(seed)
        hist = DirectionHistory(n)
        reference = np.eye(n)
        for kind in kinds:
            G = hist.basis.matrix
            if kind == "parallel":
                delta = rng.normal() * G[:, rng.integers(0, n)]
            elif kind == "span2":
                delta = rng.normal() * G[:, 0] + rng.normal() * G[:, 1]
            elif kind == "tiny":
                delta = 10.0 ** rng.uniform(-13.9, -10.0) * rng.standard_normal(n)
            else:
                delta = rng.standard_normal(n)
            if np.linalg.norm(delta) <= 1e-14:
                continue
            hist.update(delta)
            Q = hist.basis.matrix
            if kind != "tiny":  # a tiny step is itself replaced as degenerate
                np.testing.assert_allclose(
                    Q[:, 0], delta / np.linalg.norm(delta), rtol=0, atol=1e-14
                )
            reference, tie_gap = reference_mgs(
                np.column_stack([delta, reference[:, : n - 1]])
            )
            assert np.abs(Q - reference).max() <= 1e-8 or tie_gap < 1e-12
            reference = Q
