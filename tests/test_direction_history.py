import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradbench import direction_history
from gradbench.direction_history import DirectionHistory, mgs_orthonormalize
from gradbench.finite_difference import BasisMatrix, IllConditionedBasisError
from oracle import reference_history_step, reference_mgs

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
        assert np.array_equal(Q, Qr)

    def test_determinant_is_unit(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            Q = mgs_orthonormalize(rng.standard_normal((n, n))).matrix
            assert abs(abs(np.linalg.det(Q)) - 1.0) < 1e-10

    def test_rank_deficient_rejected(self):
        M = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(IllConditionedBasisError, match="column 1 "):
            mgs_orthonormalize(M)

    def test_zero_matrix_rejected(self):
        with pytest.raises(IllConditionedBasisError, match="column 0 "):
            mgs_orthonormalize(np.zeros((3, 3)))

    def test_rejects_what_basis_matrix_rejects(self):
        # column j is a combination of the columns before it, off by at most
        # rel times the largest column norm: both raise the same error
        rng = np.random.default_rng(10)
        for j in range(4):
            for rel in (0.0, 1e-12, 5e-11):
                M = rng.standard_normal((4, 4))
                M[:, j] = M[:, :j] @ rng.standard_normal(j)
                e = rng.standard_normal(4)
                M[:, j] += rel * np.linalg.norm(M, axis=0).max() * e / np.linalg.norm(e)
                messages = []
                for build in (BasisMatrix, mgs_orthonormalize):
                    with pytest.raises(IllConditionedBasisError, match=f"column {j} ") as info:
                        build(M)
                    messages.append(str(info.value))
                assert messages[0] == messages[1]

    def test_near_parallel_columns_stay_orthonormal(self):
        # single-pass MGS would lose ~eps/1e-9 of orthogonality here
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6)
        M = np.column_stack([v, v + 1e-9 * rng.standard_normal(6),
                             *rng.standard_normal((4, 6))])
        out = mgs_orthonormalize(M)
        assert orthonormality_defect(out.matrix) <= 1e-12

    @pytest.mark.parametrize("matrix,match", [
        (np.ones((2, 3)), "square"),
        (np.zeros((0, 0)), "at least 1x1"),
        (np.array([[1.0, 0.0], [np.nan, 1.0]]), "finite"),
    ], ids=["non-square", "empty", "non-finite"])
    def test_malformed_matrix_rejected(self, matrix, match):
        with pytest.raises(ValueError, match=match):
            mgs_orthonormalize(matrix)

    @pytest.mark.parametrize("M,Q", [
        (np.diag([1e200, 1e200]), np.eye(2)),
        (1e300 * np.array([[0.6, -0.8], [0.8, 0.6]]), [[0.6, -0.8], [0.8, 0.6]]),
    ], ids=["diagonal", "rotation"])
    def test_large_entries_whose_norms_overflow(self, M, Q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mgs_orthonormalize(M)
        np.testing.assert_allclose(out.matrix, Q, rtol=0, atol=1e-15)
        with pytest.raises(IllConditionedBasisError, match="column 1 "):
            mgs_orthonormalize(np.diag([2e154, 1.0]))

    @pytest.mark.parametrize("scale", [1.0, 1e-170])
    def test_dependent_matrix_with_tiny_entries_rejected(self, scale):
        M = scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        with pytest.raises(IllConditionedBasisError, match="column 1 "):
            mgs_orthonormalize(M)

    def test_result_that_is_not_orthonormal_raises(self, monkeypatch):
        # a full-rank Q scaled by 1 + 1e-9 is a valid general BasisMatrix;
        # the orthonormal result promised here must refuse it
        householder_q = direction_history._householder_q
        monkeypatch.setattr(direction_history, "_householder_q",
                            lambda M: householder_q(M) * (1.0 + 1e-9))
        M = np.random.default_rng(11).standard_normal((4, 4))
        with pytest.raises(ValueError, match="orthonormal"):
            mgs_orthonormalize(M)


class TestDirectionHistory:
    def test_fresh_history_is_identity(self):
        hist = DirectionHistory(3)
        np.testing.assert_array_equal(hist.basis.matrix, np.eye(3))
        assert hist.updates_seen == 0

    def test_update_that_is_not_orthonormal_raises_and_keeps_the_history(
        self, monkeypatch
    ):
        hist = DirectionHistory(4).update(np.array([1.0, 2.0, -0.5, 0.3]))
        basis = hist.basis
        push_leading = direction_history._push_leading
        monkeypatch.setattr(direction_history, "_push_leading",
                            lambda Q, u: push_leading(Q, u) * (1.0 + 1e-9))
        with pytest.raises(ValueError, match="orthonormal"):
            hist.update(np.array([0.2, -1.0, 0.7, 0.1]))
        assert hist.basis is basis
        assert hist.updates_seen == 1

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

    @pytest.mark.parametrize("step,match", [
        (np.ones(2), "length 3"),
        (np.array([1.0, np.inf, 0.0]), "finite"),
        (np.array([np.nan, 0.0, 0.0]), "finite"),
    ], ids=["wrong-length", "non-finite", "nan"])
    def test_malformed_step_rejected_and_history_kept(self, step, match):
        hist = DirectionHistory(3)
        with pytest.raises(ValueError, match=match):
            hist.update(step)
        assert hist.updates_seen == 0
        np.testing.assert_array_equal(hist.basis.matrix, np.eye(3))

    def test_non_integral_dimension_rejected(self):
        with pytest.raises(ValueError, match="2.9"):
            DirectionHistory(2.9)
        with pytest.raises(ValueError, match="True"):
            DirectionHistory(True)
        assert DirectionHistory(np.int64(3)).dim == 3

    def test_step_whose_squared_norm_overflows_leads(self):
        # |delta|^2 = 1e400 overflows; the step is finite and must lead
        hist = DirectionHistory(2).update(np.array([1e200, 0.0]))
        assert hist.basis.matrix[:, 0].tolist() == [1.0, 0.0]
        assert hist.updates_seen == 1

    def test_oblique_step_whose_squared_norm_overflows_leads(self):
        hist = DirectionHistory(2).update(np.array([3e200, 4e200]))
        np.testing.assert_allclose(hist.basis.matrix[:, 0], [0.6, 0.8], rtol=0, atol=1e-15)
        assert orthonormality_defect(hist.basis.matrix) <= 1e-12

    @pytest.mark.parametrize("norm", [2e-14, 1e-12, 9e-11])
    def test_tiny_step_leads_like_any_other(self, norm):
        # A step above the 1e-14 no-movement threshold is a direction, however
        # short: it goes in front and the oldest direction is dropped.
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
        u = delta / np.linalg.norm(delta)
        np.testing.assert_allclose(Q[:, 0], u, rtol=0, atol=1e-15)
        reference, _ = reference_mgs(np.column_stack([u, before[:, : n - 1]]))
        np.testing.assert_allclose(Q, reference, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n,k", [(1, 0), (4, 0), (4, 2), (4, 3), (7, 5)])
    def test_axis_step_on_fresh_history_moves_that_axis_in_front(self, n, k):
        # Q^T u = e_k, so the suffix sums past k are exactly zero: axis k is
        # dropped from behind and every other axis keeps its order and bits.
        hist = DirectionHistory(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist.update(np.eye(n)[k])
        expected = np.eye(n)[:, [k, *range(k), *range(k + 1, n)]]
        np.testing.assert_array_equal(hist.basis.matrix, expected)

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


class TestMixedStepsAtEveryDimension:
    """The one update rule over random, parallel and near-zero steps, which
    are the steps that used to leave the fast path, at every n from 2 to 30."""

    @pytest.mark.parametrize("n", range(2, 31))
    def test_step_leads_and_dependent_direction_is_dropped(self, n):
        rng = np.random.default_rng(n)
        hist = DirectionHistory(n)
        for step in range(30):
            G = hist.basis.matrix
            seen = hist.updates_seen
            if step % 3 == 0:  # random, with a norm on either side of Q's columns
                delta = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(n)
            elif step % 3 == 1:  # parallel to a direction already held
                delta = rng.normal() * G[:, rng.integers(0, n)]
            else:  # near zero, down to the step that is ignored
                delta = 10.0 ** rng.uniform(-13.9, -10.0) * rng.standard_normal(n)
            hist.update(delta)
            Q = hist.basis.matrix
            if np.linalg.norm(delta) <= 1e-14:
                assert hist.updates_seen == seen
                assert Q is G
                continue
            assert hist.updates_seen == seen + 1
            u = delta / np.linalg.norm(delta)
            np.testing.assert_allclose(Q[:, 0], u, rtol=0, atol=1e-15)
            assert orthonormality_defect(Q) <= 1e-13
            k = np.flatnonzero(np.abs(G.T @ u) > 1e-8)[-1]
            assert k == (n - 1 if step % 3 != 1 else np.argmax(np.abs(G.T @ u)))
            reference, tie_gap = reference_mgs(
                np.column_stack([u, np.delete(G, k, axis=1)])
            )
            assert tie_gap == np.inf
            assert np.abs(Q - reference).max() <= 1e-12


class TestAgreesWithReferenceMgs:
    """The Householder QR and the history update against column-by-column MGS."""

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
            st.sampled_from(["parallel", "near", "span2", "tiny", "generic"]),
            min_size=1,
            max_size=8,
        ),
    )
    def test_update_sequences(self, seed, n, kinds):
        # A step leaves the history as [u, Q without column k], where k is
        # the last direction u has more than rounding-level weight on: the
        # oldest for a generic step, the one it is parallel to, or the
        # second of a pair it (nearly) spans.
        rng = np.random.default_rng(seed)
        hist = DirectionHistory(n)
        for kind in kinds:
            G = hist.basis.matrix
            if kind == "parallel":
                delta = rng.normal() * G[:, rng.integers(0, n)]
            elif kind == "near":  # in the span of two, up to 3e-12 of the second
                b = rng.normal()
                delta = rng.normal() * G[:, 0] + b * G[:, rng.integers(1, n)]
                delta += 3e-12 * abs(b) * rng.standard_normal(n)
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
            u = delta / np.linalg.norm(delta)
            np.testing.assert_allclose(Q[:, 0], u, rtol=0, atol=1e-15)
            k = np.flatnonzero(np.abs(G.T @ u) > 1e-8)[-1]
            reference, tie_gap = reference_mgs(
                np.column_stack([u, np.delete(G, k, axis=1)])
            )
            assert tie_gap == np.inf  # no axis had to be brought in
            assert np.abs(Q - reference).max() <= 1e-8


class TestUpdateKeepsReferenceBytes:
    """DirectionHistory.update against the rank-one update as first written
    (oracle.reference_history_step): the same bytes after every step."""

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 26),
        kinds=st.lists(
            st.sampled_from(
                ["generic", "parallel", "near", "span2", "tiny", "overflow", "zero"]
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_same_bytes_after_every_step(self, seed, n, kinds):
        rng = np.random.default_rng(seed)
        hist = DirectionHistory(n)
        for kind in kinds:
            G = hist.basis.matrix
            if kind == "parallel":  # drops the direction it is parallel to
                delta = rng.normal() * G[:, rng.integers(0, n)]
            elif kind == "near":  # in the span of two, up to 3e-12 of the second
                b = rng.normal()
                delta = rng.normal() * G[:, 0] + b * G[:, rng.integers(1, n)]
                delta += 3e-12 * abs(b) * rng.standard_normal(n)
            elif kind == "span2":  # drops column 1, so k < n - 1 from n = 3
                delta = rng.normal() * G[:, 0] + rng.normal() * G[:, 1]
            elif kind == "tiny":  # on either side of the 1e-14 no-movement rule
                delta = 10.0 ** rng.uniform(-15.0, -10.0) * rng.standard_normal(n)
            elif kind == "overflow":  # |delta|^2 overflows
                delta = 1e200 * rng.standard_normal(n)
            elif kind == "zero":  # the step of a repeated point, signs and all
                delta = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            else:
                delta = rng.standard_normal(n)
            expected = reference_history_step(G, delta)
            seen = hist.updates_seen
            hist.update(delta)
            if expected is None:
                assert hist.basis.matrix is G
                assert hist.updates_seen == seen
            else:
                assert hist.basis.matrix.tobytes() == expected.tobytes()
                assert hist.updates_seen == seen + 1
