import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from gradbench import bench
from gradbench.bench import BenchRecord
from gradbench.finite_difference import FdScheme, ObjectiveFn, vanilla_gradient
from gradbench.optimizer import bfgs_minimize
from gradbench.smart_estimator import wrap
from gradbench.testbed import (
    TestFunction,
    get_test_function,
    grad_mse,
    rosenbrock2d,
    rosenbrock2d_grad,
)


def sphere_function(dim):
    return TestFunction(
        name="sphere",
        dim=dim,
        fn=lambda x: 0.5 * float(np.asarray(x) @ np.asarray(x)),
        grad=lambda x: np.asarray(x, dtype=float),
        optimum=np.zeros(dim),
    )


class TestRunComparison:
    def test_quadratic_is_exact_for_both_methods(self):
        records = bench.run_comparison(sphere_function(4), 4, reps=1, seed=0)
        assert records
        for r in records:
            assert r.mse <= 1e-16

    def test_both_methods_share_the_starting_point(self):
        records = bench.run_comparison("rosenbrock-chained", 3, reps=3, seed=5)
        for rep in range(3):
            at_start = {r.method: r for r in records
                        if r.rep == rep and r.iteration == 0}
            assert at_start["smart"].mse == at_start["vanilla"].mse
            assert at_start["smart"].grad_norm == at_start["vanilla"].grad_norm

    def test_deterministic_and_sorted(self):
        a = bench.run_comparison("rosenbrock-chained", 3, reps=2, seed=9)
        b = bench.run_comparison("rosenbrock-chained", 3, reps=2, seed=9)
        assert a == b
        keys = [(r.rep, r.iteration, r.method) for r in a]
        assert keys == sorted(keys)

    def test_records_carry_analytic_gradient_norm(self):
        records = bench.run_comparison("rosenbrock-chained", 3, reps=1, seed=2)
        assert all(r.mse >= 0.0 and r.grad_norm >= 0.0 for r in records)
        assert all(r.function == "rosenbrock-chained" and r.dim == 3 for r in records)

    def test_pairwise_30_history_stays_orthonormal(self):
        # from this start, column-by-column Gram-Schmidt left the history
        # basis ~2e-12 from orthonormal, past the 1e-12 within which
        # DirectionHistory.update must keep it, and the race raised
        records = bench.run_comparison("rosenbrock-pairwise", 30, reps=1, seed=5)
        assert {r.method for r in records} == {"vanilla", "smart"}
        assert all(np.isfinite(r.mse) for r in records)

    def test_row_by_row_objective_writes_the_same_csv(self, tmp_path):
        # unmarked lambdas take the one-call-per-point paths of ObjectiveFn
        # and of the analytic gradient, the registry functions the batched
        # paths; the CSV must not tell
        registry = get_test_function("rosenbrock-chained", 10)
        unbatched = TestFunction(registry.name, 10, lambda x: registry.fn(x),
                                 lambda x: registry.grad(x), registry.optimum)
        paths = []
        for function in (registry.name, unbatched):
            paths.append(tmp_path / f"{len(paths)}.csv")
            bench.write_bench_csv(
                bench.run_comparison(function, 10, reps=4, seed=3), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_rows_equal_scoring_each_iterate_in_the_callback(self, method):
        # the rows are scored in one batch after the run; scoring each
        # iterate as the optimizer reaches it must give the same bits
        test_fn = get_test_function("rosenbrock-chained", 10)
        x0 = bench._draw_start(0, 0, 10)
        objective = ObjectiveFn(test_fn.fn, 10)
        if method == "smart":
            inner = wrap(objective)
        else:
            inner = lambda x: vanilla_gradient(objective, x).values
        expected = []

        def scoring_grad(x):
            values = inner(x)
            exact = test_fn.grad(x)
            expected.append((len(expected), grad_mse(values, exact),
                             math.sqrt(exact @ exact)))
            return values

        bfgs_minimize(objective, scoring_grad, x0)
        rows = bench._recorded_run(test_fn, x0, FdScheme(), method)
        assert len(rows) > 10
        assert repr(rows) == repr(expected)

    def test_rosenbrock_families_agree_at_dimension_two(self):
        # rosenbrock2d is rosenbrock-pairwise at n = 2, and both are
        # rosenbrock-chained there: every record but its name must match
        runs = [
            [dataclasses.replace(r, function="") for r in
             bench.run_comparison(name, 2, reps=10, seed=0)]
            for name in ("rosenbrock2d", "rosenbrock-pairwise", "rosenbrock-chained")
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            bench.run_comparison("rosenbrock-pairwise", 5, reps=1, seed=0)
        with pytest.raises(ValueError):
            bench.run_comparison("no-such-function", 4, reps=1, seed=0)
        with pytest.raises(ValueError):
            bench.run_comparison("rosenbrock-chained", 3, reps=0, seed=0)
        for reps in (1.5, True):
            with pytest.raises(ValueError, match="reps must be an integer"):
                bench.run_comparison("rosenbrock-chained", 3, reps=reps, seed=0)
        chained3 = get_test_function("rosenbrock-chained", 3)
        with pytest.raises(ValueError, match="dim does not match"):
            bench.run_comparison(chained3, 4, reps=1, seed=0)
        with pytest.raises(ValueError, match="unknown method"):
            bench._recorded_run(chained3, np.zeros(3), FdScheme(), "newton")


class TestBenchRecord:
    def test_slotted_but_still_a_frozen_value(self):
        r = BenchRecord("f", 2, 0, 0, "smart", 1.0, 1.0)
        assert not hasattr(r, "__dict__")
        assert dataclasses.replace(r, mse=2.0) == BenchRecord("f", 2, 0, 0, "smart", 2.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.mse = 3.0


class TestSummarize:
    def _records(self, vanilla, smart):
        rows = []
        for i, m in enumerate(vanilla):
            rows.append(BenchRecord("f", 2, 0, i, "vanilla", m, 1.0))
        for i, m in enumerate(smart):
            rows.append(BenchRecord("f", 2, 0, i, "smart", m, 1.0))
        return rows

    def test_simple_arithmetic(self):
        summary = bench.summarize(self._records([2.0, 4.0], [1.0, 2.0]))
        assert summary.vanilla_mse == 3.0
        assert summary.smart_mse == 1.5
        assert summary.improvement == 2.0

    def test_identical_methods_give_unit_improvement(self):
        summary = bench.summarize(self._records([1.0, 2.0], [1.0, 2.0]))
        assert summary.improvement == 1.0

    def test_reference_row(self):
        # 2.80e-4 vs 0.49e-4 averages to an improvement of 5.71
        summary = bench.summarize(self._records([2.80e-4], [0.49e-4]))
        assert summary.improvement == pytest.approx(5.71, abs=5e-3)

    def test_zero_smart_mse_gives_infinite_improvement(self):
        summary = bench.summarize(self._records([2.0, 4.0], [0.0, 0.0]))
        assert summary.smart_mse == 0.0
        assert summary.improvement == math.inf

    def test_zero_mse_for_both_methods_gives_nan_improvement(self):
        summary = bench.summarize(self._records([0.0], [0.0]))
        assert math.isnan(summary.improvement)

    def test_single_method_rejected(self):
        rows = [BenchRecord("f", 2, 0, 0, "vanilla", 1.0, 1.0)]
        with pytest.raises(ValueError):
            bench.summarize(rows)

    def test_unknown_method_rejected(self):
        rows = [BenchRecord("f", 2, 0, 0, "exact", 1.0, 1.0)]
        with pytest.raises(ValueError):
            bench.summarize(rows)


class TestMeanMseByIteration:
    def test_averages_within_iteration(self):
        rows = [
            BenchRecord("f", 2, 0, 0, "vanilla", 2.0, 1.0),
            BenchRecord("f", 2, 1, 0, "vanilla", 4.0, 1.0),
            BenchRecord("f", 2, 0, 1, "vanilla", 6.0, 1.0),
            BenchRecord("f", 2, 0, 0, "smart", 1.0, 1.0),
        ]
        curves = bench.mean_mse_by_iteration(rows)
        assert curves["vanilla"] == {0: 3.0, 1: 6.0}
        assert curves["smart"] == {0: 1.0}


class TestRotationScan:
    def test_zero_angle_matches_vanilla(self):
        records = bench.run_rotation_scan(angle_step=np.pi / 8)
        x = np.array([-0.29, 0.40])
        van = vanilla_gradient(ObjectiveFn(rosenbrock2d, 2), x, FdScheme())
        expected = grad_mse(van.values, rosenbrock2d_grad(x))
        assert records[0].angle == 0.0
        assert records[0].mse == expected

    def test_angles_cover_half_turn(self):
        records = bench.run_rotation_scan(angle_step=np.pi / 10)
        angles = [r.angle for r in records]
        assert len(angles) == 10
        assert angles[0] == 0.0
        assert all(a < np.pi for a in angles)

    def test_quarter_turn_symmetry(self):
        # the basis at t + pi/2 is the one at t with columns swapped and a
        # sign flip, so the estimate error is unchanged
        records = bench.run_rotation_scan()
        assert len(records) == 1000
        for i in (0, 100, 333):
            assert abs(records[i].mse - records[i + 500].mse) <= 1e-12

    def test_error_anticorrelated_with_leading_magnitude(self):
        # over the mse's own fundamental domain [0, pi/2)
        records = bench.run_rotation_scan(angle_step=np.pi / 200)
        half = [r for r in records if r.angle < np.pi / 2]
        rho = stats.spearmanr([r.mse for r in half],
                              [r.dir_grad_magnitude for r in half]).statistic
        assert rho < -0.3

    def test_invalid_arguments_rejected(self):
        for angle_step in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                bench.run_rotation_scan(angle_step=angle_step)
        for x in (np.zeros(3), (np.nan, 0.4), (-0.29, np.inf)):
            with pytest.raises(ValueError):
                bench.run_rotation_scan(x=x)


class TestHessianDemo:
    def test_banana_mode(self):
        demo = bench.run_hessian_demo("rosenbrock2d", 2, seed=0)
        target = np.array([[802.0, -400.0], [-400.0, 200.0]])
        np.testing.assert_allclose(demo.hessian, target, rtol=1e-2)
        assert demo.eig_min > 0.0

    def test_quadratic_recovers_matrix(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        tf = TestFunction("quad", 2,
                          lambda x: 0.5 * float(np.asarray(x) @ A @ np.asarray(x)),
                          lambda x: A @ np.asarray(x),
                          np.zeros(2))
        demo = bench.run_hessian_demo(tf, 2, seed=1)
        np.testing.assert_allclose(demo.hessian, A, atol=1e-6)

    def test_reports_why_bfgs_stopped(self):
        demo = bench.run_hessian_demo("rosenbrock-chained", 5, seed=0)
        assert not demo.converged
        assert demo.reason == "line_search: zoom interval collapsed"

    def test_paired_residual_mode_is_positive_definite(self):
        demo = bench.run_hessian_demo("freudenstein-roth", 2, seed=0)
        assert demo.eig_min > 0.0
        assert demo.hessian.shape == (2, 2)


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        records = bench.run_comparison("rosenbrock-chained", 3, reps=2, seed=4)
        path = tmp_path / "bench.csv"
        bench.write_bench_csv(records, path)
        assert bench.read_bench_csv(path) == records

    def test_columns_in_any_order(self, tmp_path):
        records = bench.run_comparison("rosenbrock-chained", 3, reps=1, seed=4)
        path = tmp_path / "bench.csv"
        bench.write_bench_csv(records, path)
        lines = [line.split(",") for line in path.read_text().splitlines()]
        order = [6, 2, 0, 5, 3, 1, 4]
        path.write_text("\n".join(",".join(row[i] for i in order) for row in lines) + "\n")
        assert bench.read_bench_csv(path) == records

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "bench.csv"
        path.write_text("function,dim,rep,iteration,method,mse\nf,2,0,0,smart,1.0\n")
        with pytest.raises(ValueError, match="grad_norm"):
            bench.read_bench_csv(path)

    @pytest.mark.parametrize("row,message", [
        ("f,2,0,1,sma", "line 3 has fewer fields"),  # a file cut off mid-write
        ("f,2,0,x,smart,1.0,2.0", "line 3: invalid literal"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bench.csv"
        path.write_text(f"function,dim,rep,iteration,method,mse,grad_norm\n"
                        f"f,2,0,0,smart,1.0,2.0\n{row}\n")
        with pytest.raises(ValueError, match=f"bench.csv: {message}"):
            bench.read_bench_csv(path)

    def test_byte_identical_rewrites(self, tmp_path):
        records = bench.run_comparison("rosenbrock-chained", 3, reps=2, seed=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        bench.write_bench_csv(records, p1)
        bench.write_bench_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_precision(self, tmp_path):
        path = tmp_path / "one.csv"
        bench.write_bench_csv(
            [BenchRecord("f", 2, 0, 0, "vanilla", 1.0 / 3.0, 2.0)], path
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "function,dim,rep,iteration,method,mse,grad_norm"
        assert lines[1] == "f,2,0,0,vanilla,0.33333333333333331,2"

    def test_rotate_csv(self, tmp_path):
        records = bench.run_rotation_scan(angle_step=np.pi / 4)
        path = tmp_path / "rot.csv"
        bench.write_rotate_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "angle,mse,dir_grad_magnitude"
        assert len(lines) == len(records) + 1
