import csv
import dataclasses
import math

import numpy as np
import pytest
from oracle import rank_correlation, reference_rotation_scan

from gradbench import bench, testbed
from gradbench.bench import BenchRecord
from gradbench.finite_difference import (
    SCHEME_NAMES, Estimate, FdScheme, ObjectiveFn, vanilla_gradient,
)
from gradbench.optimizer import OptimResult, bfgs_minimize
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


@pytest.fixture
def objectives(monkeypatch):
    """Every ObjectiveFn that bench builds while the test runs."""
    built = []

    class CountedObjective(ObjectiveFn):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(bench, "ObjectiveFn", CountedObjective)
    return built


@pytest.mark.parametrize("run", [
    lambda scheme: bench.run_comparison("rosenbrock-chained", 3, reps=1, scheme=scheme),
    lambda scheme: bench.run_rotation_scan(scheme=scheme),
], ids=["run_comparison", "run_rotation_scan"])
@pytest.mark.parametrize("scheme", ["central4", None])
def test_scheme_refused_before_any_evaluation(objectives, run, scheme):
    with pytest.raises(ValueError, match=f"^scheme must be an FdScheme, got {scheme!r}$"):
        run(scheme)
    assert sum(objective.eval_count for objective in objectives) == 0


def hiding_the_line_form(fn):
    """fn as a batched callable without its line form, so that the line
    search evaluates each point as ObjectiveFn(x + t * d)."""
    def hidden(x):
        return fn(x)

    hidden.batched = True
    return hidden


class TestLineFormEquivalence:
    """Runs give the same bits whether the line search sums its points on
    their line in Python floats or as numpy arrays.  Both sides run here,
    on one CPU, so this holds whatever BLAS kernel that CPU takes."""

    CELLS = [("rosenbrock-chained", 5), ("rosenbrock-pairwise", 4), ("freudenstein-roth", 4)]

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("name, dim", CELLS)
    def test_runs_and_records_are_equal(self, objectives, monkeypatch, name, dim, scheme):
        scheme = FdScheme(scheme)
        tf = get_test_function(name, dim)
        hidden = dataclasses.replace(tf, fn=hiding_the_line_form(tf.fn))
        assert hasattr(tf.fn, "_line") and not hasattr(hidden.fn, "_line")
        for rep in range(3):
            x0 = bench._draw_start(0, rep, dim)
            for method in bench.METHODS:
                runs = [bench._bfgs_run(t, x0, scheme, method)[0] for t in (tf, hidden)]
                assert runs[0].iterations > 0
                for field in ("trajectory", "gradients"):
                    assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()
                assert (runs[0].reason, runs[0].f_opt) == (runs[1].reason, runs[1].f_opt)
                assert objectives[-2].eval_count == objectives[-1].eval_count
        races = []
        for hide in (False, True):
            if hide:
                public = name.replace("-", "_")
                monkeypatch.setattr(testbed, public, hiding_the_line_form(getattr(testbed, public)))
            start = len(objectives)
            races.append(bench.run_comparison(name, dim, reps=3, seed=0, scheme=scheme))
            races.append([objective.eval_count for objective in objectives[start:]])
        assert races[0] == races[2]
        assert races[1] == races[3]


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

    def test_invalid_arguments_rejected(self, monkeypatch):
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

        def never(*args):
            raise AssertionError("evaluated")

        # a seed is refused before any objective is built
        monkeypatch.setattr(bench, "ObjectiveFn", never)
        for seed in (-1, 1.5, True, "0"):
            with pytest.raises(ValueError, match="^seed must be"):
                bench.run_comparison("rosenbrock-chained", 3, reps=1, seed=seed)
            with pytest.raises(ValueError, match="^seed must be"):
                bench.run_hessian_demo("rosenbrock-chained", 3, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert (bench.run_comparison("rosenbrock-chained", 3, reps=1, seed=np.int64(2))
                == bench.run_comparison("rosenbrock-chained", 3, reps=1, seed=2))
        assert (repr(bench.run_hessian_demo("rosenbrock2d", 2, seed=np.uint8(1)))
                == repr(bench.run_hessian_demo("rosenbrock2d", 2, seed=1)))

    @pytest.mark.parametrize("run", [bench.run_comparison, bench.run_hessian_demo],
                             ids=["run_comparison", "run_hessian_demo"])
    def test_test_function_refuses_a_dim_that_is_not_an_integer(self, objectives, run):
        # 3.0 == tf.dim, but a race draws its starts with the dimension
        tf = get_test_function("rosenbrock-chained", 3)
        with pytest.raises(ValueError, match=r"^dim must be an integer, got 3\.0$"):
            run(tf, 3.0)
        assert objectives == []

    @pytest.mark.parametrize("run", [bench.run_comparison, bench.run_hessian_demo],
                             ids=["run_comparison", "run_hessian_demo"])
    @pytest.mark.parametrize("bad_dim, dim", [(3.0, 3), (True, 1)], ids=["float", "bool"])
    def test_test_function_of_a_dim_that_is_not_an_integer_refused(
            self, objectives, run, bad_dim, dim):
        # bad_dim == dim, so only the TestFunction's own dim is at fault
        tf = dataclasses.replace(get_test_function("rosenbrock-chained", 3), dim=bad_dim)
        with pytest.raises(ValueError, match=rf"^dim must be an integer, got {bad_dim}$"):
            run(tf, dim)
        assert objectives == []

    @pytest.mark.parametrize("function", [
        "rosenbrock-chained", get_test_function("rosenbrock-chained", 3),
    ], ids=["name", "TestFunction"])
    def test_numpy_integer_dim_gives_int_records(self, function):
        records = bench.run_comparison(function, np.int64(3), reps=1, seed=0)
        assert {type(r.dim) for r in records} == {int}
        assert records == bench.run_comparison("rosenbrock-chained", 3, reps=1, seed=0)
        assert (repr(bench.run_hessian_demo(function, np.int64(3)))
                == repr(bench.run_hessian_demo("rosenbrock-chained", 3)))


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

    @pytest.mark.parametrize("reduce", [bench.summarize, bench.mean_mse_by_iteration])
    def test_unknown_method_rejected(self, reduce):
        rows = [BenchRecord("f", 2, 0, 0, "smart", 1.0, 1.0),
                BenchRecord("f", 2, 0, 0, "haar", 1.0, 1.0)]
        with pytest.raises(ValueError, match="^unknown method 'haar' in records$"):
            reduce(rows)


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
        rho = rank_correlation([r.mse for r in half], [r.dir_grad_magnitude for r in half])
        assert rho < -0.3

    @pytest.mark.parametrize("scheme, stencil", [
        (FdScheme("central1"), 4), (FdScheme("central4"), 8), (FdScheme("forward1"), 3),
    ])
    def test_one_stencil_per_angle(self, objectives, scheme, stencil):
        records = bench.run_rotation_scan(angle_step=0.5, scheme=scheme)
        [objective] = objectives
        assert objective.eval_count == stencil * len(records)

    @pytest.mark.parametrize("scheme", [FdScheme(name) for name in ("central1", "central4", "forward1")])
    @pytest.mark.parametrize("x", [bench.DEFAULT_ROTATION_POINT, (1.3, -0.7)])
    def test_records_match_the_two_call_scan(self, scheme, x):
        # the magnitude is read off the estimate's own stencil; a separate
        # directional derivative along column 0 gives the same bits
        expected = reference_rotation_scan(x, np.pi / 16, scheme)
        assert bench.run_rotation_scan(x, np.pi / 16, scheme) == expected

    def test_numpy_angle_step_is_taken_as_a_float(self):
        # a float16 step's multiples would stay float16 and move the MSEs
        step = np.float16(0.1)
        assert bench.run_rotation_scan(angle_step=step) == bench.run_rotation_scan(
            angle_step=float(step))

    def test_invalid_arguments_rejected(self):
        for angle_step in (0.0, np.nan, np.inf, 10**400):
            with pytest.raises(ValueError):
                bench.run_rotation_scan(angle_step=angle_step)
        for angle_step in (True, "0.5"):
            with pytest.raises(ValueError, match="angle_step must be a number"):
                bench.run_rotation_scan(angle_step=angle_step)
        for x in (np.zeros(3), (np.nan, 0.4), (-0.29, np.inf)):
            with pytest.raises(ValueError):
                bench.run_rotation_scan(x=x)


class TestHessianDemo:
    def test_banana_mode(self):
        _, estimate = bench.run_hessian_demo("rosenbrock2d", 2, seed=0)
        target = np.array([[802.0, -400.0], [-400.0, 200.0]])
        np.testing.assert_allclose(estimate.values, target, rtol=1e-2)
        assert np.linalg.eigvalsh(estimate.values)[0] > 0.0

    def test_quadratic_recovers_matrix(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        tf = TestFunction("quad", 2,
                          lambda x: 0.5 * float(np.asarray(x) @ A @ np.asarray(x)),
                          lambda x: A @ np.asarray(x),
                          np.zeros(2))
        _, estimate = bench.run_hessian_demo(tf, 2, seed=1)
        np.testing.assert_allclose(estimate.values, A, atol=1e-6)

    def test_reports_why_bfgs_stopped(self):
        result, estimate = bench.run_hessian_demo("rosenbrock-chained", 5, seed=0)
        assert isinstance(result, OptimResult) and isinstance(estimate, Estimate)
        assert not result.converged
        assert result.reason == "line_search: zoom interval collapsed"

    def test_paired_residual_mode_is_positive_definite(self):
        _, estimate = bench.run_hessian_demo("freudenstein-roth", 2, seed=0)
        assert np.linalg.eigvalsh(estimate.values)[0] > 0.0
        assert estimate.values.shape == (2, 2)


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        records = bench.run_comparison("rosenbrock-chained", 3, reps=2, seed=4)
        path = tmp_path / "bench.csv"
        bench.write_bench_csv(records, path)
        assert bench.read_bench_csv(path) == records

    def test_records_read_back_share_their_strings(self, tmp_path):
        # one string object per distinct function and method, not one per row
        records = bench.run_comparison("rosenbrock-chained", 3, reps=2, seed=4)
        path = tmp_path / "bench.csv"
        bench.write_bench_csv(records, path)
        back = bench.read_bench_csv(path)
        assert back == records
        for field in ("function", "method"):
            values = [getattr(r, field) for r in back]
            assert len({id(v) for v in values}) == len(set(values))

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
        ("\nf,2,0,x,smart,1.0,2.0", "line 4: invalid literal"),  # past a blank line
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

    @staticmethod
    def csv_module_bytes(path, header, rows):
        """What csv.writer writes for the rows, floats formatted .17g first."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(
                [format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows
            )
        return path.read_bytes()

    def test_quoted_name_and_special_values(self, tmp_path):
        # a name the csv module must quote, and floats that are not finite
        name = 'sphere, "quoted"\nname'
        records = bench.run_comparison(dataclasses.replace(sphere_function(2), name=name),
                                       2, reps=2, seed=1)
        special = [
            BenchRecord(name, 2, 2, 0, "smart", math.inf, -0.0),
            BenchRecord(name, 2, 2, 1, "vanilla", -math.inf, math.nan),
            BenchRecord("", 2, 2, 2, "smart", math.nan, math.inf),  # an empty field
        ]
        path = tmp_path / "quoted.csv"
        bench.write_bench_csv(records + special, path)
        expected = self.csv_module_bytes(tmp_path / "expected.csv", bench.BENCH_CSV_COLUMNS,
                                         map(dataclasses.astuple, records + special))
        assert path.read_bytes() == expected
        assert b'"sphere, ""quoted""\nname",2,0,0,smart,' in expected
        back = bench.read_bench_csv(path)
        assert back[:len(records)] == records
        assert [repr(dataclasses.astuple(r)) for r in back[len(records):]] == [
            repr(dataclasses.astuple(r)) for r in special
        ]

    def test_rotate_csv(self, tmp_path):
        records = bench.run_rotation_scan(angle_step=np.pi / 4)
        special = [bench.RotateRecord(1.0 / 3.0, math.inf, -0.0),
                   bench.RotateRecord(4.0, math.nan, -math.inf)]
        path = tmp_path / "rot.csv"
        bench.write_rotate_csv(records + special, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "angle,mse,dir_grad_magnitude"
        assert len(lines) == len(records) + len(special) + 1
        assert lines[-2:] == ["0.33333333333333331,inf,-0", "4,nan,-inf"]
        assert path.read_bytes() == self.csv_module_bytes(
            tmp_path / "expected.csv", bench.ROTATE_CSV_COLUMNS,
            map(dataclasses.astuple, records + special))
