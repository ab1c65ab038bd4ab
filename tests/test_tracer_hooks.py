"""The benchmark's span tracer (perfbench/spans.py) wraps gradbench functions
and methods by name and reads some of their arguments and results.  These
tests load it unedited, so removing or reshaping anything it relies on
fails here rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from gradbench import bench
from gradbench.testbed import FUNCTION_NAMES

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_traced_race_installs_hooks_and_restores_names(name):
    spans = load_spans()
    original = bench.run_comparison
    with spans.installed(spans.Tracer()) as tracer:
        assert bench.run_comparison is not original
        bench.run_comparison(name, 2, reps=1, seed=0)
    assert bench.run_comparison is original
    stops = sum(
        tracer.counts[f"optimizer.bfgs_minimize.stop.{reason}"]
        for reason in ("grad_tol", "max_iters", "early")
    )
    assert stops == 2  # one BFGS run per method
    # the registry hands out the family's wrapped objective and gradient
    calls, _, _ = spans.aggregate(tracer.spans)
    assert calls["testbed.objective"] > 0
    assert calls["testbed.analytic_grad"] > 0
    # the tracer reaches the smart step through these two methods by name
    assert calls["smart_estimator.smart_gradient"] > 0
    assert calls["direction_history.update"] > 0
    # the hot calls of both methods' runs reach these names, which the
    # per-layer benchmark metrics are read from
    assert calls["finite_difference.vanilla_gradient"] > 0
    assert calls["finite_difference.gradient_in_basis"] > 0
    assert calls["optimizer.line_search"] > 0
    assert tracer.counts["optimizer.bfgs_minimize.iterations"] > 0
    assert tracer.counts["optimizer.line_search.evals"] > 0
    assert tracer.counts["finite_difference.gradient_in_basis.evals"] > 0
