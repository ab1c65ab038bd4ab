"""Tests of the benchmark itself, on tiny workloads (one input per cell).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import csv
import dataclasses
import json

import pytest

import run

run.use_repo_sources()

import gradbench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def tiny(workload, trace, seed=0):
    return run.run_workload(workload, seed, 0, trace, draws=1, setup_repeats=1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = tiny(workload, trace=0)
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metadata"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_times_cover_traced_wall(workload):
    original = gradbench.bench.run_comparison
    result = tiny(workload, trace=1)
    assert gradbench.bench.run_comparison is original  # wrappers removed
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(run.PER_LAYER)

    traced = [p for p in result["passes"] if p["traced"]]
    overhead = result["metrics"]["trace.overhead_s"]["value"]
    with open(run.OUT_DIR / f"{workload}.spans.csv", newline="") as fh:
        rows = [
            (int(r["span_id"]), int(r["parent_id"]), r["name"], r["op_id"],
             float(r["start"]), float(r["end"]))
            for r in csv.DictReader(fh)
        ]
    for p in traced:
        in_pass = [s for s in rows if s[3].split(".")[0] == str(p["round"])]
        _, self_s, _ = spans.aggregate(in_pass)
        assert abs(p["raw_wall_s"] - sum(self_s.values())) <= abs(overhead)

    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if workload == "hessian":
        assert metrics["testbed.objective.calls"] == metrics["testbed.objective.calls_from_hessian"]
        assert metrics["optimizer.bfgs_minimize.calls"] == 0
    else:
        stops = sum(metrics[f"optimizer.bfgs_minimize.stop.{r}"]
                    for r in ("grad_tol", "max_iters", "early"))
        # a run that raises returns no result to classify
        assert 0 < stops <= metrics["optimizer.bfgs_minimize.calls"]
        assert metrics["bench.csv_bytes"] > 0


def test_counts_and_csv_hash_repeat_for_a_seed():
    first, second = tiny("race-lo", trace=1, seed=5), tiny("race-lo", trace=1, seed=5)
    for a, b in zip(first["passes"], second["passes"]):
        assert a["csv_sha256"] == b["csv_sha256"]
        assert a["improvement_gmean"] == b["improvement_gmean"]
    for name, unit in run.PER_LAYER:
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name


def test_raising_operation_is_counted_and_the_pass_goes_on(monkeypatch):
    real = gradbench.bench.run_comparison

    def flaky(function, dim, **kwargs):
        if dim == 6:
            raise ValueError("matrix flagged orthonormal but ||G^T G - I||_inf = 2e-12")
        return real(function, dim, **kwargs)

    monkeypatch.setattr(gradbench.bench, "run_comparison", flaky)
    result = tiny("race-lo", trace=0)
    assert result["correct"]  # nothing returned a wrong answer
    assert result["failed"] == len(result["errors"]) >= 1
    assert result["fail_frac"] == result["failed"] / result["attempted"]
    assert {e["cell"] for e in result["errors"]} == {"freudenstein-roth-6-central1"}
    assert "ValueError: matrix flagged orthonormal" in result["errors"][0]["error"]
    assert result["passes"][0]["improvement_gmean"] > 0  # other cells still scored


def test_failed_output_check_counts_as_failed_and_incorrect(monkeypatch):
    real = gradbench.bench.run_comparison

    def skewed(function, dim, **kwargs):
        records = real(function, dim, **kwargs)
        return [dataclasses.replace(r, mse=r.mse * 2.0)
                if (r.iteration, r.method) == (0, "smart") else r for r in records]

    monkeypatch.setattr(gradbench.bench, "run_comparison", skewed)
    result = tiny("race-lo", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert all("iteration-0 mse differs" in e["error"] for e in result["errors"])


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_missing_sources_exit_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.HERE / "no-such-src")
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "race-lo", "--seed", "0", "--seconds", "1"])
    assert exit_info.value.code not in (0, None)
    assert capsys.readouterr().out == ""
