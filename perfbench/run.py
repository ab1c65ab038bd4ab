"""Closed-loop benchmark of gradbench: one operation at a time, one process.

    python3 perfbench/run.py --workload <race-hi|race-lo|hessian> --seed <n> \
        --seconds <s> [--trace 0|1]

Run from the repository root; gradbench is imported from ./src.  The seed
fixes the workload's operations (see workloads.py).  The list of operations
is run as one pass, and passes repeat while another pass fits in --seconds
(at least one).  Every pass must reproduce the first exactly.

Times are rescaled to reference speed (see reference.py): each step's wall
and CPU time is multiplied by REFERENCE_S over the time a fixed kernel took
around it, so the figures read as seconds on a machine that runs the kernel
in REFERENCE_S.  Each operation's time is the median over passes of its
rescaled times; the raw times are kept in the result file.

--trace 0 prints the end-to-end metrics:
  setup_s            median over 11 fresh processes of: import, test-function
                     construction and input generation
  wall_s, cpu_s      wall and process-CPU time of one pass: the operations
                     plus the CSV round trip (race workloads)
  op_ms_p50/p90      percentiles over the pass's operations of their latency
  ops_per_s          operations completed per second of pass wall time
  estimates_per_s    derivative estimates delivered per second: gradients
                     handed to the optimizer (races), Hessians (hessian)
  improvement_gmean  races: geometric mean over races of each race's
                     vanilla/smart mean-MSE ratio (a cell's ratio of pooled
                     means is dominated by its worst start and swings with
                     the seed); hessian: geometric mean over points of
                     the canonical/rotated error ratio against a reference
                     Hessian (central differences of the analytic gradient)
  peak_rss_mb        peak resident memory of the process

--trace 1 runs every step untraced and then traced, back to back, and
prints the per-layer metrics of the traced passes (self seconds per pass,
rescaled, median over passes; counts per pass), trace.overhead_s (traced
minus untraced pass wall time) and fail_frac.  Spans are written to
perfbench/out/.

The last line of output is one JSON object: correct, attempted, failed,
metrics.  An operation that raises or fails its output check counts as
failed and the pass goes on; a failed check or a pass that disagrees with
the first also makes `correct` false.  The full result, with run metadata
and every error message, goes to perfbench/out/<workload>-trace<t>.json.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

# numpy, gradbench and the modules beside this one are imported inside the
# functions that use them: a set-up process times its own imports.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 11
# The reference kernel is timed before a step when this long has passed
# since the last probe, and once after the pass.
PROBE_EVERY_S = 0.25

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("estimates_per_s", "1/s"),
    ("improvement_gmean", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Self seconds are per pass; "calls" and the stop reasons are counts per pass.
PER_LAYER = (
    ("direction_history.update.calls", "count"),
    ("direction_history.update.self_s", "s"),
    ("direction_history.update.skipped", "count"),
    ("direction_history.mgs_orthonormalize.self_s", "s"),
    ("testbed.objective.calls", "count"),
    ("testbed.objective.self_s", "s"),
    ("testbed.objective.calls_from_stencil", "count"),
    ("testbed.objective.calls_from_line_search", "count"),
    ("testbed.objective.calls_from_hessian", "count"),
    ("testbed.objective.calls_from_other", "count"),
    ("testbed.analytic_grad.self_s", "s"),
    ("testbed.grad_mse.self_s", "s"),
    ("finite_difference.gradient_in_basis.calls", "count"),
    ("finite_difference.gradient_in_basis.self_s", "s"),
    ("finite_difference.evals_per_gradient", "evals/call"),
    ("finite_difference.vanilla_gradient.self_s", "s"),
    ("finite_difference.hessian_in_basis.calls", "count"),
    ("finite_difference.hessian_in_basis.self_s", "s"),
    ("finite_difference.BasisMatrix.calls", "count"),
    ("finite_difference.BasisMatrix.self_s", "s"),
    ("optimizer.line_search.calls", "count"),
    ("optimizer.line_search.self_s", "s"),
    ("optimizer.line_search.evals_per_call", "evals/call"),
    ("optimizer.bfgs_minimize.calls", "count"),
    ("optimizer.bfgs_minimize.self_s", "s"),
    ("optimizer.bfgs_minimize.iterations", "count"),
    ("optimizer.bfgs_minimize.stop.grad_tol", "count"),
    ("optimizer.bfgs_minimize.stop.max_iters", "count"),
    ("optimizer.bfgs_minimize.stop.early", "count"),
    ("smart_estimator.smart_gradient.self_s", "s"),
    ("bench.run_comparison.self_s", "s"),
    ("bench.write_bench_csv.self_s", "s"),
    ("bench.read_bench_csv.self_s", "s"),
    ("bench.summarize.self_s", "s"),
    ("bench.csv_bytes", "bytes"),
    ("perfbench.op.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("fail_frac", "fraction"),
)

# Which span an objective call sits directly under says what it was for.
OBJECTIVE_CALLERS = {
    "finite_difference.gradient_in_basis": "stencil",
    "finite_difference.directional_derivative": "stencil",
    "optimizer.line_search": "line_search",
    "finite_difference.hessian_in_basis": "hessian",
}


def use_repo_sources():
    """Put ./src first on sys.path; stop if gradbench's sources are absent."""
    if not (SRC / "gradbench" / "__init__.py").is_file():
        sys.exit(f"error: no gradbench sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gradbench

    if Path(gradbench.__file__).resolve().parent != SRC / "gradbench":
        sys.exit(f"error: gradbench was imported from {gradbench.__file__}, not {SRC}")


@dataclass
class Pass:
    traced: bool
    round: int  # passes of one round share operation ids
    values: list = field(default_factory=list)  # per op; None when it failed
    errors: list = field(default_factory=list)  # (op index, message)
    checks_failed: int = 0
    estimates: int = 0
    # (wall s, cpu s, speed scale) per op, then one for the step after the ops
    steps: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # reference kernel seconds
    summary: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    spans: tuple = (0, 0)  # slice of the tracer's span list

    @property
    def wall_s(self):
        return sum(wall for wall, _, _ in self.steps)


def run_pass(workload, index, tracer=None):
    """Run every operation once, then the finishing step.

    Returns the untraced Pass and, given a tracer, a traced Pass whose steps
    each ran right after the same untraced step, so that both saw the same
    machine speed.  The reference kernel is probed between steps.
    """
    import reference
    import spans

    plain = Pass(traced=False, round=index)
    traced = Pass(traced=True, round=index) if tracer else None
    if tracer:
        counts_before = Counter(tracer.counts)
        first_span = len(tracer.spans)
    probes = []
    timings = {False: [], True: []}  # (wall, cpu, last probe index) per step
    last_probe = -float("inf")

    def timed(result, op_id, step):
        nonlocal last_probe
        if time.perf_counter() - last_probe > PROBE_EVERY_S:
            probes.append(reference.probe())
            last_probe = time.perf_counter()
        scope = spans.installed(tracer) if result.traced else nullcontext()
        with scope:
            cpu_start = time.process_time()
            start = time.perf_counter()
            with tracer.span("perfbench.op", op_id) if result.traced else nullcontext():
                value = step()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        timings[result.traced].append((wall, cpu, len(probes) - 1))
        return value

    runs = [plain, traced] if tracer else [plain]
    for i, op in enumerate(workload.ops):
        for result in runs:
            value = timed(result, f"{index}.{i}", lambda: _attempt(result, i, op))
            result.values.append(value)
            if value is not None:
                result.estimates += workload.estimates_of(value)
    for result in runs:
        result.summary, result.problems = timed(
            result, f"{index}.finish", lambda: workload.finish_pass(result.values))
    probes.append(reference.probe())
    for result in runs:
        result.probes = probes
        for wall, cpu, k in timings[result.traced]:  # speed: mean of the probes around
            scale = 2.0 * reference.REFERENCE_S / (probes[k] + probes[k + 1])
            result.steps.append((wall, cpu, scale))
    if tracer:
        traced.counts = Counter(tracer.counts)
        traced.counts.subtract(counts_before)
        traced.spans = (first_span, len(tracer.spans))
    return runs


def _attempt(result, i, op):
    from workloads import CheckFailed

    try:
        return op()
    except CheckFailed as exc:
        result.checks_failed += 1
        result.errors.append((i, f"check failed: {exc}"))
    except Exception as exc:  # a raising operation is counted and the pass goes on
        result.errors.append((i, f"{type(exc).__name__}: {exc}"))
    return None


def pin_to_one_cpu():
    """Keep this process, and the set-up processes it starts, on one CPU.

    The CPUs of a shared host slow down independently, so the reference
    kernel only tracks the operations' speed when both run on the same CPU.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # affinity is not settable here; probes may sample another CPU


def _timed_setup(name, seed):
    """Set-up time of a fresh process, as that process measured it."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", name, "--seed", str(seed)]
    out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            check=True, capture_output=True, text=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return out[1] if Path(out[0]).resolve() == ROOT else None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "gradbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def metadata(seed):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q))


def typical_steps(passes):
    """Per step (each op, then the finishing step): the median over passes of
    its (wall, cpu) time rescaled to reference speed.  Every pass runs the
    same operations on the same inputs, so these are repeats of one step."""
    return [
        (statistics.median(w * s for w, _, s in column),
         statistics.median(c * s for _, c, s in column))
        for column in zip(*(p.steps for p in passes))
    ]


def end_to_end(passes, setup_times):
    untraced = [p for p in passes if not p.traced]
    steps = typical_steps(untraced)
    op_wall = [wall for wall, _ in steps[:-1]]
    wall = sum(wall for wall, _ in steps)
    first = untraced[0]
    return {
        "setup_s": statistics.median(t["scaled_s"] for t in setup_times),
        "wall_s": wall,
        "cpu_s": sum(cpu for _, cpu in steps),
        "op_ms_p50": 1e3 * _percentile(op_wall, 50),
        "op_ms_p90": 1e3 * _percentile(op_wall, 90),
        "ops_per_s": (len(first.values) - len(first.errors)) / wall,
        "estimates_per_s": first.estimates / wall,
        "improvement_gmean": first.summary["improvement_gmean"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes, tracer, fail_frac):
    import spans

    traced = [p for p in passes if p.traced]
    per_pass = []
    for p in traced:
        op_ids = [f"{p.round}.{i}" for i in range(len(p.steps) - 1)] + [f"{p.round}.finish"]
        scale = {op_id: s for op_id, (_, _, s) in zip(op_ids, p.steps)}
        per_pass.append(spans.aggregate(tracer.spans[slice(*p.spans)], scale))
    calls, _, callers = per_pass[0]
    counts = traced[0].counts

    def self_s(name):
        return statistics.median(s[name] for _, s, _ in per_pass)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    purposes = Counter()
    for caller, n in callers.items():
        purposes[OBJECTIVE_CALLERS.get(caller, "other")] += n
    values = {}
    for name, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "calls":
            values[name] = calls[head]
        elif tail == "self_s":
            values[name] = self_s(head)
        elif tail.startswith("calls_from_"):
            values[name] = purposes[tail[len("calls_from_"):]]
        else:  # counters kept by the tracer's hooks; derived values follow
            values[name] = counts[name]
    gib = "finite_difference.gradient_in_basis"
    values["finite_difference.evals_per_gradient"] = ratio(counts[gib + ".evals"], calls[gib])
    values["optimizer.line_search.evals_per_call"] = ratio(
        counts["optimizer.line_search.evals"], calls["optimizer.line_search"])
    values["bench.csv_bytes"] = traced[0].summary.get("csv_bytes", 0)
    untraced = [p for p in passes if not p.traced]
    values["trace.overhead_s"] = (
        sum(wall for wall, _ in typical_steps(traced))
        - sum(wall for wall, _ in typical_steps(untraced))
    )
    values["fail_frac"] = fail_frac
    return values


def _agrees(p, first):
    return (p.values == first.values and p.errors == first.errors
            and p.summary == first.summary)


def run_workload(name, seed, seconds, trace, draws=None, setup_repeats=SETUP_REPEATS):
    """Run one workload; returns the full result dictionary."""
    import spans
    import workloads

    workload = workloads.build(name, seed, OUT_DIR, draws)
    setup_times = [] if trace else [_timed_setup(name, seed) for _ in range(setup_repeats)]
    tracer = spans.Tracer() if trace else None
    passes = []
    rounds = 0
    start = time.perf_counter()
    while True:
        passes += run_pass(workload, rounds, tracer)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break

    first = passes[0]
    traced_passes = [p for p in passes if p.traced]
    deterministic = all(_agrees(p, first) for p in passes) and all(
        p.counts == traced_passes[0].counts for p in traced_passes)
    correct = deterministic and not any(p.checks_failed or p.problems for p in passes)
    attempted = sum(len(p.values) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    if trace:
        metrics = per_layer(passes, tracer, failed / attempted)
        units = dict(PER_LAYER)
        tracer.write(OUT_DIR / f"{name}.spans.csv")
    else:
        metrics = end_to_end(passes, setup_times)
        units = dict(END_TO_END)
    return {
        "workload": name,
        "trace": trace,
        "metadata": metadata(seed),
        "correct": correct,
        "deterministic": deterministic,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "passes": [
            {"round": p.round, "traced": p.traced, "raw_wall_s": p.wall_s,
             "probe_s_median": statistics.median(p.probes),
             "ops": len(p.values), "estimates": p.estimates, **p.summary}
            for p in passes
        ],
        "op_samples": len(workload.ops),
        "setup_samples": setup_times,
        "problems": sorted({m for p in passes for m in p.problems}),
        "errors": [
            {"pass": i, "op": op, "cell": workload.ops[op].cell, "error": message}
            for i, p in enumerate(passes) for op, message in p.errors
        ],
    }


def report(result):
    """Print one run's metrics by name with their units, then its errors."""
    meta = result["metadata"]
    print(f"# {result['workload']} seed={meta['seed']} trace={result['trace']} "
          f"passes={len(result['passes'])} ops_per_pass={result['op_samples']} "
          f"nproc={meta['nproc']} python={meta['python']} numpy={meta['numpy']}")
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"fail_frac={result['fail_frac']:.4g} correct={result['correct']}")
    for message in sorted({e["cell"] + ": " + e["error"] for e in result["errors"]}):
        print(f"# error {message}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="race-hi, race-lo, hessian, or all (each in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    start = time.perf_counter()
    use_repo_sources()
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed, OUT_DIR)
        elapsed = time.perf_counter() - start
        import reference  # probed here, on the CPU this process ran on

        print(json.dumps({"raw_s": elapsed,
                          "scaled_s": elapsed * reference.REFERENCE_S / reference.probe()}))
        return 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        (OUT_DIR / f"{name}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        report(result)
        results.append(result)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): m
                    for r in results for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
