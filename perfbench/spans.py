"""Span tracer that wraps gradbench's public functions from outside the package.

A span is (span id, parent span id, name, operation id, start, end).  Spans
are kept in memory and written out when the run ends.  The benchmark is
single-threaded, so spans nest strictly and a span's self time is its
duration minus the summed durations of its direct children.  Time the
wrappers themselves spend outside their own timed interval lands in the
parent's self time, so the self times of one pass add up to the pass's
traced wall time.

`installed(tracer)` swaps every reference to a wrapped function in the
loaded gradbench modules (modules import each other's functions by name)
and restores the originals on exit, so untraced passes run the plain code.
"""

import csv
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

import gradbench
from gradbench import optimizer

# (module, function, span name).  The objective families share one span
# name, as do their analytic gradients.
FUNCTIONS = (
    ("testbed", "rosenbrock2d", "testbed.objective"),
    ("testbed", "rosenbrock_pairwise", "testbed.objective"),
    ("testbed", "rosenbrock_chained", "testbed.objective"),
    ("testbed", "freudenstein_roth", "testbed.objective"),
    ("testbed", "rosenbrock2d_grad", "testbed.analytic_grad"),
    ("testbed", "rosenbrock_pairwise_grad", "testbed.analytic_grad"),
    ("testbed", "rosenbrock_chained_grad", "testbed.analytic_grad"),
    ("testbed", "freudenstein_roth_grad", "testbed.analytic_grad"),
    ("testbed", "grad_mse", "testbed.grad_mse"),
    ("testbed", "get_test_function", "testbed.get_test_function"),
    ("finite_difference", "directional_derivative", "finite_difference.directional_derivative"),
    ("finite_difference", "gradient_in_basis", "finite_difference.gradient_in_basis"),
    ("finite_difference", "vanilla_gradient", "finite_difference.vanilla_gradient"),
    ("finite_difference", "hessian_in_basis", "finite_difference.hessian_in_basis"),
    ("direction_history", "mgs_orthonormalize", "direction_history.mgs_orthonormalize"),
    ("smart_estimator", "wrap", "smart_estimator.wrap"),
    ("optimizer", "line_search", "optimizer.line_search"),
    ("optimizer", "bfgs_minimize", "optimizer.bfgs_minimize"),
    ("bench", "run_comparison", "bench.run_comparison"),
    ("bench", "summarize", "bench.summarize"),
    ("bench", "write_bench_csv", "bench.write_bench_csv"),
    ("bench", "read_bench_csv", "bench.read_bench_csv"),
)

# (module, class, method, span name)
METHODS = (
    ("finite_difference", "BasisMatrix", "__init__", "finite_difference.BasisMatrix"),
    ("direction_history", "DirectionHistory", "update", "direction_history.update"),
    ("smart_estimator", "SmartEstimator", "smart_gradient", "smart_estimator.smart_gradient"),
    ("smart_estimator", "SmartEstimator", "smart_hessian", "smart_estimator.smart_hessian"),
)


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = ""
        self._stack = [0]  # ids of the open spans; 0 is the root
        self._next_id = 1

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span called `name`."""
        parent, span_id = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(parent, span_id, name, start)

    @contextmanager
    def span(self, name, op_id):
        """Root span around one benchmark operation; children inherit op_id."""
        self.op_id = op_id
        parent, span_id = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(parent, span_id, name, start)

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return parent, span_id

    def _close(self, parent, span_id, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, name, self.op_id, start, end))

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("span_id", "parent_id", "name", "op_id", "start", "end"))
            out.writerows(self.spans)


def aggregate(spans, scale=None):
    """Calls and self seconds per span name, and objective calls per caller.

    `scale` maps an operation id to the factor its spans' self times are
    multiplied by (the runner's speed rescaling); absent ids count as 1.
    """
    scale = scale or {}
    names = {span_id: name for span_id, _, name, _, _, _ in spans}
    calls = Counter()
    self_s = Counter()
    child_s = Counter()
    callers = Counter()
    for span_id, parent, name, op_id, start, end in spans:  # children end first
        duration = end - start
        calls[name] += 1
        self_s[name] += (duration - child_s.pop(span_id, 0.0)) * scale.get(op_id, 1.0)
        child_s[parent] += duration
        if name == "testbed.objective":
            callers[names.get(parent, "")] += 1
    return calls, self_s, callers


def _evals_hook(name):
    def hook(tracer, args, kwargs, run):
        objective = args[0]
        before = objective.eval_count
        result = run()
        tracer.counts[name + ".evals"] += objective.eval_count - before
        return result

    return hook


def _update_hook(tracer, args, kwargs, run):
    history = args[0]
    before = history.updates_seen
    result = run()
    if history.updates_seen == before:
        tracer.counts["direction_history.update.skipped"] += 1
    return result


def _bfgs_hook(tracer, args, kwargs, run):
    result = run()
    opts = args[3] if len(args) > 3 else kwargs.get("opts")
    if opts is None:
        opts = optimizer.BfgsOptions()
    if result.converged:
        reason = "grad_tol"
    elif result.iterations >= opts.max_iters:
        reason = "max_iters"
    else:
        reason = "early"
    tracer.counts["optimizer.bfgs_minimize.stop." + reason] += 1
    tracer.counts["optimizer.bfgs_minimize.iterations"] += result.iterations
    return result


HOOKS = {
    "finite_difference.gradient_in_basis": _evals_hook("finite_difference.gradient_in_basis"),
    "finite_difference.hessian_in_basis": _evals_hook("finite_difference.hessian_in_basis"),
    "optimizer.line_search": _evals_hook("optimizer.line_search"),
    "direction_history.update": _update_hook,
    "optimizer.bfgs_minimize": _bfgs_hook,
}


def _traced(tracer, name, fn):
    hook = HOOKS.get(name)

    @wraps(fn)
    def traced(*args, **kwargs):
        if hook is None:
            return tracer.call(name, fn, args, kwargs)
        return hook(tracer, args, kwargs, lambda: tracer.call(name, fn, args, kwargs))

    return traced


def _gradbench_modules():
    return [
        module
        for key, module in list(sys.modules.items())
        if key == "gradbench" or key.startswith("gradbench.")
    ]


@contextmanager
def installed(tracer):
    """Route every call of the wrapped gradbench functions through tracer."""
    modules = _gradbench_modules()
    undo = []
    try:
        for module_name, attr, name in FUNCTIONS:
            original = getattr(getattr(gradbench, module_name), attr)
            traced = _traced(tracer, name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        undo.append((module, key, original))
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(getattr(gradbench, module_name), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _traced(tracer, name, original))
            undo.append((cls, method, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
