"""Workloads: inputs generated from a seed, the operations, and their checks.

A workload is a fixed list of operations built from the workload seed.  The
runner repeats that list ("a pass") until its time is spent; every pass
sees the same inputs, so counts, accuracy figures and the CSV hash repeat
exactly and any pass that disagrees with the first is a determinism fault.

Functions of gradbench are looked up through their modules at call time
(`bench.run_comparison`, `fd.hessian_in_basis`), never bound by name here,
so the tracer's wrappers see every call the benchmark makes.
"""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gradbench import bench, direction_history, testbed
from gradbench import finite_difference as fd

# Why each workload exists is recorded in BENCHMARK.json.  Cells are
# (function, dimension, scheme, draws): `draws` seeded inputs per cell.
# The race draws are sized for one pass of about 20 seconds: how long a
# race takes depends on how many iterations BFGS needs from its start, so
# more distinct starts steady a run more than repeats of fewer starts.
# Cells are weighted unequally so that the median and 90th-percentile
# operation each fall inside one cell's group, not on the edge between two.
#
# rosenbrock-pairwise n=30 is left out of race-hi: about one start in
# twenty raises ValueError there, because BasisMatrix checks orthonormality
# against an absolute 1e-12 that does not scale with n, and the workloads
# must run without failures.  At chained-25 and FR-26 the largest defect
# seen over 200 starts each was 4.4e-13.
RACE_HI = (
    ("rosenbrock-chained", 25, "central1", 24),
    ("freudenstein-roth", 26, "central1", 60),
)
RACE_LO = (
    ("rosenbrock-chained", 5, "central1", 100),
    ("freudenstein-roth", 6, "central1", 100),
    ("rosenbrock-chained", 10, "central4", 80),
    ("rosenbrock-chained", 10, "forward1", 60),
)
HESSIAN = (
    ("rosenbrock-chained", 25, "central1", 32),
    ("freudenstein-roth", 26, "central1", 64),
)

WORKLOADS = {"race-hi": RACE_HI, "race-lo": RACE_LO, "hessian": HESSIAN}

# Hessian points are drawn this far (per coordinate, standard deviation)
# from the known optimum.
HESSIAN_SPREAD = 0.05
# The rotated-basis and identity-basis Hessians differ by about 1.5e-7
# relative (max-norm) at these points; 1e-5 leaves room for any
# reordering of the arithmetic while still catching a wrong stencil.
HESSIAN_AGREE_RTOL = 1e-5
# Step of the central difference of the analytic gradient that gives the
# reference Hessian; its error is orders below the 1e-3-step estimates'.
REFERENCE_STEP = 1e-5


class CheckFailed(Exception):
    """An operation returned, but its output failed a check."""


def _cell_label(function, dim, scheme):
    return f"{function}-{dim}-{scheme}"


def _seed_for(seed, cell_index, draw):
    return int(np.random.SeedSequence([seed, cell_index, draw]).generate_state(1)[0])


@dataclass(frozen=True)
class RaceOp:
    """One seeded start, one BFGS run per method, every iterate scored."""

    cell: str
    function: str
    dim: int
    scheme: fd.FdScheme
    seed: int

    def __call__(self):
        records = bench.run_comparison(
            self.function, self.dim, reps=1, seed=self.seed, scheme=self.scheme
        )
        problems = []
        if {r.method for r in records} != set(bench.METHODS):
            problems.append("records do not hold both methods")
        if not all(math.isfinite(r.mse) for r in records):
            problems.append("non-finite mse")
        cold = {r.method: r.mse for r in records if r.iteration == 0}
        if cold.get("smart") != cold.get("vanilla"):
            problems.append(f"iteration-0 mse differs: {cold}")
        if problems:
            raise CheckFailed("; ".join(problems))
        return records


@dataclass(frozen=True, eq=False)
class HessianOp:
    """The Hessian at one point, along a rotated basis and along the axes."""

    cell: str
    function: str
    dim: int
    scheme: fd.FdScheme
    x: np.ndarray
    basis: fd.BasisMatrix
    reference: np.ndarray

    def _estimate(self, objective, basis):
        before = objective.eval_count
        estimate = fd.hessian_in_basis(objective, self.x, basis, self.scheme)
        used = objective.eval_count - before
        if estimate.evals_used != used:
            raise CheckFailed(f"evals_used {estimate.evals_used} but {used} evaluations")
        if not np.array_equal(estimate.values, estimate.values.T):
            raise CheckFailed("Hessian estimate is not exactly symmetric")
        return estimate.values

    def __call__(self):
        test_fn = testbed.get_test_function(self.function, self.dim)
        objective = fd.ObjectiveFn(test_fn.fn, self.dim)
        rotated = self._estimate(objective, self.basis)
        canonical = self._estimate(objective, fd.BasisMatrix.identity(self.dim))
        gap = np.abs(rotated - canonical).max() / np.abs(canonical).max()
        if not gap <= HESSIAN_AGREE_RTOL:
            raise CheckFailed(f"bases disagree by {gap:.3e} (tolerance {HESSIAN_AGREE_RTOL:g})")
        scale = np.linalg.norm(self.reference)
        rotated_err = np.linalg.norm(rotated - self.reference) / scale
        canonical_err = np.linalg.norm(canonical - self.reference) / scale
        return canonical_err / rotated_err


def _reference_hessian(test_fn, x):
    h = REFERENCE_STEP
    columns = [
        (test_fn.grad(x + h * e) - test_fn.grad(x - h * e)) / (2.0 * h)
        for e in np.eye(test_fn.dim)
    ]
    H = np.array(columns)
    return 0.5 * (H + H.T)


@dataclass
class Workload:
    name: str
    ops: list
    out_dir: Path

    @property
    def is_race(self):
        return self.name.startswith("race")

    def estimates_of(self, value):
        """Derivative estimates one successful operation delivered."""
        return len(value) if self.is_race else 2

    def finish_pass(self, values):
        """Work that follows a pass: the CSV round trip for races.

        `values` holds each op's return value, None for failed ops.
        Returns (summary dict, list of problems).
        """
        if self.is_race:
            return self._csv_round_trip(values)
        ratios = [v for v in values if v is not None]
        return {"improvement_gmean": _gmean(ratios)}, []

    def _csv_round_trip(self, values):
        path = self.out_dir / f"{self.name}.csv"
        records = [r for v in values if v is not None for r in v]
        bench.write_bench_csv(records, path)
        back = bench.read_bench_csv(path)
        data = path.read_bytes()
        problems = [] if back == records else ["CSV round trip changed the records"]
        improvements = []
        start = 0
        for value in values:  # back holds the ops' records in order
            if value is not None:
                improvements.append(bench.summarize(back[start:start + len(value)]).improvement)
                start += len(value)
        summary = {
            "improvement_gmean": _gmean(improvements),
            "csv_sha256": hashlib.sha256(data).hexdigest(),
            "csv_bytes": len(data),
        }
        return summary, problems


def _gmean(values):
    if not values:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))


def build(name, seed, out_dir, draws=None):
    """Set-up: test-function construction and seeded input generation.

    `draws`, when given, replaces every cell's number of inputs.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    cells = [(f, dim, scheme, draws or n) for f, dim, scheme, n in WORKLOADS[name]]
    ops = []
    for draw in range(max(n for *_, n in cells)):
        for index, (function, dim, scheme_name, n) in enumerate(cells):
            if draw >= n:
                continue
            test_fn = testbed.get_test_function(function, dim)
            scheme = fd.FdScheme.from_name(scheme_name)
            cell = _cell_label(function, dim, scheme_name)
            op_seed = _seed_for(seed, index, draw)
            if name == "hessian":
                rng = np.random.default_rng(op_seed)
                x = test_fn.optimum + HESSIAN_SPREAD * rng.standard_normal(dim)
                basis = direction_history.mgs_orthonormalize(rng.standard_normal((dim, dim)))
                ops.append(HessianOp(cell, function, dim, scheme, x, basis,
                                     _reference_hessian(test_fn, x)))
            else:
                ops.append(RaceOp(cell, function, dim, scheme, op_seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    return Workload(name, ops, out_dir)
