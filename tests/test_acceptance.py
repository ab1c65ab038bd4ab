"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  The comparison experiments (criteria 5, 6, 8) run the
full 100-repetition configuration; the fixture that runs the six table
cells once for criteria 5 and 6 takes 11-16 s on a 2-vCPU host.
"""

from pathlib import Path

import numpy as np
import pytest
from oracle import rank_correlation

from gradbench import bench
from gradbench.cli import _summary_lines
from gradbench.cli import main as cli_main
from gradbench.direction_history import DirectionHistory, mgs_orthonormalize
from gradbench.finite_difference import (
    BasisMatrix,
    FdScheme,
    ObjectiveFn,
    gradient_in_basis,
    vanilla_gradient,
)
from gradbench.smart_estimator import SmartEstimator
from gradbench.testbed import get_test_function

SEED = 0
REPS = 100

TABLE_CELLS = [
    ("rosenbrock-chained", 5, 2.5),
    ("rosenbrock-chained", 10, 3.47),
    ("rosenbrock-chained", 25, 5.71),
    ("freudenstein-roth", 6, 1.63),
    ("freudenstein-roth", 10, 1.96),
    ("freudenstein-roth", 26, 2.27),
]


def report(number, description, ok):
    print(f"criterion {number:>2} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def table_records():
    return {
        (name, dim): bench.run_comparison(name, dim, reps=REPS, seed=SEED)
        for name, dim, _ in TABLE_CELLS
    }


def test_criterion_1_worked_mgs_example():
    hist = DirectionHistory(2)
    hist.update(np.array([0.11, 1.80]))
    g1 = hist.basis.matrix
    hist.update(np.array([9.65, -0.47]))
    g2 = hist.basis.matrix
    ok = (
        np.allclose(g1, [[0.0610, 0.9981], [0.9981, -0.0610]], atol=5e-4)
        and np.allclose(g2, [[0.9989, 0.0486], [-0.0486, 0.9989]], atol=5e-4)
        # the first entry follows the arithmetic, not the reference misprint
        and abs(g1[0, 0] - 0.0610) < 5e-5
        and abs(g1[0, 0] - 0.0601) > 5e-4
    )
    report(1, f"two-step direction-history example (g1[0,0]={g1[0, 0]:.6f})", ok)


def test_criterion_2_orthonormality_under_randomized_updates():
    rng = np.random.default_rng(1234)
    worst = 0.0
    sequences = 10_000
    for _ in range(sequences):
        n = int(rng.integers(2, 21))
        hist = DirectionHistory(n)
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.random()
            if kind < 0.15:
                delta = np.zeros(n)  # no-movement guard path
            elif kind < 0.30:
                col = int(rng.integers(0, n))
                delta = rng.normal() * hist.basis.matrix[:, col]  # exact parallel
            elif kind < 0.45:
                delta = hist.basis.matrix[:, 0] + 1e-9 * rng.standard_normal(n)
            elif kind < 0.60:
                delta = 10.0 ** rng.uniform(-12, 8) * rng.standard_normal(n)
            else:
                delta = rng.standard_normal(n)
            hist.update(delta)
            defect = np.abs(
                hist.basis.matrix.T @ hist.basis.matrix - np.eye(n)
            ).sum(axis=1).max()
            worst = max(worst, defect)
    ok = worst <= 1e-12
    report(2, f"worst orthonormality defect {worst:.2e} over {sequences} sequences", ok)


def test_criterion_3_cold_start_equals_vanilla_bitwise():
    rng = np.random.default_rng(99)
    schemes = [FdScheme("central1"), FdScheme("central4"), FdScheme("forward1")]
    mismatches = 0
    for case in range(100):
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n, n))
        a = rng.standard_normal(n)
        w = rng.standard_normal(n)

        def f(x, A=A, a=a, w=w):
            x = np.asarray(x)
            return float(a @ x + 0.5 * x @ (A @ x) + np.sum(np.sin(w * x)))

        x = rng.standard_normal(n)
        scheme = schemes[case % len(schemes)]
        smart = SmartEstimator(ObjectiveFn(f, n), scheme).smart_gradient(x)
        vanilla = vanilla_gradient(ObjectiveFn(f, n), x, scheme)
        if smart.values.tobytes() != vanilla.values.tobytes():
            mismatches += 1
    report(3, f"{100 - mismatches}/100 cold starts bit-identical to vanilla",
           mismatches == 0)


def test_criterion_4_exactness_suite():
    rng = np.random.default_rng(7)
    ok = True

    # affine functions: exact in any basis
    for _ in range(20):
        n = int(rng.integers(2, 11))
        a, b = rng.standard_normal(n), rng.normal()
        f = ObjectiveFn(lambda x, a=a, b=b: float(a @ x + b), n)
        bases = [
            BasisMatrix.identity(n),
            mgs_orthonormalize(rng.standard_normal((n, n))),
            BasisMatrix(rng.standard_normal((n, n)) + 3.0 * np.eye(n)),
        ]
        x = rng.standard_normal(n)
        for basis in bases:
            for scheme in (FdScheme("central1"), FdScheme("central4"), FdScheme("forward1")):
                est = gradient_in_basis(f, x, basis, scheme)
                ok &= bool(np.max(np.abs(est.values - a)) <= 1e-10)

    # quadratics: exact under central schemes
    for _ in range(20):
        n = int(rng.integers(2, 9))
        M = rng.standard_normal((n, n))
        A = M @ M.T / n + np.eye(n)
        b = rng.standard_normal(n)
        f = ObjectiveFn(lambda x, A=A, b=b: float(0.5 * x @ A @ x + b @ x), n)
        x = rng.standard_normal(n)
        exact = A @ x + b
        basis = mgs_orthonormalize(rng.standard_normal((n, n)))
        for scheme in (FdScheme("central1"), FdScheme("central4")):
            est = gradient_in_basis(f, x, basis, scheme)
            ok &= bool(np.max(np.abs(est.values - exact)) <= 1e-8)

    # history-basis Hessian of a quadratic recovers the matrix
    for _ in range(5):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        A = M @ M.T / n + np.eye(n)
        est = SmartEstimator(
            ObjectiveFn(lambda x, A=A: 0.5 * float(x @ A @ x), n), FdScheme()
        )
        ok &= bool(np.max(np.abs(est.smart_hessian(rng.standard_normal(n)).values - A))
                   <= 1e-6)
        for _ in range(n + 1):
            est.smart_gradient(rng.standard_normal(n))
        ok &= bool(np.max(np.abs(est.smart_hessian(rng.standard_normal(n)).values - A))
                   <= 1e-6)

    report(4, "affine/quadratic gradient exactness and quadratic Hessian recovery", ok)


def test_criterion_5_accuracy_table(table_records):
    summaries = {key: bench.summarize(records)
                 for key, records in table_records.items()}
    strict = all(s.smart_mse < s.vanilla_mse for s in summaries.values())

    in_band = True
    monotone = True
    lines = []
    for family in ("rosenbrock-chained", "freudenstein-roth"):
        cells = [(dim, ref) for name, dim, ref in TABLE_CELLS if name == family]
        ratios = [summaries[(family, dim)].improvement for dim, _ in cells]
        for (dim, ref), ratio in zip(cells, ratios):
            in_band &= 0.5 * ref <= ratio <= 1.5 * ref
            lines.append(f"{family}/{dim}: {ratio:.2f} (ref {ref})")
        monotone &= all(a <= b for a, b in zip(ratios, ratios[1:]))

    ok = strict and in_band and monotone
    report(5, "; ".join(lines) + f"; strict={strict} monotone={monotone}", ok)


def test_criterion_6_per_iteration_curves(table_records):
    ok = True
    fractions = []
    for (name, dim), records in table_records.items():
        curves = bench.mean_mse_by_iteration(records)
        common = sorted(
            k for k in set(curves["smart"]) & set(curves["vanilla"]) if k > dim
        )
        frac = float(np.mean(
            [curves["smart"][k] <= curves["vanilla"][k] for k in common]
        ))
        fractions.append(f"{name}/{dim}: {frac:.0%}")
        ok &= frac >= 0.80
    report(6, "smart at or below vanilla past warm-up: " + ", ".join(fractions), ok)


def test_readme_summarize_example_is_the_chained_10_cell(table_records):
    # README's `summarize` example runs `bench` on this cell with the defaults
    summary = bench.summarize(table_records[("rosenbrock-chained", 10)])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for line in _summary_lines(summary):
        assert f"# {line}\n" in readme


def test_criterion_7_rotation_scan_anticorrelation():
    records = bench.run_rotation_scan()
    # the estimate error is invariant under swapping the two basis columns
    # (equal mse at t and t + pi/2), so correlate over the error's own
    # fundamental domain [0, pi/2)
    half = [r for r in records if r.angle < np.pi / 2]
    rho = rank_correlation([r.mse for r in half], [r.dir_grad_magnitude for r in half])
    report(7, f"Spearman(mse, |leading directional derivative|) = {rho:.3f} < -0.3",
           rho < -0.3)


def test_criterion_8_higher_order_parity():
    records = bench.run_comparison(
        "rosenbrock-chained", 10, reps=REPS, seed=SEED, scheme=FdScheme("central4")
    )
    ratio = bench.summarize(records).improvement
    report(8, f"4th-order scheme improvement ratio {ratio:.3f} in [0.8, 1.25]",
           0.8 <= ratio <= 1.25)


def test_criterion_9_cli_determinism(tmp_path):
    args = ["bench", "--function", "rosenbrock-chained", "--dim", "5",
            "--reps", "5", "--seed", "7"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = identical and code1 == 0 and code2 == 0
    report(9, f"byte-identical CSV from identical invocations ({out1.stat().st_size} bytes)",
           ok)


def test_out_of_scope_note():
    # external-inference applications are intentionally not reproduced here;
    # the harness covers the analytic test functions only
    for name in ("rosenbrock2d", "rosenbrock-chained", "rosenbrock-pairwise",
                 "freudenstein-roth"):
        assert get_test_function(name, 2 if name == "rosenbrock2d" else 4)
