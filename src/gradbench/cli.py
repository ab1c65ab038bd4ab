"""Command-line benchmark harness.

Subcommands:
  bench      gradient-accuracy comparison over repeated BFGS runs -> CSV
  rotate     basis-rotation scan of the 2-D banana-valley estimate -> CSV
  hessian    drive BFGS to a mode and print the Hessian estimated there
  summarize  print per-method average MSE and the improvement ratio

Exit status is 0 on success and 2 for invalid arguments.
"""

import argparse
import os

import numpy as np

from . import bench
from .finite_difference import SCHEME_NAMES, FdScheme
from .testbed import FUNCTION_NAMES, get_test_function


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradbench",
        description="Accuracy benchmarks for finite-difference gradients in "
        "descent-history-adapted bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench_p = sub.add_parser(
        "bench", help="compare canonical and history-basis gradient accuracy"
    )
    bench_p.add_argument("--function", required=True,
                         help=f"one of: {', '.join(FUNCTION_NAMES)}")
    bench_p.add_argument("--dim", type=int, required=True)
    bench_p.add_argument("--reps", type=int, default=100)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--step", type=float, default=1e-3)
    bench_p.add_argument("--scheme", choices=SCHEME_NAMES, default="central1")
    bench_p.add_argument("--out", required=True, help="output CSV path")

    rotate_p = sub.add_parser(
        "rotate", help="scan gradient-estimate error over rotated bases"
    )
    rotate_p.add_argument("--x0", default=",".join(map(repr, bench.DEFAULT_ROTATION_POINT)),
                          help="evaluation point as 'a,b'")
    rotate_p.add_argument("--angle-step", type=float,
                          default=float(bench.DEFAULT_ANGLE_STEP))
    rotate_p.add_argument("--step", type=float, default=1e-3)
    rotate_p.add_argument("--out", required=True, help="output CSV path")

    hessian_p = sub.add_parser(
        "hessian", help="print the history-basis Hessian at the found mode"
    )
    hessian_p.add_argument("--function", required=True,
                           help=f"one of: {', '.join(FUNCTION_NAMES)}")
    hessian_p.add_argument("--dim", type=int, required=True)
    hessian_p.add_argument("--seed", type=int, default=0)

    summarize_p = sub.add_parser(
        "summarize", help="print average MSE per method and improvement ratio"
    )
    summarize_p.add_argument("--in", dest="in_path", required=True,
                             help="CSV produced by `gradbench bench`")
    return parser


def _scheme_or_die(parser, name, step):
    try:
        return FdScheme(name, step)
    except ValueError as exc:
        parser.error(str(exc))


def _function_or_die(parser, name, dim):
    try:
        return get_test_function(name, dim)
    except ValueError as exc:
        parser.error(str(exc))


def _out_dir_or_die(parser, path):
    """Exit 2 before any work when an --out path is empty, is a directory
    or names a directory that is missing."""
    if not path:
        parser.error("--out must not be empty")
    if os.path.isdir(path):
        parser.error(f"--out {path}: is a directory")
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        parser.error(f"--out {path}: directory {directory} does not exist")


def _cmd_bench(parser, args):
    _out_dir_or_die(parser, args.out)
    test_fn = _function_or_die(parser, args.function, args.dim)
    scheme = _scheme_or_die(parser, args.scheme, args.step)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    records = bench.run_comparison(
        test_fn, args.dim, reps=args.reps, seed=args.seed, scheme=scheme
    )
    bench.write_bench_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")


def _cmd_rotate(parser, args):
    _out_dir_or_die(parser, args.out)
    try:
        x0 = np.array([float(part) for part in args.x0.split(",")])
    except ValueError:
        parser.error("--x0 must be two comma-separated numbers")
    scheme = _scheme_or_die(parser, "central1", args.step)
    try:
        records = bench.run_rotation_scan(x0, angle_step=args.angle_step, scheme=scheme)
    except ValueError as exc:
        parser.error(str(exc))
    bench.write_rotate_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")


def _cmd_hessian(parser, args):
    test_fn = _function_or_die(parser, args.function, args.dim)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    demo = bench.run_hessian_demo(test_fn, args.dim, seed=args.seed)
    print(f"function: {demo.function}  dim: {demo.dim}  seed: {args.seed}")
    print(f"converged: {demo.converged}")
    print(f"stop reason: {demo.reason}")
    print(f"mode: {np.array2string(demo.x_opt, precision=8)}")
    print(f"f at mode: {demo.f_opt:.8e}")
    print("hessian estimate at mode:")
    print(np.array2string(demo.hessian, precision=6, suppress_small=False))
    print(f"eigenvalue range: [{demo.eig_min:.6g}, {demo.eig_max:.6g}]")


def _cmd_summarize(parser, args):
    try:
        records = bench.read_bench_csv(args.in_path)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    try:
        summary = bench.summarize(records)
    except ValueError as exc:
        parser.error(str(exc))
    print("\n".join(_summary_lines(summary)))


def _summary_lines(summary):
    """The lines `summarize` prints for a bench.Summary."""
    return [
        f"vanilla mean mse: {summary.vanilla_mse:.6e}  ({summary.vanilla_records} records)",
        f"smart   mean mse: {summary.smart_mse:.6e}  ({summary.smart_records} records)",
        f"improvement (vanilla/smart): {summary.improvement:.4f}",
    ]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bench": _cmd_bench,
        "rotate": _cmd_rotate,
        "hessian": _cmd_hessian,
        "summarize": _cmd_summarize,
    }
    handlers[args.command](parser, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
