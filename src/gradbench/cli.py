"""Command-line benchmark harness.

Subcommands:
  bench      gradient-accuracy comparison over repeated BFGS runs -> CSV
  rotate     basis-rotation scan of the 2-D banana-valley estimate -> CSV
  hessian    drive BFGS to a mode and print the Hessian estimated there
  summarize  print per-method average MSE and the improvement ratio

The --step and --scheme defaults are FdScheme's, and every rule on an
argument's value but the --out and --x0 parse is the library's.  Exit status
is 0 on success and 2, with the library's message, for invalid arguments,
which are refused before any work.  An error raised during a bench or
hessian run is not caught, so it keeps its traceback.
"""

import argparse
import os

import numpy as np

from . import bench
from .finite_difference import SCHEME_NAMES, FdScheme, _integer
from .testbed import FUNCTION_NAMES, get_test_function


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradbench",
        description="Accuracy benchmarks for finite-difference gradients in "
        "descent-history-adapted bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the BFGS run that bench and hessian share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--function", required=True,
                     help=f"one of: {', '.join(FUNCTION_NAMES)}")
    run.add_argument("--dim", type=int, required=True)
    run.add_argument("--seed", type=int, default=0)

    bench_p = sub.add_parser(
        "bench", parents=[run], help="compare canonical and history-basis gradient accuracy"
    )
    bench_p.add_argument("--reps", type=int, default=100)
    bench_p.add_argument("--scheme", choices=SCHEME_NAMES, default=FdScheme.name)
    bench_p.set_defaults(handler=_cmd_bench)

    rotate_p = sub.add_parser(
        "rotate", help="scan gradient-estimate error over rotated bases"
    )
    rotate_p.add_argument("--x0", default=",".join(map(repr, bench.DEFAULT_ROTATION_POINT)),
                          help="evaluation point 'a,b'; pass one starting with - as --x0=-0.29,0.4")
    rotate_p.add_argument("--angle-step", type=float,
                          default=float(bench.DEFAULT_ANGLE_STEP))
    rotate_p.set_defaults(handler=_cmd_rotate)

    for estimates_p in (bench_p, rotate_p):
        estimates_p.add_argument("--step", type=float, default=FdScheme.step)
        estimates_p.add_argument("--out", required=True, help="output CSV path")

    hessian_p = sub.add_parser(
        "hessian", parents=[run], help="print the history-basis Hessian at the found mode"
    )
    hessian_p.set_defaults(handler=_cmd_hessian)

    summarize_p = sub.add_parser(
        "summarize", help="print average MSE per method and improvement ratio"
    )
    summarize_p.add_argument("--in", dest="in_path", required=True,
                             help="CSV produced by `gradbench bench`")
    summarize_p.set_defaults(handler=_cmd_summarize)
    return parser


def _or_die(parser, call, *args, **kwargs):
    """call(*args, **kwargs); a ValueError or OSError it raises exits 2 with
    its message."""
    try:
        return call(*args, **kwargs)
    except (ValueError, OSError) as exc:
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
    test_fn = _or_die(parser, get_test_function, args.function, args.dim)
    scheme = _or_die(parser, FdScheme, args.scheme, args.step)
    _or_die(parser, _integer, args.reps, "reps")
    _or_die(parser, _integer, args.seed, "seed", least=0)
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
    scheme = _or_die(parser, FdScheme, step=args.step)
    records = _or_die(parser, bench.run_rotation_scan, x0, args.angle_step, scheme)
    bench.write_rotate_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")


def _cmd_hessian(parser, args):
    test_fn = _or_die(parser, get_test_function, args.function, args.dim)
    _or_die(parser, _integer, args.seed, "seed", least=0)
    result, estimate = bench.run_hessian_demo(test_fn, args.dim, seed=args.seed)
    eigenvalues = np.linalg.eigvalsh(estimate.values)
    print(f"function: {test_fn.name}  dim: {test_fn.dim}  seed: {args.seed}")
    print(f"converged: {result.converged}")
    print(f"stop reason: {result.reason}")
    print(f"mode: {np.array2string(result.x_opt, precision=8)}")
    print(f"f at mode: {result.f_opt:.8e}")
    print("hessian estimate at mode:")
    print(np.array2string(estimate.values, precision=6, suppress_small=False))
    print(f"eigenvalue range: [{eigenvalues[0]:.6g}, {eigenvalues[-1]:.6g}]")


def _cmd_summarize(parser, args):
    records = _or_die(parser, bench.read_bench_csv, args.in_path)
    summary = _or_die(parser, bench.summarize, records)
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
    args.handler(parser, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
