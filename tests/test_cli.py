import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gradbench
from gradbench import bench, cli
from gradbench.cli import main
from gradbench.testbed import get_test_function


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, captured via capsys)."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors
        return exc.code


class TestBenchCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = run_cli([
            "bench", "--function", "rosenbrock-chained", "--dim", "3",
            "--reps", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        records = bench.read_bench_csv(out)
        assert {r.method for r in records} == {"smart", "vanilla"}
        assert "wrote" in capsys.readouterr().out

    def test_scheme_and_step_flags(self, tmp_path):
        out = tmp_path / "records.csv"
        code = run_cli([
            "bench", "--function", "rosenbrock-chained", "--dim", "3",
            "--reps", "1", "--seed", "0", "--step", "1e-2",
            "--scheme", "forward1", "--out", str(out),
        ])
        assert code == 0

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--function", "nope", "--dim", "3", "--out", "x.csv"],
         "unknown test function 'nope'"),
        (["bench", "--function", "freudenstein-roth", "--dim", "5", "--out", "x.csv"],
         "freudenstein-roth requires an even dimension >= 2, got 5"),
        (["bench", "--function", "rosenbrock2d", "--dim", "3", "--out", "x.csv"],
         "rosenbrock2d requires dimension 2, got 3"),
        (["bench", "--function", "rosenbrock2d", "--dim", "2", "--scheme",
          "central2", "--out", "x.csv"],
         "argument --scheme: invalid choice: 'central2'"),
        (["bench", "--function", "rosenbrock2d", "--dim", "2", "--step", "-1",
          "--out", "x.csv"],
         "step must be positive and finite"),
        (["bench", "--function", "rosenbrock2d", "--dim", "2", "--step", "inf",
          "--out", "x.csv"],
         "step must be positive and finite"),
        (["bench", "--function", "rosenbrock2d", "--dim", "2", "--step", "nan",
          "--out", "x.csv"],
         "step must be positive and finite"),
        (["bench", "--function", "rosenbrock2d", "--dim", "2", "--reps", "0",
          "--out", "x.csv"],
         "reps must be an integer >= 1, got 0"),
        (["bench", "--function", "rosenbrock2d", "--dim", "2", "--seed", "-3",
          "--out", "x.csv"],
         "seed must be an integer >= 0, got -3"),
        (["bench", "--dim", "2", "--out", "x.csv"],
         "the following arguments are required: --function"),
    ])
    def test_invalid_arguments_exit_2(self, argv, message, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.count(message) == 1

    def test_missing_out_directory_exits_2_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("run_comparison called")

        monkeypatch.setattr(bench, "run_comparison", never)
        out = tmp_path / "missing" / "r.csv"
        assert run_cli(["bench", "--function", "rosenbrock-chained", "--dim", "3",
                        "--reps", "1", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_out_directory_exits_2_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("run_comparison called")

        monkeypatch.setattr(bench, "run_comparison", never)
        assert run_cli(["bench", "--function", "rosenbrock-chained", "--dim", "3",
                        "--reps", "1", "--out", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_empty_out_exits_2_before_running(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_comparison called")

        monkeypatch.setattr(bench, "run_comparison", never)
        assert run_cli(["bench", "--function", "rosenbrock-chained", "--dim", "3",
                        "--reps", "1", "--out", ""]) == 2
        assert "--out must not be empty" in capsys.readouterr().err


class TestRotateCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "rot.csv"
        code = run_cli(["rotate", "--angle-step", "0.1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "angle,mse,dir_grad_magnitude"
        assert len(lines) == 33  # ceil(pi / 0.1) angles strictly below pi

    def test_custom_point(self, tmp_path):
        out = tmp_path / "rot.csv"
        assert run_cli(["rotate", "--x0", "1.0,1.0", "--angle-step", "0.5",
                        "--out", str(out)]) == 0

    def test_point_starting_with_minus_is_passed_with_equals(self, tmp_path):
        # the documented form: after a space, argparse takes -0.29,0.4 for an option
        default, given = tmp_path / "default.csv", tmp_path / "given.csv"
        assert run_cli(["rotate", "--angle-step", "0.5", "--out", str(default)]) == 0
        assert run_cli(["rotate", "--x0=-0.29,0.4", "--angle-step", "0.5",
                        "--out", str(given)]) == 0
        assert given.read_bytes() == default.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["rotate", "--x0", "1.0", "--out", "x.csv"],
         "expected a point of shape (2,), got shape (1,)"),
        (["rotate", "--x0", "a,b", "--out", "x.csv"],
         "--x0 must be two comma-separated numbers"),
        (["rotate", "--angle-step", "0", "--out", "x.csv"],
         "angle_step must be positive and finite"),
        (["rotate", "--angle-step", "nan", "--out", "x.csv"],
         "angle_step must be positive and finite"),
        (["rotate", "--angle-step", "inf", "--out", "x.csv"],
         "angle_step must be positive and finite"),
        (["rotate", "--x0", "nan,0.4", "--out", "x.csv"], "x must be finite"),
        (["rotate", "--x0=-0.29,inf", "--out", "x.csv"], "x must be finite"),
        (["rotate", "--step", "-1e-3", "--out", "x.csv"],
         "argument --step: expected one argument"),
        (["rotate", "--step=-1e-3", "--out", "x.csv"], "step must be positive and finite"),
    ])
    def test_invalid_arguments_exit_2(self, argv, message, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.count(message) == 1

    def test_missing_out_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rot.csv"
        assert run_cli(["rotate", "--angle-step", "0.5", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_directory_exits_2_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("run_rotation_scan called")

        monkeypatch.setattr(bench, "run_rotation_scan", never)
        assert run_cli(["rotate", "--angle-step", "0.5", "--out", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_empty_out_exits_2_before_running(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_rotation_scan called")

        monkeypatch.setattr(bench, "run_rotation_scan", never)
        assert run_cli(["rotate", "--angle-step", "0.5", "--out", ""]) == 2
        assert "--out must not be empty" in capsys.readouterr().err


class TestHessianCommand:
    def test_prints_matrix_and_eigenvalues(self, capsys):
        code = run_cli(["hessian", "--function", "rosenbrock2d", "--dim", "2",
                        "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hessian estimate at mode:" in out
        assert "eigenvalue range:" in out
        assert "converged:" in out

    def test_prints_stop_reason_after_converged(self, capsys):
        assert run_cli(["hessian", "--function", "rosenbrock-chained", "--dim", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        i = lines.index("converged: False")
        assert lines[i + 1] == "stop reason: line_search: zoom interval collapsed"

    @pytest.mark.parametrize("argv, message", [
        (["hessian", "--function", "nope", "--dim", "2"], "unknown test function 'nope'"),
        (["hessian", "--function", "rosenbrock2d", "--dim", "3"],
         "rosenbrock2d requires dimension 2, got 3"),
        (["hessian", "--function", "rosenbrock2d", "--dim", "2", "--seed", "-1"],
         "seed must be an integer >= 0, got -1"),
    ])
    def test_invalid_arguments_exit_2(self, argv, message, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.count(message) == 1


@pytest.mark.parametrize("argv", [
    ["bench", "--function", "rosenbrock-chained", "--dim", "3", "--reps", "1"],
    ["hessian", "--function", "rosenbrock2d", "--dim", "2"],
], ids=["bench", "hessian"])
def test_test_function_is_built_once(argv, tmp_path, monkeypatch):
    # the command runs on the TestFunction it validated the name with
    calls = []

    def counting(name, dim):
        calls.append(name)
        return get_test_function(name, dim)

    monkeypatch.setattr(cli, "get_test_function", counting)
    monkeypatch.setattr(bench, "get_test_function", counting)
    out = ["--out", str(tmp_path / "r.csv")] if argv[0] == "bench" else []
    assert run_cli(argv + out) == 0
    assert calls == [argv[2]]


@pytest.mark.parametrize("command, flags", [
    ("bench", {"--function", "--dim", "--reps", "--seed", "--step", "--scheme", "--out"}),
    ("rotate", {"--x0", "--angle-step", "--step", "--out"}),
    ("hessian", {"--function", "--dim", "--seed"}),
    ("summarize", {"--in"}),
])
def test_subcommand_help_lists_every_flag(command, flags, capsys):
    assert run_cli([command, "--help"]) == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", out, re.MULTILINE)
    assert sorted(listed) == sorted(flags | {"--help"})
    if command == "rotate":  # the form a point starting with - needs
        assert "--x0=-0.29,0.4" in out


@pytest.mark.parametrize("argv, run", [
    (["bench", "--function", "rosenbrock-chained", "--dim", "3", "--reps", "1"],
     "run_comparison"),
    (["hessian", "--function", "rosenbrock2d", "--dim", "2"], "run_hessian_demo"),
], ids=["bench", "hessian"])
def test_an_error_mid_run_is_not_an_argument_error(argv, run, tmp_path, monkeypatch):
    # only the arguments are checked for exit status 2; a defect keeps its traceback
    def defect(*args, **kwargs):
        raise ValueError("defect")

    monkeypatch.setattr(bench, run, defect)
    out = ["--out", str(tmp_path / "r.csv")] if argv[0] == "bench" else []
    with pytest.raises(ValueError, match="^defect$"):
        main(argv + out)


class TestSummarizeCommand:
    def test_prints_improvement(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        run_cli(["bench", "--function", "rosenbrock-chained", "--dim", "3",
                 "--reps", "2", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        code = run_cli(["summarize", "--in", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "vanilla mean mse:" in printed
        assert "smart   mean mse:" in printed
        assert "improvement (vanilla/smart):" in printed

    @pytest.mark.parametrize("vanilla,ratio", [("2.0", "inf"), ("0.0", "nan")])
    def test_zero_smart_mse_prints_the_ratio(self, tmp_path, capsys, vanilla, ratio):
        path = tmp_path / "records.csv"
        path.write_text("function,dim,rep,iteration,method,mse,grad_norm\n"
                        f"f,2,0,0,vanilla,{vanilla},1.0\nf,2,0,0,smart,0.0,1.0\n")
        assert run_cli(["summarize", "--in", str(path)]) == 0
        assert f"improvement (vanilla/smart): {ratio}\n" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli(["summarize", "--in", str(tmp_path / "absent.csv")]) == 2

    @pytest.mark.parametrize("text,message", [
        ("function,dim,rep,iteration,method,grad_norm\nf,2,0,0,smart,1.0\n",
         "records.csv: missing column(s) mse"),
        ("function,dim,rep,iteration,method,mse,grad_norm\n"
         "f,2,0,0,smart,1.0,2.0\nf,2,0,1,sma", "line 3"),
        ("function,dim,rep,iteration,method,mse,grad_norm\n"
         "f,2,0,0,smart,1.0,1.0\n", "both methods"),
    ], ids=["missing-column", "truncated-row", "one-method"])
    def test_bad_records_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "records.csv"
        path.write_text(text)
        assert run_cli(["summarize", "--in", str(path)]) == 2
        assert capsys.readouterr().err.count(message) == 1


def run_module(*args):
    """Run `python -m gradbench` with the imported package first on the path."""
    src = str(Path(gradbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "gradbench", *args],
                          capture_output=True, text=True, env=env)


class TestConsoleEntryPoints:
    def test_module_invocation(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "bench" in proc.stdout and "rotate" in proc.stdout

    def test_bad_subcommand_exits_2(self):
        assert run_module("explode").returncode == 2

    def test_module_summarize_of_a_missing_file_exits_2(self, tmp_path):
        missing = tmp_path / "absent.csv"
        proc = run_module("summarize", "--in", str(missing))
        assert proc.returncode == 2
        assert str(missing) in proc.stderr
