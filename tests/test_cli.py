"""CLI: golden-file regressions, determinism, exit codes."""
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealtangent.cli import main
from idealtangent.scenarios import TASKS

REPO = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

GOLDEN = sorted(p.stem for p in SCENARIOS.glob("*.txt"))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_scenarios_byte_identical(name, capsys):
    scenario = SCENARIOS / f"{name}.txt"
    expected = (SCENARIOS / "expected" / f"{name}.json").read_text()
    task = json.loads(expected)["task"]
    code, out, err = run_cli([task, str(scenario), "--json"], capsys)
    assert code == 0
    assert out == expected
    # determinism: a second run is byte-identical
    code2, out2, _ = run_cli([task, str(scenario), "--json"], capsys)
    assert code2 == 0 and out2 == out


def test_text_output_renders(capsys):
    code, out, _ = run_cli(["tangent", str(SCENARIOS / "points_on_line.txt")],
                           capsys)
    assert code == 0
    assert "tangent_dims = [2, 0]" in out
    assert "classical_dim = 2" in out


def test_inhomogeneous_generator_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("task = tangent\nnvars = 2\nwindow = 2 5\nz_gens:\n"
                   "  x0^2 + x1\n")
    code, _, err = run_cli(["tangent", str(bad)], capsys)
    assert code == 1
    assert "validation error" in err and "inhomogeneous" in err


def test_not_a_subscheme_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("task = tangent\nnvars = 3\nwindow = 2 4\nm = 1\n"
                   "x_gens:\n  x0^2 - x1*x2\nz_gens:\n  x1^2\n")
    code, _, err = run_cli(["tangent", str(bad)], capsys)
    assert code == 1
    assert "not a subscheme" in err


def test_weight_budget_exits_2(tmp_path, capsys):
    sc = tmp_path / "deep.txt"
    sc.write_text("task = tangent\nnvars = 2\nwindow = 2 5\nm = 3\n"
                  "z_gens:\n  x0*x1\n")
    code, _, err = run_cli(["tangent", str(sc)], capsys)
    assert code == 2
    assert "budget" in err


def test_compare_mismatch_exits_3(tmp_path, capsys):
    # oracle fed a different subscheme than the tangent computation
    sc = tmp_path / "mismatch.txt"
    sc.write_text("task = compare\nnvars = 2\nwindow = 2 9\nm = 0\n"
                  "z_gens:\n  x0*x1\nci_gens:\n  x0^2*x1 - x0*x1^2\n")
    code, out, _ = run_cli(["compare", str(sc), "--json"], capsys)
    assert code == 3
    report = json.loads(out)
    assert report["all_match"] is False
    assert any(c["verdict"] == "MISMATCH" for c in report["comparisons"])


def _cli_subprocess(*argv):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-m", "idealtangent.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("task,line", [("tangent", "m = one"),
                                       ("harrison", "algebra = nilpotent x"),
                                       ("tangent", "nvars = 0"),
                                       ("truncate", "nvars = 0"),
                                       ("operad", "arity_cap = 1"),
                                       ("harrison", "weight = 0"),
                                       ("harrison", "algebra = nilpotent -1"),
                                       ("harrison", "algebra = zero 0"),
                                       ("rmap", "segre = -2 0"),
                                       ("tangent", "segre = -1 -1"),
                                       ("tangent", "segre = 1 -1"),
                                       ("rmap", "segre = -3 -3"),
                                       ("tangent", "nvars = 1000000000"),
                                       ("rmap", "segre = 999 999"),
                                       ("oracle", "max_i = -3"),
                                       ("truncate", "d_max = -1")])
def test_bad_integer_exits_1_without_traceback(tmp_path, task, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"task = {task}\nnvars = 2\nwindow = 2 5\n{line}\n"
                   "z_gens:\n  x0*x1\n")
    proc = _cli_subprocess(task, str(bad))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "validation error: line 4, column" in proc.stderr


def test_unwritable_out_exits_1_without_traceback(tmp_path):
    target = tmp_path / "missing" / "r.json"
    proc = _cli_subprocess("tangent", str(SCENARIOS / "points_on_line.txt"),
                           "--out", str(target))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "validation error:" in proc.stderr and str(target) in proc.stderr
    assert proc.stdout == ""


def test_non_utf8_scenario_exits_1_without_traceback(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"task = tangent\nnvars = 2\n# caf\xe9\n")
    proc = _cli_subprocess("tangent", str(bad))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"validation error: {bad}: line 3: not valid UTF-8" in proc.stderr


def test_task_subcommand_mismatch_exits_1(capsys):
    code, _, err = run_cli(["sweep", str(SCENARIOS / "points_on_line.txt")],
                           capsys)
    assert code == 1
    assert "subcommand" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(["tangent", "/nonexistent/file.txt"], capsys)
    assert code == 1


def test_field_override(capsys):
    code, out, _ = run_cli(["tangent", str(SCENARIOS / "points_on_line.txt"),
                            "--json", "--field", "p:1000003"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["field"] == "GF(1000003)"
    assert report["tangent_dims"] == [2, 0]


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["tangent", str(SCENARIOS / "points_on_line.txt"),
                            "--json", "--out", str(target)], capsys)
    assert code == 0
    assert target.read_text() == out


def test_timing_flag_adds_field(capsys):
    code, out, _ = run_cli(["tangent", str(SCENARIOS / "points_on_line.txt"),
                            "--json", "--timing"], capsys)
    assert code == 0
    assert "timing_seconds" in json.loads(out)


@pytest.mark.parametrize("argv,message", [
    (["tangent", str(SCENARIOS / "points_on_line.txt"), "--bogus"],
     "unrecognized arguments: --bogus"),
    (["tangent"], "required: scenario"),
    (["tangent", str(SCENARIOS / "points_on_line.txt"), "--threads", "4"],
     "unrecognized arguments: --threads 4"),
    (["sweep", str(SCENARIOS / "points_on_line_sweep.txt"), "--threads", "x"],
     "--threads"),
    (["sweep", str(SCENARIOS / "points_on_line_sweep.txt"), "--threads", "-3"],
     "argument --threads: must be at least 1, got -3"),
    (["sweep", str(SCENARIOS / "points_on_line_sweep.txt"), "--threads", "0"],
     "argument --threads: must be at least 1, got 0"),
])
def test_usage_error_exits_1_without_traceback(argv, message):
    proc = _cli_subprocess(*argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("validation error: ")
    assert message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["sweep", "--help"]])
def test_help_and_version_exit_0(argv):
    proc = _cli_subprocess(*argv)
    assert proc.returncode == 0
    assert proc.stdout and proc.stderr == ""



def _ints(lo, hi, size):
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size).map(
        lambda xs: " ".join(map(str, xs)))


# a small valid scenario per task, and its generator block ...
_BASE = {
    "truncate": ({"nvars": "2", "window": "0 3", "d_max": "3"}, "x_gens"),
    "tangent": ({"nvars": "2", "window": "2 4", "m": "1"}, "z_gens"),
    "sweep": ({"nvars": "2", "p_range": "2", "q_range": "4 5", "m": "1"},
              "z_gens"),
    "harrison": ({"algebra": "nilpotent 2", "weight": "2"}, "x_gens"),
    "operad": ({"arity_cap": "3"}, "x_gens"),
    "oracle": ({"nvars": "3", "twist": "1", "max_i": "1"}, "ci_gens"),
    "rmap": ({"segre": "1 1", "window": "2 3", "m": "1"}, "z_gens"),
    "compare": ({"nvars": "2", "window": "2 4", "m": "1"}, "z_gens"),
}
# ... and small values, in and out of range, that override it
_VALUES = {
    "field": st.sampled_from(["q", "p:2", "p:3", "p:7", "p:1000003", "p:8", "r"]),
    "nvars": st.integers(0, 3).map(str),
    "segre": st.sampled_from(["0 0", "0 1", "1 1", "1", "1 -1"]),
    "window": st.one_of(_ints(-1, 4, 2), _ints(0, 4, 1)),
    "p_range": st.one_of(_ints(-1, 3, 1), _ints(0, 3, 2)),
    "q_range": st.one_of(_ints(0, 5, 1), _ints(0, 5, 2)),
    "m": st.integers(-1, 3).map(str),
    "weight": st.integers(0, 3).map(str),
    "arity_cap": st.integers(1, 5).map(str),
    "twist": st.integers(-2, 3).map(str),
    "max_i": st.integers(-1, 2).map(str),
    "d_max": st.integers(-1, 4).map(str),
    "algebra": st.sampled_from(["nilpotent 2", "zero 1", "zero 0", "nilpotent",
                                "product nilpotent 2 zero 1", "cube 2"]),
}


@st.composite
def _scenarios(draw):
    """(task, scenario text): a task's small base scenario with up to three
    values overridden and up to three generators, mostly valid ones."""
    task = draw(st.sampled_from(TASKS))
    values, block = _BASE[task]
    values = dict(values)
    for key in draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=3)):
        values[key] = draw(_VALUES[key])
    gens = draw(st.lists(st.sampled_from(
        ["x0*x1", "x1^2", "x0^2 - x0*x1", "x0", "x1 - x0", "x2^3", "x0 +"]),
        max_size=3))
    return task, "\n".join([f"task = {task}"]
                           + [f"{k} = {v}" for k, v in values.items()]
                           + [f"{block}:"] + ["  " + g for g in gens]) + "\n"


# usage errors are rarer than the valid flags
_flags = st.lists(st.sampled_from(
    ["--json", "--timing", "--field=p:7", "--field=q", "--out=OUT",
     "--json", "--timing", "--field=p:4", "--threads=2", "--out=NO/r",
     "--bogus"]), max_size=3, unique=True)


@settings(max_examples=150, deadline=None)
@given(_scenarios(), _flags, st.sampled_from(["task", "task", "other",
                                               "missing"]))
def test_cli_fuzz_exits_with_a_documented_code_and_no_traceback(
        scenario, flags, command):
    """Any small scenario and flags: exit 0-4 and no traceback on stderr.
    An exception out of ``main`` fails the example with its traceback."""
    task, text = scenario
    if command == "other":
        task = TASKS[(TASKS.index(task) + 1) % len(TASKS)]
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "s.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [task, os.path.join(tmp, "missing.txt" if command == "missing"
                                   else "s.txt")]
        argv += [f.replace("OUT", os.path.join(tmp, "out")).replace(
            "NO", os.path.join(tmp, "no")) for f in flags]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    assert code in {0, 1, 2, 3, 4}, err.getvalue()
    assert "Traceback" not in err.getvalue()
