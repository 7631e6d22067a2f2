"""CLI: golden-file regressions, determinism, exit codes."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

from idealtangent.cli import main

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
