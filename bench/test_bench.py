"""Self-test of the benchmark: checks reject wrong answers, traces repeat.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from idealtangent import HomIdealPresentation, tangent_at_subscheme  # noqa: E402
from idealtangent.fields import PrimeField  # noqa: E402
from idealtangent.linalg import Matrix  # noqa: E402
from idealtangent.scenarios import parse_scenario  # noqa: E402
from idealtangent.tangent import TangentReport  # noqa: E402
from calibration import MATRIX, P, calibrate, eliminate  # noqa: E402
from tracing import COUNT_METRICS, TIME_METRICS, Tracer  # noqa: E402
from workloads import (STANDARD_CONIC, WORKLOADS, check, coordinate_change,  # noqa: E402
                       det3, transformed_conic)


def _report(dims, classical):
    return TangentReport((2, 6), len(dims) - 1, list(dims), classical, {})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_rejects_wrong_answers(name):
    workload = WORKLOADS[name]
    sc = parse_scenario(workload.scenario(7))
    references = workload.references(sc)
    right = max(references.values(), key=len)
    dims = list(right) + [0] * (workload.m + 1 - len(right))
    assert check(_report(dims, dims[0]), references) == []
    for i in range(len(right)):
        wrong = list(dims)
        wrong[i] += 1
        assert check(_report(wrong, wrong[0]), references), (name, wrong)
    assert check(_report(dims, dims[0] + 1), references)


def test_singular_coordinate_change_is_refused():
    with pytest.raises(ValueError):
        transformed_conic(((1, 0, 0), (0, 1, 0), (1, 0, 0)))


def test_coordinate_changes_are_invertible_and_seeded():
    for seed in range(20):
        assert abs(det3(coordinate_change(seed))) == 2
    gen = WORKLOADS["conic-generic-qq"]
    assert gen.scenario(3) == gen.scenario(3)
    assert {gen.scenario(s) for s in range(20)} != {gen.scenario(0)}


def test_identity_change_gives_the_standard_conic():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    got = HomIdealPresentation.from_strings(3, [transformed_conic(ident)])
    want = HomIdealPresentation.from_strings(3, [STANDARD_CONIC])
    assert got.gens[0].coeffs == want.gens[0].coeffs


def _traced_small_solve():
    x_pres = HomIdealPresentation(3, ())
    z_pres = HomIdealPresentation.from_strings(3, [STANDARD_CONIC])
    tracer = Tracer()
    with tracer, tracer.span("solve"):
        report = tangent_at_subscheme(x_pres, z_pres, 2, 5, 1, PrimeField(1000003))
    return report, tracer


def test_traced_counts_repeat_and_wrappers_are_removed():
    rank = Matrix.rank
    first_report, first = _traced_small_solve()
    second_report, second = _traced_small_solve()
    assert Matrix.rank is rank
    assert first_report.dims == second_report.dims
    m1, m2 = first.metrics(), second.metrics()
    assert set(m1) == set(TIME_METRICS) | set(COUNT_METRICS)
    counts1 = {k: m1[k]["value"] for k in COUNT_METRICS}
    assert counts1 == {k: m2[k]["value"] for k in COUNT_METRICS}
    assert all(v > 0 for v in counts1.values()), counts1
    assert counts1["linalg.rank_distinct"] <= counts1["linalg.rank_calls"]
    assert len(first.ranks) == counts1["linalg.rank_calls"]


def test_calibration_task_is_a_fixed_correct_elimination():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 3, 2: 1}]
    assert eliminate(rows) == {0: {0: 1, 1: 2}, 1: {1: 1, 2: pow(3, P - 2, P)}}
    # full rank: every run eliminates the same fixed matrix in full
    assert len(eliminate(MATRIX)) == len(MATRIX) == 250
    assert calibrate() > 0


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(TIME_METRICS + COUNT_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"solve_s", "setup_s",
                                                       "peak_rss_mb"}


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "conic-gfp", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
