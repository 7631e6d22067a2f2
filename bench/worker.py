"""One benchmark run in a fresh process: set-up, timed solves, checks.

run.py starts this file and passes the monotonic clock reading taken just
before the start, so set-up time covers the interpreter, the imports,
parsing the scenario and building the presentations.  The last line of
standard output is the run's JSON result.

Untraced (--trace 0), a warm-up solve is followed by timed solves while
another one still fits in --seconds.  The calibration task
(calibration.py) runs before and after each timed solve; `solve_s` is the
median of solve time over the mean of those two, times the task's
reference time.
Traced (--trace 1), one solve runs under a Tracer and the per-layer
metrics are reported.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() just before this process started")
    return ap.parse_args(argv)


def import_package():
    """Import idealtangent from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import idealtangent
    if not Path(idealtangent.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"idealtangent imported from {idealtangent.__file__}, "
                         f"not from {ROOT / 'src'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from idealtangent import tangent_at_subscheme
    from idealtangent.scenarios import parse_scenario, presentation_from
    from workloads import WORKLOADS, check

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    text = workload.scenario(args.seed)
    with tracer.span("scenarios.parse") if tracer else nullcontext():
        sc = parse_scenario(text)
    x_pres = presentation_from(sc, sc.x_gens)
    z_pres = presentation_from(sc, sc.z_gens)
    setup_s = time.monotonic() - args.started

    p, q = sc.window

    def solve():
        return tangent_at_subscheme(x_pres, z_pres, p, q, sc.m, sc.field)

    reports, times, calibrations = [], [], []
    if tracer:
        with tracer, tracer.span("solve"):
            reports.append(solve())
    else:
        from calibration import REFERENCE_S, calibrate
        begin = time.monotonic()
        # a warm-up solve, checked like the others but not timed
        reports.append(solve())
        calibrations.append(calibrate())
        while True:
            start = time.perf_counter()
            reports.append(solve())
            times.append(time.perf_counter() - start)
            calibrations.append(calibrate())
            if (time.monotonic() - begin + calibrations[-1] + times[-1]
                    > args.seconds):
                break
        # each solve over the mean of the calibrations just before and
        # after it cancels the host's drift; REFERENCE_S turns the ratio
        # back into seconds
        solve_s = REFERENCE_S * statistics.median(
            2 * t / (before + after)
            for t, before, after in zip(times, calibrations, calibrations[1:]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    references = workload.references(sc)
    problems = check(reports[0], references)
    if any(r.to_dict() != reports[0].to_dict() for r in reports[1:]):
        problems.append("repeated solves of one input gave different reports")
    for line in problems:
        print(f"WRONG {args.workload}: {line}", file=sys.stderr)

    if tracer:
        metrics = tracer.metrics()
    else:
        metrics = {"solve_s": {"value": solve_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": not problems, "attempted": len(reports), "failed": 0,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    detail = {"workload": args.workload, "seed": args.seed,
              "scenario": text, "dims": reports[0].dims,
              "classical_dim": reports[0].classical_dim,
              "references": references, "problems": problems,
              "solve_wall_s": times, "calibration_s": calibrations,
              "result": result}
    if tracer:
        tracer.dump(OUT / f"trace-{stem}.json", **detail)
    else:
        (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
