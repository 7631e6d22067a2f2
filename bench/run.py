"""Run one benchmark workload in a fresh process and print its result.

    python3 bench/run.py --workload conic-gfp --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The workload runs in bench/worker.py, one
single-threaded process; this launcher reads the clock just before
starting it (the start of set-up), waits for it, and passes its output on.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is not 0
when the worker fails or runs over TIMEOUT_S.
"""
from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "idealtangent" / "__init__.py").is_file():
        print(f"run.py: no idealtangent package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--started", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran over {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"run.py: worker exited with code {proc.returncode}",
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
