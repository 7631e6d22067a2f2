"""A fixed reference task that measures how fast the host runs right now.

The host this benchmark runs on shares its cores with other machines'
work, and its speed drifts by tens of percent over seconds to minutes,
for identical work.  The worker runs `calibrate()` before and after every
solve and divides the solve's wall time by the mean of the two, which
cancels the drift that the solve and the task share.

The task is sparse row elimination over GF(P) on Python dicts and ints,
the same kind of work as the solves.  Its code and input live here and
never change with the program under test.

`REFERENCE_S` is the task's median time on the reference host (see
README.md).  A solve/calibration ratio times `REFERENCE_S` reads as the
solve's wall time at the reference host's speed.
"""
from __future__ import annotations

import random
import time

P = 1000003
ROWS, COLS, ROW_NNZ = 250, 400, 6

#: Median seconds of one calibrate() on the reference host.
REFERENCE_S = 0.125


def _matrix() -> list[dict]:
    rng = random.Random(20001)
    return [{rng.randrange(COLS): rng.randrange(1, P) for _ in range(ROW_NNZ)}
            for _ in range(ROWS)]


MATRIX = _matrix()


def eliminate(matrix: list[dict]) -> dict:
    """Pivot rows of `matrix` ({col: value} rows) in echelon form mod P."""
    pivots: dict = {}
    for row in matrix:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], P - 2, P)
                pivots[c] = {k: v * inv % P for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivots[c].items():
                nv = (row.get(k, 0) - f * v) % P
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return pivots


def calibrate() -> float:
    """Wall seconds of one elimination of the fixed matrix."""
    start = time.perf_counter()
    eliminate(MATRIX)
    return time.perf_counter() - start
