"""Per-layer spans and counters for the traced benchmark run.

While installed, a Tracer replaces functions and methods of the
idealtangent modules with wrappers and restores the originals on exit;
the package's source is not changed.  Each wrapper records a span (name,
start, end, parent).  A layer's self time is the duration of its spans
minus the time their child spans cover.  Counts are taken at the same
boundaries; they depend only on the input and repeat exactly.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from idealtangent import complexes, graded, harrison, idealpoints, linalg, tangent

#: The per-layer metrics, in the order BENCHMARK.json lists them.
TIME_METRICS = (
    "scenarios.parse_s", "graded.truncation_s", "idealpoints.point_s",
    "idealpoints.quotient_s", "idealpoints.classical_s", "harrison.space_s",
    "harrison.diff_s", "tangent.restriction_s", "complexes.dd_check_s",
    "complexes.chain_map_check_s", "complexes.fiber_s",
    "complexes.cohomology_s", "linalg.rank_s", "linalg.mul_s",
)
COUNT_METRICS = (
    "graded.algebra_dim", "harrison.space_dim", "harrison.tuple_cols",
    "harrison.diff_nnz", "tangent.restriction_nnz",
    "complexes.cohomology_calls", "linalg.rank_calls", "linalg.rank_distinct",
    "linalg.ranked_nnz", "linalg.fill_nnz", "linalg.max_fill_nnz",
    "linalg.mul_calls", "linalg.col_calls", "linalg.col_entries_scanned",
)


class Tracer:
    """Spans, counts and one record per elimination, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.ranks: list[dict] = []     # one per Matrix.echelon call
        self._ranked: set = set()       # fingerprints of ranked matrices
        self._open: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    # -- installing the wrappers ------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _timed(self, fn, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, out, *args)
            return out
        return wrapper

    def _method(self, cls, attr, name, count=None):
        self._replace(cls, attr, self._timed(vars(cls)[attr], name, count))

    def _function(self, module, attr, name, count=None):
        """Wrap a module-level function under every name it is imported as."""
        fn = vars(module)[attr]
        wrapper = self._timed(fn, name, count)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("idealtangent")
                    and vars(mod).get(attr) is fn):
                self._replace(mod, attr, wrapper)

    def install(self):
        Matrix = linalg.Matrix
        self._method(graded.TruncatedCoordinateRing, "__init__",
                     "graded.truncation", _count_truncation)
        self._function(idealpoints, "subscheme_to_point", "idealpoints.point")
        self._method(idealpoints.QuotientData, "__init__", "idealpoints.quotient")
        self._method(idealpoints.QuotientData, "module_over_ambient",
                     "idealpoints.quotient")
        self._function(idealpoints, "classical_tangent_dim",
                       "idealpoints.classical")
        self._method(harrison.HarrisonWeightSpace, "__init__", "harrison.space",
                     _count_space)
        self._method(harrison.HarrisonComplex, "_build_diff", "harrison.diff",
                     _count_diff)
        self._function(tangent, "_pullback_components", "tangent.restriction",
                       _count_restriction)
        self._method(complexes.CochainComplex, "_check", "complexes.dd_check")
        self._method(complexes.ChainMap, "verify", "complexes.chain_map_check")
        self._function(complexes, "mapping_fiber", "complexes.fiber")
        self._method(complexes.CochainComplex, "cohomology",
                     "complexes.cohomology", _count_call("complexes.cohomology_calls"))
        self._method(Matrix, "mul", "linalg.mul", _count_call("linalg.mul_calls"))
        self._replace(Matrix, "rank", self._rank(vars(Matrix)["rank"]))
        self._replace(Matrix, "echelon", self._echelon(vars(Matrix)["echelon"]))
        self._replace(Matrix, "col", self._col(vars(Matrix)["col"]))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _rank(self, rank):
        tracer = self

        @functools.wraps(rank)
        def wrapper(m):
            # the fingerprint is taken outside the span, so its cost falls
            # in the caller's self time, not in linalg.rank_s
            tracer._ranked.add((m.nrows, m.ncols,
                                hash(frozenset(m.entries.items()))))
            tracer.counts["linalg.rank_calls"] += 1
            tracer.counts["linalg.ranked_nnz"] += len(m.entries)
            with tracer.span("linalg.rank"):
                return rank(m)
        return wrapper

    def _echelon(self, echelon):
        tracer = self

        @functools.wraps(echelon)
        def wrapper(m):
            start = time.perf_counter()
            ech = echelon(m)
            seconds = time.perf_counter() - start
            tracer.ranks.append({
                "rows": m.nrows, "cols": m.ncols, "nnz": len(m.entries),
                "rank": ech.rank,
                "fill": sum(len(r) for r in ech.pivot_rows.values()),
                "seconds": seconds})
            return ech
        return wrapper

    def _col(self, col):
        counts = self.counts

        @functools.wraps(col)
        def wrapper(m, j):
            counts["linalg.col_calls"] += 1
            counts["linalg.col_entries_scanned"] += len(m.entries)
            return col(m, j)
        return wrapper

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per span name, each span less its direct children."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def metrics(self) -> dict:
        own = self.self_times()
        counts = Counter(self.counts)
        counts["linalg.rank_distinct"] = len(self._ranked)
        counts["linalg.fill_nnz"] = sum(r["fill"] for r in self.ranks)
        counts["linalg.max_fill_nnz"] = max((r["fill"] for r in self.ranks),
                                            default=0)
        out = {name: {"value": own.get(name[:-2], 0.0), "unit": "s"}
               for name in TIME_METRICS}
        out.update({name: {"value": counts[name], "unit": "count"}
                    for name in COUNT_METRICS})
        return out

    def dump(self, path, **header):
        record = dict(header)
        record["self_s"] = self.self_times()
        record["metrics"] = {k: v["value"] for k, v in self.metrics().items()}
        record["ranks"] = self.ranks
        record["spans"] = self.spans
        path.write_text(json.dumps(record, indent=1) + "\n")


def _count_call(key):
    def count(counts, out, *args):
        counts[key] += 1
    return count


def _count_truncation(counts, out, ring, *args):
    counts["graded.algebra_dim"] += ring.algebra.total_dim


def _count_space(counts, out, space, *args):
    counts["harrison.space_dim"] += space.dim
    counts["harrison.tuple_cols"] += sum(len(b.cols) for b in space.blocks)


def _count_diff(counts, out, *args):
    counts["harrison.diff_nnz"] += len(out.entries)


def _count_restriction(counts, out, *args):
    counts["tangent.restriction_nnz"] += sum(len(m.entries) for m in out.values())
