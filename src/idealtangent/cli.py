"""Scenario-driven command line.

One subcommand per task tag; reports go to stdout (aligned text, or JSON
with --json) and are byte-identical across runs of the same scenario.
Timing is written to stderr so reports stay deterministic.  Exit codes:
0 ok, 1 validation, 2 budget, 3 compare mismatch, 4 internal assertion.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .cicech import CIData, ci_normal_cohomology, ci_twist_cohomology
from .errors import BudgetError, InternalCheckError, ValidationError
from .fields import field_from_spec
from .graded import AlgebraModule, coordinate_ring_truncation, hilbert_data
from .harrison import HarrisonComplex
from .scenarios import Scenario, parse_scenario, presentation_from
from .tangent import (rmap_tangent, segre_presentation, stabilization_sweep,
                      tangent_at_subscheme)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


def _base_report(sc: Scenario) -> dict:
    return {
        "schema_version": 1,
        "tool_version": __version__,
        "task": sc.task,
        "field": sc.field.name,
    }


def run_truncate(sc: Scenario) -> dict:
    pres = presentation_from(sc, sc.x_gens)
    p, q = sc.window or (0, sc.d_max)
    ring = coordinate_ring_truncation(pres, p, q, sc.field)
    hd = hilbert_data(pres, max(sc.d_max, q + 2), sc.field)
    report = _base_report(sc)
    report["window"] = [p, q]
    report["dims"] = {str(d): ring.algebra.dim(d) for d in range(p, q + 1)}
    report["hilbert_values"] = {str(d): hd.values[d] for d in sorted(hd.values)}
    report["hilbert_polynomial"] = [str(c) for c in hd.coefficients]
    report["hilbert_first_agreement"] = hd.first_agreement
    report["notes"] = [
        "window read as degrees p through q of the coordinate ring"]
    return report


def _tangent_pres(sc: Scenario):
    extra = ()
    if sc.segre is not None:
        extra = segre_presentation(*sc.segre).gens
    x_pres = presentation_from(sc, sc.x_gens, extra)
    z_pres = presentation_from(sc, sc.z_gens)
    return x_pres, z_pres


def run_tangent(sc: Scenario) -> dict:
    if sc.window is None:
        raise ValidationError("tangent task needs a window")
    x_pres, z_pres = _tangent_pres(sc)
    rep = tangent_at_subscheme(x_pres, z_pres, sc.window[0], sc.window[1],
                               sc.m, sc.field)
    report = _base_report(sc)
    report.update(rep.to_dict())
    return report


def run_sweep(sc: Scenario, threads=1) -> dict:
    if not sc.p_range or not sc.q_range:
        raise ValidationError("sweep task needs p_range and q_range")
    x_pres, z_pres = _tangent_pres(sc)
    table = stabilization_sweep(x_pres, z_pres, sc.m, sc.p_range, sc.q_range,
                                sc.field, threads=threads)
    report = _base_report(sc)
    report.update(table.to_dict())
    return report


def run_harrison(sc: Scenario) -> dict:
    algebra = sc.build_algebra()
    cx = HarrisonComplex(algebra, AlgebraModule.regular(algebra),
                         sc.weight + 1).cochain_complex()
    weights = range(1, sc.weight + 1)
    report = _base_report(sc)
    report["algebra"] = " ".join(sc.algebra_spec)
    report["space_dims"] = {str(n): cx.dim(n - 1) for n in weights}
    report["cohomology"] = {str(n): cx.cohomology(n - 1) for n in weights}
    return report


def run_operad(sc: Scenario) -> dict:
    from .barcobar import BarCom, CobarOperad, cobar_lie_dual
    from .operads import LieOperad
    # Lie dimensions go up to the requested cap (max 5); bar/cobar follow
    # their own caps (4 and 3)
    lie = LieOperad(min(sc.arity_cap, 5))
    cap = min(sc.arity_cap, 4)
    report = _base_report(sc)
    report["lie_dims"] = {str(n): lie.dim(n)
                          for n in range(2, lie.n_cap + 1)}
    cob = cobar_lie_dual(cap, sc.field)
    report["cobar_lie_dual_cohomology"] = {
        str(n): {str(d): h for d, h in cob.cohomology_profile(n).items()}
        for n in range(2, cap + 1)}
    barcom = BarCom(min(cap, 3), sc.field)
    report["bar_com_homology"] = {
        str(n): {str(d): h for d, h in barcom.homology_dims(n).items() if h}
        for n in range(2, barcom.n_cap + 1)}
    bb = CobarOperad(barcom, barcom.n_cap, sc.field)
    report["cobar_bar_com_cohomology"] = {
        str(n): {str(d): h for d, h in bb.cohomology_profile(n).items()}
        for n in range(2, barcom.n_cap + 1)}
    return report


def run_oracle(sc: Scenario) -> dict:
    ci = CIData(sc.ambient_nvars(), tuple(sc.ci_gens or sc.z_gens))
    report = _base_report(sc)
    twists = {}
    if sc.twist is not None:
        twists[str(sc.twist)] = {
            str(i): ci_twist_cohomology(ci, sc.twist, i, sc.field)
            for i in range(sc.max_i + 1)}
    report["twist_cohomology"] = twists
    if ci.forms:
        report["normal_cohomology"] = {
            str(i): ci_normal_cohomology(ci, i, sc.field)
            for i in range(sc.max_i + 1)}
    return report


def run_rmap(sc: Scenario) -> dict:
    if sc.segre is None:
        raise ValidationError("rmap task needs 'segre = a b'")
    if sc.window is None:
        raise ValidationError("rmap task needs a window")
    rep = rmap_tangent(sc.segre[0], sc.segre[1], sc.z_gens, sc.m,
                       sc.window[0], sc.window[1], sc.field)
    report = _base_report(sc)
    report.update(rep.to_dict())
    return report


def run_compare(sc: Scenario) -> dict:
    if sc.window is None:
        raise ValidationError("compare task needs a window")
    x_pres, z_pres = _tangent_pres(sc)
    rep = tangent_at_subscheme(x_pres, z_pres, sc.window[0], sc.window[1],
                               sc.m, sc.field)
    ci = CIData(sc.ambient_nvars(), tuple(sc.ci_gens or sc.z_gens))
    report = _base_report(sc)
    report.update(rep.to_dict())
    comparisons = []
    all_match = True
    for i in range(sc.m + 1):
        oracle = ci_normal_cohomology(ci, i, sc.field)
        match = oracle == rep.dims[i]
        all_match = all_match and match
        comparisons.append({
            "i": i, "derived": rep.dims[i], "oracle": oracle,
            "verdict": "MATCH" if match else "MISMATCH"})
    report["comparisons"] = comparisons
    report["all_match"] = all_match
    return report


_RUNNERS = {
    "truncate": run_truncate,
    "tangent": run_tangent,
    "sweep": run_sweep,
    "harrison": run_harrison,
    "operad": run_operad,
    "oracle": run_oracle,
    "rmap": run_rmap,
    "compare": run_compare,
}


def render_text(report: dict) -> str:
    lines = [f"idealtangent {report['tool_version']}  task={report['task']}  "
             f"field={report['field']}"]

    def emit(key, value, indent=1):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k in value:
                emit(k, value[k], indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                rendered = "  ".join(f"{k}={item[k]}" for k in item)
                lines.append(f"{pad}  {rendered}")
        else:
            lines.append(f"{pad}{key} = {value}")

    for key in report:
        if key in ("schema_version", "tool_version", "task", "field"):
            continue
        emit(key, report[key])
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """The text of a scenario file; a located error if it is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}: line {line}: not valid UTF-8 ({exc.reason})") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="idealtangent",
        description="Exact tangent data of schemes of graded ideals in "
                    "truncated coordinate rings.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for task in _RUNNERS:
        sp = sub.add_parser(task, help=f"run a {task} scenario")
        sp.add_argument("scenario", help="path to the scenario file")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        sp.add_argument("--field", default=None,
                        help="override the scenario field: q or p:<prime>")
        sp.add_argument("--threads", type=int, default=1,
                        help="parallel window bound for sweep tasks")
        sp.add_argument("--out", default=None,
                        help="also write the report to this path")
        sp.add_argument("--timing", action="store_true",
                        help="append wall-clock timing to the report "
                             "(breaks byte-for-byte determinism)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        sc = parse_scenario(_read_text(args.scenario))
        if sc.task != args.command:
            raise ValidationError(
                f"scenario declares task {sc.task!r} but the "
                f"{args.command!r} subcommand was invoked")
        if args.field:
            sc.field = field_from_spec(args.field)
        if sc.task == "sweep":
            report = run_sweep(sc, threads=max(1, args.threads))
        else:
            report = _RUNNERS[sc.task](sc)
        elapsed = time.monotonic() - started
        if args.timing:
            report["timing_seconds"] = round(elapsed, 3)
        payload = (json.dumps(report, indent=2, sort_keys=True) + "\n"
                   if args.json else render_text(report))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    sys.stdout.write(payload)
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    if sc.task == "compare" and not report.get("all_match", True):
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
