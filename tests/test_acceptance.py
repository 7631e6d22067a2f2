"""Acceptance suite: one test per criterion, printed pass/fail per line.

All comparisons are exact (integer dimensions, tolerance 0).  Criteria
whose *stated window grids* claim the asymptotic values at windows where
the exact finite-window computation provably differs (criteria 1, 2 and
the stability flags of 5 on those grids; see README, "Known
acceptance-grid defects") are run faithfully and marked strict xfail, each
paired with a passing companion at stabilized windows where the claimed
values and the oracle agreement hold exactly.

Run with -s to see the per-criterion lines.
"""
import time
from math import factorial

import pytest

from idealtangent.barcobar import BarCom, CobarOperad, cobar_lie_dual
from idealtangent.cicech import CIData, ci_normal_cohomology
from idealtangent.cinfinity import (CInfinityStructure, GradedSpace,
                                    coordinate_dga_check, mc_check,
                                    rca_tangent, rca_tangent_via_mc,
                                    rhom_tangent, strict_structure)
from idealtangent.fields import QQ, PrimeField
from idealtangent.graded import (AlgebraModule, HomIdealPresentation,
                                 coordinate_ring_truncation, nilpotent_algebra,
                                 product_algebra, zero_multiplication_algebra)
from idealtangent.harrison import HarrisonComplex, harrison_cohomology
from idealtangent.idealpoints import classical_tangent_dim, subscheme_to_point
from idealtangent.linalg import Matrix
from idealtangent.operads import LieOperad
from idealtangent.tangent import (rmap_tangent, stabilization_sweep,
                                  tangent_at_subscheme)

GF = PrimeField(1000003)

P1 = HomIdealPresentation.from_strings(2, [])
P2 = HomIdealPresentation.from_strings(3, [])
P3 = HomIdealPresentation.from_strings(4, [])
TWO_POINTS = HomIdealPresentation.from_strings(2, ["x0*x1"])
THREE_POINTS = HomIdealPresentation.from_strings(2, ["x0^2*x1 - x0*x1^2"])
CONIC = HomIdealPresentation.from_strings(3, ["x0^2 - x1*x2"])
ONE_POINT = HomIdealPresentation.from_strings(3, ["x1", "x2"])
TWISTED_CUBIC = HomIdealPresentation.from_strings(
    4, ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"])
SEGRE_QUADRIC = "x0*x3 - x1*x2"
RMAP_IDENTITY = [SEGRE_QUADRIC, "x1 - x2"]
RMAP_DEGREE2 = [SEGRE_QUADRIC, "x0*x1 - x2^2", "x2*x3 - x1^2"]

#: stabilized windows found by the sweep probes: H^1 vanishes
#: from q = 8 (d = 2) resp. 9 (d = 3) at p = 2, and from q = 13 at p = 3;
#: the conic stabilizes at [2, 8]; one point on P^2 reaches (2, 0, 0) at
#: [2, 11]; the Segre graphs at [2, 8].
STABLE_POINTS_GRID = ([2], [9, 10, 11])
STABLE_POINTS_CORNER = (3, 13)
STABLE_CONIC_WINDOW = (2, 8)
STABLE_ONE_POINT_WINDOW = (2, 11)
RMAP_WINDOW = (2, 8)

_results = {}


def _record(criterion, ok, detail, xfail=False):
    tag = "PASS" if ok else ("XFAIL (criterion-grid defect, see README)"
                             if xfail else "FAIL")
    print(f"ACCEPTANCE {criterion}: {tag} — {detail}")
    return ok


@pytest.fixture(scope="module")
def stable_point_sweeps():
    out = {}
    for z, d in ((TWO_POINTS, 2), (THREE_POINTS, 3)):
        out[d] = stabilization_sweep(P1, z, 1, *STABLE_POINTS_GRID, QQ)
    return out


@pytest.fixture(scope="module")
def conic_stable_report():
    return tangent_at_subscheme(P2, CONIC, *STABLE_CONIC_WINDOW, 1, QQ)


@pytest.fixture(scope="module")
def rmap_reports():
    out = {}
    for name, gens, expected in (("identity", RMAP_IDENTITY, 3),
                                 ("degree2", RMAP_DEGREE2, 5)):
        out[name] = (rmap_tangent(1, 1, gens, 1, *RMAP_WINDOW, QQ), expected)
    return out


@pytest.mark.xfail(strict=True, reason=(
    "criterion-grid defect: the stated windows p in {2,3}, q in {5,6,7} "
    "are too small for the asymptotic values (hand proof: at [3,5] the "
    "truncation has no in-window products and the tangent is "
    "18-dimensional); see README"))
def test_criterion_1_points_on_p1_stated_grid():
    failures = []
    for z, d in ((TWO_POINTS, 2), (THREE_POINTS, 3)):
        ci = CIData(2, z.gens)
        oracle = (ci_normal_cohomology(ci, 0), ci_normal_cohomology(ci, 1))
        assert oracle == (d, 0)
        for p in (2, 3):
            for q in (5, 6, 7):
                rep = tangent_at_subscheme(P1, z, p, q, 1, QQ)
                if rep.dims != [d, 0]:
                    failures.append((d, p, q, rep.dims))
    _record(1, not failures, f"stated grid failures: {failures[:4]}...",
            xfail=True)
    assert not failures


def test_criterion_1_points_on_p1_stable_windows(stable_point_sweeps):
    ok = True
    for z, d in ((TWO_POINTS, 2), (THREE_POINTS, 3)):
        ci = CIData(2, z.gens)
        oracle = (ci_normal_cohomology(ci, 0), ci_normal_cohomology(ci, 1))
        table = stable_point_sweeps[d]
        for w in table.windows:
            rep = table.reports[w]
            ok = ok and rep.dims == [d, 0] == list(oracle)
        corner = tangent_at_subscheme(P1, z, *STABLE_POINTS_CORNER, 1, QQ)
        ok = ok and corner.dims == [d, 0]
    assert _record("1 (stable windows)", ok,
                   f"H = (d, 0) for d = 2, 3 on p=2, q in 9..11 and at "
                   f"[{STABLE_POINTS_CORNER[0]},{STABLE_POINTS_CORNER[1]}]; "
                   f"ci-oracle agrees")


@pytest.mark.xfail(strict=True, reason=(
    "criterion-grid defect: on {2,3}x{6,8} only [2,8] realizes (5, 0); "
    "see README"))
def test_criterion_2_conic_stated_grid(conic_stable_report):
    failures = []
    for p in (2, 3):
        for q in (6, 8):
            rep = (conic_stable_report if (p, q) == STABLE_CONIC_WINDOW
                   else tangent_at_subscheme(P2, CONIC, p, q, 1, QQ))
            if rep.dims != [5, 0]:
                failures.append((p, q, rep.dims))
    _record(2, not failures, f"stated grid failures: {failures}", xfail=True)
    assert not failures


def test_criterion_2_conic_stable_window(conic_stable_report):
    ci = CIData(3, CONIC.gens)
    oracle = [ci_normal_cohomology(ci, 0), ci_normal_cohomology(ci, 1)]
    ok = conic_stable_report.dims == [5, 0] == oracle
    assert _record("2 (stable window)", ok,
                   f"conic at [2,8]: {conic_stable_report.dims} = oracle "
                   f"{oracle}")


def test_criterion_3_constant_hilbert_polynomial():
    started = time.time()
    rep = tangent_at_subscheme(P2, ONE_POINT, *STABLE_ONE_POINT_WINDOW, 2, QQ)
    elapsed = time.time() - started
    ok = rep.dims == [2, 0, 0]
    assert _record(3, ok, f"one point on P^2, m=2, window "
                          f"{STABLE_ONE_POINT_WINDOW}: {rep.dims} "
                          f"({elapsed:.0f}s)")
    assert elapsed < 300


def test_criterion_4_h0_equals_classical(stable_point_sweeps,
                                         conic_stable_report, rmap_reports):
    checks = []
    for d, table in stable_point_sweeps.items():
        for w in table.windows:
            rep = table.reports[w]
            checks.append(rep.dims[0] == rep.classical_dim)
    checks.append(conic_stable_report.dims[0]
                  == conic_stable_report.classical_dim)
    for rep, _ in rmap_reports.values():
        checks.append(rep.dims[0] == rep.classical_dim)
    # also on unstabilized windows, where the identity is a theorem about
    # the truncated pair rather than about the limit
    for (p, q) in ((2, 5), (3, 6)):
        rep = tangent_at_subscheme(P1, TWO_POINTS, p, q, 1, QQ)
        checks.append(rep.dims[0] == rep.classical_dim)
    # and at the twisted cubic (criterion 6's ideal point), m = 0
    ring = coordinate_ring_truncation(P3, 2, 6, QQ)
    point = subscheme_to_point(ring, TWISTED_CUBIC)
    from idealtangent.tangent import derived_tangent
    rep = derived_tangent(ring.algebra, point, 0, window=(2, 6))
    checks.append(rep.dims[0] == rep.classical_dim == 12)
    ok = all(checks)
    assert _record(4, ok, f"H^0 = classical on {len(checks)} ideal points "
                          f"(incl. unstabilized windows and the twisted cubic)")


@pytest.mark.xfail(strict=True, reason=(
    "criterion-grid defect: stability flags cannot be set on the criteria "
    "1-2 grids because the dimensions genuinely vary there; see README"))
def test_criterion_5_stability_flags_on_stated_grids():
    table = stabilization_sweep(P1, TWO_POINTS, 1, [2, 3], [5, 6, 7], QQ)
    _record(5, all(table.stable), f"stated grid flags: {table.stable}",
            xfail=True)
    assert all(table.stable)


def test_criterion_5_stability_flags_on_stable_grids(stable_point_sweeps):
    ok = True
    for d, table in stable_point_sweeps.items():
        ok = ok and table.stable == [True, True]
        ok = ok and table.corners[0] == (2, 9)
    assert _record("5 (stable grids)", ok,
                   "sweep flags stable for i <= 1 with reported corners")


def test_criterion_6_twisted_cubic_classical():
    # oracle documented in README: orbit dimension
    # dim PGL_4 - dim stabilizer = 15 - 3 = 12
    dims = {}
    for q in (6, 8):
        started = time.time()
        ring = coordinate_ring_truncation(P3, 2, q, QQ)
        point = subscheme_to_point(ring, TWISTED_CUBIC)
        dims[q] = classical_tangent_dim(ring.algebra, point)
        assert time.time() - started < 1800
    ok = dims == {6: 12, 8: 12}
    assert _record(6, ok, f"twisted cubic classical tangent at q=6,8: {dims} "
                          f"(orbit oracle: 15 - 3 = 12)")


def battery():
    return [
        ("nilpotent3", nilpotent_algebra(3)),
        ("nilpotent2", nilpotent_algebra(2)),
        ("zero2", zero_multiplication_algebra(2)),
        ("zero3", zero_multiplication_algebra(3)),
        ("nil2xnil2", product_algebra(nilpotent_algebra(2),
                                      nilpotent_algebra(2))),
        ("nil3xzero1", product_algebra(nilpotent_algebra(3),
                                       zero_multiplication_algebra(1))),
    ]


def brute_force_derivations(algebra, module):
    da, dm = algebra.dims[0], module.dims[0]
    var = {(a, m): a * dm + m for a in range(da) for m in range(dm)}
    rows = []
    for a in range(da):
        for b in range(da):
            prod = algebra.mult_column(0, a, 0, b)
            for mp in range(dm):
                row = {}
                for c, v in prod.items():
                    row[var[(c, mp)]] = row.get(var[(c, mp)], 0) + v
                for m in range(dm):
                    act = module.act_column(0, a, 0, m)
                    if mp in act:
                        row[var[(b, m)]] = row.get(var[(b, m)], 0) - act[mp]
                    act = module.act_column(0, b, 0, m)
                    if mp in act:
                        row[var[(a, m)]] = row.get(var[(a, m)], 0) - act[mp]
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return len(var) - Matrix.from_rows(rows, len(var)).rank()


def test_criterion_7_harrison_suite():
    ok = True
    for name, algebra in battery():
        module = AlgebraModule.regular(algebra)
        h1 = harrison_cohomology(algebra, module, 1)
        ok = ok and h1 == brute_force_derivations(algebra, module)
        # weight-2 space = symmetric bilinear maps
        hc = HarrisonComplex(algebra, module, 5)
        dim_a = algebra.dims[0]
        ok = ok and hc.space(2).dim == dim_a * (dim_a + 1) // 2 * dim_a
        # d∘d = 0 exactly at all weights <= 4
        for n in (1, 2, 3):
            ok = ok and hc.diff(n + 1).mul(hc.diff(n)).is_zero()
    assert _record(7, ok, f"H^1 = Der + symmetric weight 2 + d∘d = 0 "
                          f"(weights <= 4) on {len(battery())} algebras")


def test_criterion_8_operad_suite():
    started = time.time()
    ok = True
    lie = LieOperad(5)
    for n in range(2, 6):
        ok = ok and lie.dim(n) == factorial(n - 1)
    cob = cobar_lie_dual(4)
    for n in (2, 3, 4):
        ok = ok and cob.cohomology_profile(n) == {0: 1}
    barcom = BarCom(3)
    bb = CobarOperad(barcom, 3)
    for n in (2, 3):
        ok = ok and bb.cohomology_profile(n) == {0: 1}
    for dim_w in (1, 2):
        ok = ok and coordinate_dga_check(dim_w, 4)
    elapsed = time.time() - started
    assert _record(8, ok, f"Lie dims, Koszulness (arity <= 4), "
                          f"Cobar(Bar(Com)) = Com (arity <= 3), "
                          f"coordinate-dga d*d = 0 ({elapsed:.0f}s)")
    assert elapsed < 300


def test_criterion_9_mc_and_tangent_suite():
    ok = True
    # mc_check matrix: positive and negative cases
    ok = ok and mc_check(strict_structure(nilpotent_algebra(3)), 4)[0]
    ok = ok and mc_check(strict_structure(zero_multiplication_algebra(2)), 4)[0]
    bad = CInfinityStructure(
        GradedSpace([0, 0]),
        {2: {(0, 0): {1: 1}, (1, 1): {0: 1}}})
    verdict, weight = mc_check(bad, 4)
    ok = ok and not verdict and weight == 3
    # rca_tangent two ways
    for algebra in (nilpotent_algebra(2), nilpotent_algebra(3),
                    zero_multiplication_algebra(2)):
        ok = ok and rca_tangent(algebra, 0)[0] == rca_tangent_via_mc(algebra)
    # rhom_tangent = brute-force derivations for three homomorphisms
    a3 = nilpotent_algebra(3)
    a2 = nilpotent_algebra(2)
    cases = [
        (a3, a3, {0: Matrix.identity(3)}),
        (a2, a2, {0: Matrix.identity(2)}),
        # A = span(x,x^2,x^3) -> B = span(y,y^2): x -> y kills x^3
        (a3, a2, {0: Matrix.from_rows([{0: 1}, {1: 1}], 3, QQ)}),
    ]
    from idealtangent.harrison import module_via_homomorphism
    for algebra_a, algebra_b, comps in cases:
        dims = rhom_tangent(algebra_a, algebra_b, comps, 0)
        module = module_via_homomorphism(algebra_a, algebra_b, comps)
        ok = ok and dims[0] == brute_force_derivations(algebra_a, module)
    assert _record(9, ok, "mc matrix, rca two-route agreement, rhom = Der "
                          "for 3 homomorphisms")


def test_criterion_10_rmap(rmap_reports):
    ok = True
    details = []
    for name, (rep, expected) in rmap_reports.items():
        # oracle: h^0(P^1, O(2d)) = 2d + 1 via the Cech engine on P^1
        ci = CIData(2, ())
        from idealtangent.cicech import ci_twist_cohomology
        twist = 2 if name == "identity" else 4
        oracle0 = ci_twist_cohomology(ci, twist, 0)
        oracle1 = ci_twist_cohomology(ci, twist, 1)
        ok = ok and rep.dims == [expected, 0] == [oracle0, oracle1]
        details.append(f"{name}: {rep.dims}")
    assert _record(10, ok, f"Segre graphs at window {RMAP_WINDOW}: "
                           f"{'; '.join(details)}; oracle h^0(O(2d)) = 2d+1")


def test_criterion_11_field_mode_agreement(stable_point_sweeps,
                                           conic_stable_report, rmap_reports):
    started = time.time()
    ok = True
    # points
    for z, d in ((TWO_POINTS, 2), (THREE_POINTS, 3)):
        rep = tangent_at_subscheme(P1, z, 2, 9, 1, GF)
        ok = ok and rep.dims == stable_point_sweeps[d].reports[(2, 9)].dims
    # conic
    rep = tangent_at_subscheme(P2, CONIC, *STABLE_CONIC_WINDOW, 1, GF)
    ok = ok and rep.dims == conic_stable_report.dims
    # one point on P^2, m = 2
    rep = tangent_at_subscheme(P2, ONE_POINT, *STABLE_ONE_POINT_WINDOW, 2, GF)
    ok = ok and rep.dims == [2, 0, 0]
    # twisted cubic classical
    ring = coordinate_ring_truncation(P3, 2, 6, GF)
    point = subscheme_to_point(ring, TWISTED_CUBIC)
    ok = ok and classical_tangent_dim(ring.algebra, point) == 12
    # rmap
    for name, gens in (("identity", RMAP_IDENTITY), ("degree2", RMAP_DEGREE2)):
        rep = rmap_tangent(1, 1, gens, 1, *RMAP_WINDOW, GF)
        ok = ok and rep.dims == rmap_reports[name][0].dims
    # harrison + operads over GF(p)
    for name, algebra in battery()[:2]:
        ap = (nilpotent_algebra(3, GF) if name == "nilpotent3"
              else nilpotent_algebra(2, GF))
        ok = ok and (harrison_cohomology(ap, AlgebraModule.regular(ap), 1)
                     == harrison_cohomology(
                         *((lambda a: (a, AlgebraModule.regular(a)))(
                             nilpotent_algebra(3 if name == "nilpotent3"
                                               else 2))), 1))
    cob = cobar_lie_dual(4, field=GF)
    for n in (2, 3, 4):
        ok = ok and cob.cohomology_profile(n) == {0: 1}
    elapsed = time.time() - started
    assert _record(11, ok, f"all reported dimensions identical over QQ and "
                           f"GF(1000003) ({elapsed:.0f}s)")


def test_criterion_12_out_of_scope_documented():
    readme = open("README.md", encoding="utf-8").read()
    ok = "scheme-theoretic" in readme and "effective bounds" in readme
    assert _record(12, ok, "out-of-scope items (scheme isomorphism beyond "
                           "point/tangent data, effective window bounds, "
                           "stacks/stable maps) documented, not implemented")
