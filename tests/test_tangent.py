"""Derived tangent pipeline: calibration anchors and stabilization."""
import weakref
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealtangent.cicech import CIData, ci_normal_cohomology
from idealtangent.errors import BudgetError
from idealtangent.fields import QQ, PrimeField
from idealtangent.graded import HomIdealPresentation, coordinate_ring_truncation
from idealtangent.harrison import HarrisonComplex, HarrisonWeightSpace
from idealtangent.polynomials import Poly
from idealtangent.idealpoints import subscheme_to_point
from idealtangent.linalg import Matrix
from idealtangent.tangent import (derived_tangent, rmap_tangent,
                                  segre_presentation, stabilization_sweep,
                                  tangent_at_subscheme)

P1 = HomIdealPresentation.from_strings(2, [])
P2 = HomIdealPresentation.from_strings(3, [])
TWO_POINTS = HomIdealPresentation.from_strings(2, ["x0*x1"])
THREE_POINTS = HomIdealPresentation.from_strings(2, ["x0^2*x1 - x0*x1^2"])
CONIC = HomIdealPresentation.from_strings(3, ["x0^2 - x1*x2"])


def test_zero_ideal_tangent_vanishes():
    rep = tangent_at_subscheme(P1, P1, 2, 5, 1)
    assert rep.dims == [0, 0]
    assert rep.classical_dim == 0


def test_two_points_h0_is_classical_everywhere():
    # the H^0 = classical consistency anchor, including windows where the
    # truncation has not yet stabilized
    for (p, q) in [(2, 5), (2, 7), (3, 6)]:
        rep = tangent_at_subscheme(P1, TWO_POINTS, p, q, 1)
        assert rep.dims[0] == rep.classical_dim


def test_points_on_p1_stable_windows_match_oracle():
    # stabilized windows: H^0 = d, H^1 = 0, matching Cech-Koszul
    for z, d in ((TWO_POINTS, 2), (THREE_POINTS, 3)):
        ci = CIData(2, z.gens)
        for q in (9, 10):
            rep = tangent_at_subscheme(P1, z, 2, q, 1)
            assert rep.dims == [d, 0]
            assert rep.dims[0] == ci_normal_cohomology(ci, 0)
            assert rep.dims[1] == ci_normal_cohomology(ci, 1)
            assert rep.euler_checked in (True, None)


def test_sweep_detects_stability_for_points():
    table = stabilization_sweep(P1, TWO_POINTS, 1, [2], [9, 10, 11])
    assert table.stable == [True, True]
    assert all(table.reports[w].dims == [2, 0] for w in table.windows)
    assert table.corners[0] == (2, 9)


def test_sweep_reports_instability_honestly():
    # the small grid does not stabilize H^1 and must say so
    table = stabilization_sweep(P1, TWO_POINTS, 1, [2, 3], [5, 6])
    assert table.stable[1] is False


def test_weight_budget_error():
    with pytest.raises(BudgetError):
        tangent_at_subscheme(P1, TWO_POINTS, 2, 5, 3)  # needs weight 5 > 4


def test_pullback_functoriality_exact():
    # the restriction along A ->> A/I maps Harrison cochains of the
    # quotient into those of the ambient algebra and commutes with the
    # coboundary; ChainMap.verify checks the exact matrix identity, and
    # building the tangent report exercises it end to end
    ring = coordinate_ring_truncation(P1, 2, 6)
    point = subscheme_to_point(ring, TWO_POINTS)
    rep = derived_tangent(ring.algebra, point, 1)
    assert rep.dims[0] == 2


def test_derived_tangent_prime_field_agrees():
    F = PrimeField(1000003)
    for (p, q) in [(2, 5), (2, 8)]:
        rq = tangent_at_subscheme(P1, TWO_POINTS, p, q, 1, field=QQ)
        rp = tangent_at_subscheme(P1, TWO_POINTS, p, q, 1, field=F)
        assert rq.dims == rp.dims


def _det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


_coordinate_changes = st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                               min_size=3, max_size=3).filter(lambda a: _det3(a) != 0)


@cache
def _conic_dims(F, q):
    return tangent_at_subscheme(P2, CONIC, 2, q, 1, field=F).dims


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([QQ, PrimeField(1000003)]), st.sampled_from([4, 5]),
       _coordinate_changes)
def test_conic_dims_are_invariant_under_a_change_of_coordinates(F, q, a):
    # y = a x is invertible over both fields: 0 < |det a| <= 41 (Hadamard).
    # At [2,4] the dims are (26, 0); [2,5] gives (5, 144), a nonzero H^1.
    y = [Poly.zero(3) for _ in range(3)]
    for r in range(3):
        for i in range(3):
            y[r] = y[r].add(Poly.variable(3, i).scale(a[r][i]))
    conic = HomIdealPresentation(3, (y[0].mul(y[0]).sub(y[1].mul(y[2])),))
    assert tangent_at_subscheme(P2, conic, 2, q, 1, field=F).dims == _conic_dims(F, q)


def test_segre_presentation_quadric():
    pres = segre_presentation(1, 1)
    assert pres.nvars == 4
    assert len(pres.gens) == 1  # single 2x2 minor


def test_rmap_constant_map_from_point():
    # C = P^0: RMap from a point is Y; tangent dim = dim T_y P^b = b
    rep = rmap_tangent(0, 2, ["x1", "x2"], 0, 2, 6)
    assert rep.dims == [2]
    assert any("caller contract" in note for note in rep.notes)


def test_sweep_with_process_pool_matches_serial():
    serial = stabilization_sweep(P1, TWO_POINTS, 1, [2], [8, 9])
    parallel = stabilization_sweep(P1, TWO_POINTS, 1, [2], [8, 9], threads=2)
    assert serial.to_dict() == parallel.to_dict()


def test_sweep_starts_no_more_workers_than_windows(monkeypatch):
    # a stand-in pool records its size and starts no process
    import concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    table = stabilization_sweep(P1, TWO_POINTS, 1, [2], [8, 9], threads=10 ** 6)
    assert sizes == [2]
    assert table.to_dict() == stabilization_sweep(P1, TWO_POINTS, 1, [2],
                                                  [8, 9]).to_dict()


def test_each_harrison_weight_space_is_built_once(monkeypatch):
    built = Counter()
    init = HarrisonWeightSpace.__init__

    def counting(self, algebra, module, n, internal_degree=None):
        built[(id(algebra), id(module), n, internal_degree)] += 1
        init(self, algebra, module, n, internal_degree)

    monkeypatch.setattr(HarrisonWeightSpace, "__init__", counting)
    rep = tangent_at_subscheme(P2, CONIC, 2, 5, 1, PrimeField(1000003))
    assert rep.dims[0] == 5
    assert built and set(built.values()) == {1}, built


def test_harrison_complexes_are_freed_before_the_first_rank(monkeypatch):
    # a cleared rank holds a restricted copy of a fiber differential, so the
    # source and target complexes must be gone when ranking starts
    built, alive = [], []
    cochain_complex, rank = HarrisonComplex.cochain_complex, Matrix.rank

    def recording(self):
        cx = cochain_complex(self)
        built.append(weakref.ref(cx))
        return cx

    def checking(m):
        if not alive:
            alive.append([ref() is not None for ref in built])
        return rank(m)

    monkeypatch.setattr(HarrisonComplex, "cochain_complex", recording)
    monkeypatch.setattr(Matrix, "rank", checking)
    rep = tangent_at_subscheme(P2, CONIC, 2, 5, 1, PrimeField(1000003))
    assert rep.dims[0] == 5
    assert alive == [[False, False]]   # the source, then the target
