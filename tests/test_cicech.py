"""Cech-Koszul oracle: closed forms, duality, Euler characteristics."""
import pytest

from idealtangent import cicech
from idealtangent.cicech import (CIData, ci_normal_cohomology,
                                 ci_twist_cohomology,
                                 projective_space_line_bundle)
from idealtangent.complexes import CochainComplex
from idealtangent.errors import ValidationError
from idealtangent.fields import PrimeField
from idealtangent.graded import HomIdealPresentation, hilbert_data
from idealtangent.linalg import Matrix


def test_projective_space_closed_forms():
    # c = 0: the engine must reproduce line-bundle cohomology of P^n
    for n in (1, 2, 3):
        ci = CIData(n + 1, ())
        for e in range(-6, 7):
            for i in range(0, n + 1):
                assert ci_twist_cohomology(ci, e, i) == \
                    projective_space_line_bundle(n, e, i), (n, e, i)


def test_serre_duality_symmetry():
    for n in (1, 2):
        for e in range(-6, 7):
            for i in range(0, n + 1):
                assert (projective_space_line_bundle(n, e, i)
                        == projective_space_line_bundle(n, -e - n - 1, n - i))


def test_d_points_on_p1():
    for d in (2, 3):
        gens = ["x0*x1"] if d == 2 else ["x0^2*x1 - x0*x1^2"]
        ci = CIData.from_strings(2, gens)
        assert ci_twist_cohomology(ci, d, 0) == d
        assert ci_twist_cohomology(ci, d, 1) == 0
        assert ci_normal_cohomology(ci, 0) == d
        assert ci_normal_cohomology(ci, 1) == 0


def test_conic_in_p2():
    ci = CIData.from_strings(3, ["x0^2 - x1*x2"])
    assert ci_twist_cohomology(ci, 2, 0) == 5
    assert ci_twist_cohomology(ci, 2, 1) == 0
    assert ci_normal_cohomology(ci, 0) == 5
    assert ci_normal_cohomology(ci, 1) == 0


def test_point_on_p2_normal_bundle():
    ci = CIData.from_strings(3, ["x1", "x2"])
    assert ci_normal_cohomology(ci, 0) == 2
    for i in (1, 2):
        assert ci_normal_cohomology(ci, i) == 0


def test_euler_characteristic_matches_hilbert_polynomial():
    # chi(O_Z(e)) from the oracle equals the Hilbert polynomial at e
    cases = [
        (3, ["x0^2 - x1*x2"]),            # conic
        (2, ["x0*x1"]),                   # two points
        (4, ["x0^2 + x1*x3", "x2^2 - x0*x3"]),  # (2,2) CI curve in P^3
    ]
    for nvars, gens in cases:
        ci = CIData.from_strings(nvars, gens)
        pres = HomIdealPresentation.from_strings(nvars, gens)
        hd = hilbert_data(pres, nvars + 6)
        n = nvars - 1
        for e in (2, 3):
            chi = sum((-1) ** i * ci_twist_cohomology(ci, e, i)
                      for i in range(n + 1))
            assert chi == hd.poly_at(e), (nvars, gens, e)


def test_not_regular_sequence_rejected():
    # x0*x1 and x0*x2 share the component x0 = 0
    ci = CIData.from_strings(3, ["x0*x1", "x0*x2"])
    with pytest.raises(ValidationError):
        ci_twist_cohomology(ci, 2, 0)


def test_prime_field_agrees():
    F = PrimeField(1000003)
    ci = CIData.from_strings(3, ["x0^2 - x1*x2"])
    assert ci_twist_cohomology(ci, 2, 0, field=F) == 5
    assert ci_twist_cohomology(ci, 2, 1, field=F) == 0


def test_elliptic_quartic_genus_detected():
    # (2,2) CI curve in P^3 has genus 1: h^1(O_Z) = 1
    ci = CIData.from_strings(4, ["x0^2 + x1*x3", "x2^2 - x0*x3"])
    assert ci_twist_cohomology(ci, 0, 0) == 1
    assert ci_twist_cohomology(ci, 0, 1) == 1


def test_ci_22_curve_normal_sections_match_tangent_pipeline():
    # H^0(Z, N) = 2 h^0(O_Z(2)) = 16 for the (2,2) curve; the graded-ideal
    # pipeline (classical tangent, which the derived H^0 reproduces) must
    # agree with the Cech-Koszul count
    from idealtangent.graded import coordinate_ring_truncation
    from idealtangent.idealpoints import (classical_tangent_dim,
                                          subscheme_to_point)
    gens = ["x0^2 + x1*x3", "x2^2 - x0*x3"]
    ci = CIData.from_strings(4, gens)
    oracle = ci_normal_cohomology(ci, 0)
    assert oracle == 16
    ambient = HomIdealPresentation.from_strings(4, [])
    z = HomIdealPresentation.from_strings(4, gens)
    ring = coordinate_ring_truncation(ambient, 2, 6)
    point = subscheme_to_point(ring, z)
    assert classical_tangent_dim(ring.algebra, point) == oracle


def test_every_degree_of_a_twist_builds_two_total_complexes(monkeypatch):
    floors = []
    build = cicech._total_complex

    def counting(ci, e, floor, field):
        floors.append(floor)
        return build(ci, e, floor, field)

    monkeypatch.setattr(cicech, "_total_complex", counting)
    ci = CIData.from_strings(3, ["x0^2 - x1*x2"])
    assert [ci_twist_cohomology(ci, 2, i) for i in range(3)] == [5, 0, 0]
    assert ci_normal_cohomology(ci, 0) == 5
    assert len(floors) == 2 and floors[1] == floors[0] + 1


def test_perturbed_deeper_floor_is_caught(monkeypatch):
    floors = []
    build = cicech._total_complex

    def perturbed(ci, e, floor, field):
        cx = build(ci, e, floor, field)
        floors.append(floor)
        if len(floors) == 1:
            return cx
        # one more class in H^n at floor + 1 only
        terms, diffs = dict(cx.terms), dict(cx.diffs)
        terms[(ci.n, 0)] += 1
        d = cx.diff(ci.n - 1)
        diffs[(ci.n - 1, 0)] = Matrix(d.nrows + 1, d.ncols, d.entries, d.field)
        return CochainComplex(terms, diffs, cx.field)

    monkeypatch.setattr(cicech, "_total_complex", perturbed)
    ci = CIData.from_strings(2, ["x0*x1"])
    with pytest.raises(ValidationError, match="truncation unstable"):
        ci_twist_cohomology(ci, 2, 0)
