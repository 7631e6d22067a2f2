"""Graded ideal points, quotients, and classical tangent dimensions."""
import random

import pytest

from idealtangent.errors import NotASubschemeError, ValidationError
from idealtangent.fields import QQ, PrimeField
from idealtangent.graded import HomIdealPresentation, coordinate_ring_truncation
from idealtangent.idealpoints import (GradedSubspace, IdealPoint, QuotientData,
                                      classical_tangent_dim, is_graded_ideal,
                                      subscheme_to_point)
from idealtangent.polynomials import count_monomials, mono_str, monomials_of_degree

P1 = HomIdealPresentation.from_strings(2, [])
P2 = HomIdealPresentation.from_strings(3, [])
TWO_POINTS = HomIdealPresentation.from_strings(2, ["x0*x1"])
THREE_POINTS = HomIdealPresentation.from_strings(2, ["x0*x1*x0 - x1^2*x0"])
P3 = HomIdealPresentation.from_strings(4, [])
CONIC = HomIdealPresentation.from_strings(3, ["x0^2 - x1*x2"])
TWISTED_CUBIC = HomIdealPresentation.from_strings(
    4, ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"])


def test_zero_and_full_subspaces_are_ideals():
    ring = coordinate_ring_truncation(P1, 1, 3)
    a = ring.algebra
    zero = GradedSubspace(a, {})
    assert is_graded_ideal(a, zero)
    full = GradedSubspace(a, {d: [{i: 1} for i in range(a.dims[d])]
                              for d in a.degrees})
    assert is_graded_ideal(a, full)


def test_span_x_not_an_ideal():
    ring = coordinate_ring_truncation(P1, 1, 3)
    a = ring.algebra
    i0 = ring.quotient_monomials[1].index((1, 0))
    v = GradedSubspace(a, {1: [{i0: 1}]})
    assert not is_graded_ideal(a, v)
    with pytest.raises(ValidationError):
        IdealPoint(a, v)


def test_subscheme_equal_to_x_gives_zero_ideal():
    ring = coordinate_ring_truncation(CONIC, 2, 4)
    point = subscheme_to_point(ring, CONIC)
    assert point.k == {}


def test_two_points_on_p1_k_values():
    ring = coordinate_ring_truncation(P1, 2, 5)
    point = subscheme_to_point(ring, TWO_POINTS)
    assert point.k == {2: 1, 3: 2, 4: 3, 5: 4}


def test_conic_in_p2_k_values():
    ring = coordinate_ring_truncation(P2, 2, 4)
    point = subscheme_to_point(ring, CONIC)
    assert point.k == {2: 1, 3: 3, 4: 6}


def test_not_a_subscheme_detected():
    ring = coordinate_ring_truncation(CONIC, 2, 4)
    with pytest.raises(NotASubschemeError):
        subscheme_to_point(ring, HomIdealPresentation.from_strings(3, ["x1^2"]))


def test_quotient_of_zero_ideal_is_algebra():
    ring = coordinate_ring_truncation(P1, 2, 4)
    point = subscheme_to_point(ring, P1)
    q = QuotientData(ring.algebra, point)
    assert q.quotient.dims == ring.algebra.dims


def test_quotient_by_full_ideal_is_zero():
    ring = coordinate_ring_truncation(P1, 2, 3)
    a = ring.algebra
    full = GradedSubspace(a, {d: [{i: 1} for i in range(a.dims[d])]
                              for d in a.degrees})
    q = QuotientData(a, IdealPoint(a, full))
    assert q.quotient.dims == {}


def test_quotient_two_points_dims():
    ring = coordinate_ring_truncation(P1, 2, 5)
    point = subscheme_to_point(ring, TWO_POINTS)
    q = QuotientData(ring.algebra, point)
    assert q.quotient.dims == {2: 2, 3: 2, 4: 2, 5: 2}


def test_classical_tangent_zero_ideal():
    ring = coordinate_ring_truncation(P1, 2, 4)
    point = subscheme_to_point(ring, P1)
    assert classical_tangent_dim(ring.algebra, point) == 0


def test_classical_tangent_two_points_on_p1():
    # oracle: Hilb_2(P^1) = P^2, tangent dimension 2
    ring = coordinate_ring_truncation(P1, 2, 5)
    point = subscheme_to_point(ring, TWO_POINTS)
    assert classical_tangent_dim(ring.algebra, point) == 2


def test_classical_tangent_conic():
    # oracle: conics in P^2 form P^5
    ring = coordinate_ring_truncation(P2, 2, 6)
    point = subscheme_to_point(ring, CONIC)
    assert classical_tangent_dim(ring.algebra, point) == 5


def test_classical_tangent_window_stability():
    ring5 = coordinate_ring_truncation(P1, 2, 5)
    ring6 = coordinate_ring_truncation(P1, 2, 6)
    d5 = classical_tangent_dim(ring5.algebra, subscheme_to_point(ring5, TWO_POINTS))
    d6 = classical_tangent_dim(ring6.algebra, subscheme_to_point(ring6, TWO_POINTS))
    assert d5 == d6 == 2


@pytest.mark.parametrize("n,e,gens", [
    (2, 2, ["x0^2 - x1*x2"]),
    (2, 3, ["x0^3 + x1^3 + x2^3"]),
    (3, 2, ["x0^2 + x1*x2 - x3^2"]),
])
def test_hypersurface_tangent_matches_linear_system(n, e, gens):
    # oracle: hypersurfaces of degree e in P^n form P^(C(n+e,n)-1)
    ambient = HomIdealPresentation.from_strings(n + 1, [])
    z = HomIdealPresentation.from_strings(n + 1, gens)
    ring = coordinate_ring_truncation(ambient, 2, 2 + e + 1)
    point = subscheme_to_point(ring, z)
    assert classical_tangent_dim(ring.algebra, point) == count_monomials(n + 1, e) - 1


def test_reduced_and_full_multiplier_sets_agree():
    ring = coordinate_ring_truncation(P1, 2, 5)
    point = subscheme_to_point(ring, TWO_POINTS)
    q = QuotientData(ring.algebra, point)
    assert (classical_tangent_dim(ring.algebra, point, q, all_multipliers=True)
            == classical_tangent_dim(ring.algebra, point, q))


def test_classical_tangent_basis_invariance():
    rng = random.Random(7)
    ring = coordinate_ring_truncation(P1, 2, 5)
    point = subscheme_to_point(ring, TWO_POINTS)
    base = classical_tangent_dim(ring.algebra, point)
    for _ in range(3):
        scrambled = {}
        for d in point.subspace.pieces:
            vecs = point.subspace.basis_vectors(d)
            mixed = []
            for v in vecs:
                w = dict(v)
                other = vecs[rng.randrange(len(vecs))]
                c = rng.randint(1, 5)
                for kk, vv in other.items():
                    w[kk] = w.get(kk, 0) + c * vv
                mixed.append({k: v for k, v in w.items() if v})
            scrambled[d] = mixed
        point2 = IdealPoint(ring.algebra, GradedSubspace(ring.algebra, scrambled))
        assert classical_tangent_dim(ring.algebra, point2) == base


def test_prime_field_classical_agrees():
    F = PrimeField(1000003)
    ring_q = coordinate_ring_truncation(P2, 2, 5, QQ)
    ring_p = coordinate_ring_truncation(P2, 2, 5, F)
    d_q = classical_tangent_dim(ring_q.algebra, subscheme_to_point(ring_q, CONIC))
    d_p = classical_tangent_dim(ring_p.algebra, subscheme_to_point(ring_p, CONIC))
    assert d_q == d_p == 5


def _seeded_subscheme(x: HomIdealPresentation, seed: int) -> HomIdealPresentation:
    """X's generators plus one or two seeded forms of degree 2 or 3."""
    rng = random.Random(seed)
    gens = [str(g) for g in x.gens]
    for _ in range(rng.randint(1, 2)):
        monos = rng.sample(monomials_of_degree(x.nvars, rng.randint(2, 3)), 2)
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        gens.append(f"{a}*{mono_str(monos[0])} {rng.choice('+-')} "
                    f"{b}*{mono_str(monos[1])}")
    return HomIdealPresentation.from_strings(x.nvars, gens)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=str)
@pytest.mark.parametrize("x,seed", [("P2", 1), ("P2", 2), ("CONIC", 3),
                                    ("CONIC", 4)])
def test_tables_of_the_quotient_project_the_ambient_products(field, x, seed):
    x = {"P2": P2, "CONIC": CONIC}[x]
    ring = coordinate_ring_truncation(x, 2, 5, field)
    point = subscheme_to_point(ring, _seeded_subscheme(x, seed))
    q = QuotientData(ring.algebra, point)
    A, B, one = ring.algebra, q.quotient, field.one
    module = q.module_over_ambient()
    assert B.total_dim and point.k
    for i in A.degrees:
        for e in B.degrees:
            quo = q.quotients.get(i + e)
            for m in range(B.dims[e]):
                lift_m = {q.quotients[e].basis[m]: one}
                for a in range(A.dims[i]):
                    # a . m = project(a * lift(m))
                    prod = A.multiply(i, {a: one}, e, lift_m)
                    want = quo.project(prod) if quo else {}
                    assert module.act_column(i, a, e, m) == want
                for b in range(B.dim(i)):
                    # b * m = project(lift(b) * lift(m))
                    prod = A.multiply(i, {q.quotients[i].basis[b]: one}, e, lift_m)
                    want = quo.project(prod) if quo else {}
                    assert B.mult_column(i, b, e, m) == want


def _conic_in_coordinates(signs) -> HomIdealPresentation:
    """y0^2 - y1*y2 in the coordinates x with y = A x, where
    A = ((1,1,0),(0,1,1),(1,0,1)) * diag(signs): every monomial of the
    conic gets a coefficient, as in generic coordinates."""
    a = [[g * s for g, s in zip(row, signs)]
         for row in ((1, 1, 0), (0, 1, 1), (1, 0, 1))]
    coeffs = {}
    for i in range(3):
        for j in range(3):
            key = (min(i, j), max(i, j))
            coeffs[key] = coeffs.get(key, 0) + a[0][i] * a[0][j] - a[1][i] * a[2][j]
    form = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*x{i}*x{j}"
                    for (i, j), c in sorted(coeffs.items()) if c)
    return HomIdealPresentation.from_strings(3, [form.lstrip("+ ")])


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=str)
@pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1), (-1, 1, -1),
                                   (1, 1, -1)])
def test_classical_tangent_of_a_conic_in_generic_coordinates(field, signs):
    # oracle: conics in P^2 form P^5, in any coordinates; the rank is taken
    # in the fill-reducing order, the reduced and full multiplier systems
    # differ in their rows, and both must give the exact nullity
    conic = _conic_in_coordinates(signs)
    assert len(conic.gens[0].coeffs) == 6
    for window in ((2, 5), (2, 6)):
        ring = coordinate_ring_truncation(P2, *window, field)
        point = subscheme_to_point(ring, conic)
        q = QuotientData(ring.algebra, point)
        assert classical_tangent_dim(ring.algebra, point, q) == 5
        assert classical_tangent_dim(ring.algebra, point, q,
                                     all_multipliers=True) == 5


@pytest.mark.parametrize("x,seed", [("P2", 1), ("P2", 2), ("CONIC", 3),
                                    ("CONIC", 4), ("TWISTED_CUBIC", None)])
def test_classical_tangent_agrees_over_qq_and_a_large_prime(x, seed):
    # oracle for the twisted cubic: its Hilbert scheme component has
    # dimension 12; the seeded subschemes are compared across the fields
    ambient = P3 if x == "TWISTED_CUBIC" else {"P2": P2, "CONIC": CONIC}[x]
    z = TWISTED_CUBIC if seed is None else _seeded_subscheme(ambient, seed)
    dims = []
    for field in (QQ, PrimeField(1000003)):
        ring = coordinate_ring_truncation(ambient, 2, 5, field)
        dims.append(classical_tangent_dim(ring.algebra,
                                          subscheme_to_point(ring, z)))
    assert dims[0] == dims[1]
    if seed is None:
        assert dims[0] == 12
