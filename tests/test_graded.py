"""Graded algebra construction: truncations, Hilbert data, Veronese."""
from fractions import Fraction

import pytest

from idealtangent.errors import ValidationError
from idealtangent.fields import QQ, PrimeField
from idealtangent.graded import (HomIdealPresentation, coordinate_ring_truncation,
                                 hilbert_data, ideal_degree_piece,
                                 nilpotent_algebra, product_algebra,
                                 veronese_truncation, zero_multiplication_algebra)

P1_EMPTY = HomIdealPresentation.from_strings(2, [])
P2_EMPTY = HomIdealPresentation.from_strings(3, [])
XY = HomIdealPresentation.from_strings(2, ["x0*x1"])
CONIC = HomIdealPresentation.from_strings(3, ["x0^2 - x1*x2"])
TWISTED_CUBIC = HomIdealPresentation.from_strings(
    4, ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"])


def test_ideal_piece_xy():
    assert ideal_degree_piece(XY, 2).rank == 1
    assert ideal_degree_piece(XY, 3).rank == 2


def test_ideal_piece_twisted_cubic_degree_2():
    assert ideal_degree_piece(TWISTED_CUBIC, 2).rank == 3


def test_truncation_p2_dims():
    ring = coordinate_ring_truncation(P2_EMPTY, 1, 2)
    assert ring.algebra.dims == {1: 3, 2: 6}


def test_truncation_conic_degree_2():
    ring = coordinate_ring_truncation(CONIC, 2, 3)
    assert ring.algebra.dim(2) == 5


def test_truncation_twisted_cubic_degree_2():
    ring = coordinate_ring_truncation(TWISTED_CUBIC, 2, 3)
    assert ring.algebra.dim(2) == 7


def test_truncation_products_are_normal_forms():
    ring = coordinate_ring_truncation(CONIC, 1, 2)
    # x0 * x0 reduces to x1*x2 modulo the conic
    alg = ring.algebra
    i0 = ring.quotient_monomials[1].index((1, 0, 0))
    col = alg.mult_column(1, i0, 1, i0)
    mono = {ring.quotient_monomials[2][k]: v for k, v in col.items()}
    assert mono == {(0, 1, 1): Fraction(1)}


def test_hilbert_p2():
    data = hilbert_data(P2_EMPTY, 6)
    assert [data.values[d] for d in range(4)] == [1, 3, 6, 10]
    # h(t) = (t+1)(t+2)/2
    assert data.coefficients == [Fraction(1), Fraction(3, 2), Fraction(1, 2)]
    assert data.first_agreement == 0


def test_hilbert_conic():
    data = hilbert_data(CONIC, 6)
    assert data.coefficients == [Fraction(1), Fraction(2)]
    assert [data.values[d] for d in (1, 2, 3)] == [3, 5, 7]


def test_hilbert_twisted_cubic():
    data = hilbert_data(TWISTED_CUBIC, 6)
    assert data.coefficients == [Fraction(1), Fraction(3)]


def test_hilbert_unstable_raises():
    with pytest.raises(ValidationError):
        hilbert_data(P2_EMPTY, 1)


def test_veronese_identity_step():
    ring = coordinate_ring_truncation(P1_EMPTY, 1, 4)
    assert veronese_truncation(ring.algebra, 1) is ring.algebra


def test_veronese_p1_step_2():
    ring = coordinate_ring_truncation(P1_EMPTY, 1, 4)
    b = veronese_truncation(ring.algebra, 2)
    assert b.dims == {1: 3, 2: 5}
    # constructor re-checked commutativity/associativity exactly


def test_prime_field_truncation_agrees():
    F = PrimeField(1000003)
    for pres in (CONIC, TWISTED_CUBIC):
        rq = coordinate_ring_truncation(pres, 2, 4, QQ)
        rp = coordinate_ring_truncation(pres, 2, 4, F)
        assert rq.algebra.dims == rp.algebra.dims


def test_nilpotent_algebra_structure():
    a = nilpotent_algebra(3)
    assert a.dims == {0: 3}
    assert a.mult_column(0, 0, 0, 0) == {1: Fraction(1)}   # x*x = x^2
    assert a.mult_column(0, 0, 0, 1) == {2: Fraction(1)}   # x*x^2 = x^3
    assert a.mult_column(0, 1, 0, 2) == {}                 # x^2*x^3 = 0


def test_zero_and_product_algebras():
    z = zero_multiplication_algebra(2)
    assert z.mult_column(0, 0, 0, 1) == {}
    p = product_algebra(nilpotent_algebra(2), nilpotent_algebra(2))
    assert p.dims == {0: 4}
    assert p.mult_column(0, 0, 0, 0) == {1: Fraction(1)}
    assert p.mult_column(0, 0, 0, 2) == {}  # cross terms vanish
