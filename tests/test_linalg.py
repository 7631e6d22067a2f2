"""Exact linear algebra: worked examples plus randomized properties."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealtangent.fields import QQ, PrimeField
from idealtangent.linalg import Echelon, Matrix, check_rank_consistency


def dense_rank_reference(rows, ncols, F=QQ):
    """Independent oracle: plain dense Gaussian elimination in the field F."""
    m = [[F.coerce(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    col = 0
    nrows = len(m)
    while rank < nrows and col < ncols:
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = F.div(F.one, m[rank][col])
        m[rank] = [F.mul(v, inv) for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [F.sub(a, F.mul(f, b)) for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def test_rank_zero_matrix():
    assert Matrix.zeros(3, 3).rank() == 0


def test_rank_identity():
    assert Matrix.identity(4).rank() == 4


def test_rank_dependent_rows():
    m = Matrix.from_rows([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}], 3)
    assert m.rank() == 1


def test_kernel_identity_empty():
    k = Matrix.identity(5).kernel_basis()
    assert k.ncols == 0


def test_kernel_zero_matrix_full():
    k = Matrix.zeros(2, 2).kernel_basis()
    assert k.ncols == 2


def test_kernel_row_vector():
    m = Matrix.from_rows([{0: 1, 1: 1}], 2)
    k = m.kernel_basis()
    assert k.ncols == 1
    col = k.col(0)
    assert col[0] == -col[1]
    assert m.mul(k).is_zero()


def test_reduce_membership():
    ech = Echelon(QQ)
    ech.insert({0: 1, 1: 2})
    ech.insert({1: 1, 2: 1})
    assert ech.contains({0: 2, 1: 5, 2: 1})
    assert not ech.contains({2: 1, 3: 4})
    assert ech.contains({0: 3, 1: 6})  # 3 * first row
    residue, _ = ech.reduce({0: 3, 1: 7})
    assert residue and 2 in residue  # reduction pushed support to column 2


matrix_strategy = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=120, deadline=None)
@given(matrix_strategy)
def test_rank_nullity_and_kernel_annihilation(rows):
    ncols = len(rows[0])
    sparse_rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    m = Matrix.from_rows(sparse_rows, ncols)
    r = m.rank()
    assert r == dense_rank_reference(sparse_rows, ncols)
    k = m.kernel_basis()
    assert r + k.ncols == ncols
    assert m.mul(k).is_zero()
    assert k.rank() == k.ncols  # kernel columns independent
    assert check_rank_consistency(m) == r
    assert m.transpose().rank() == r


@settings(max_examples=60, deadline=None)
@given(matrix_strategy)
def test_prime_field_rank_agreement(rows):
    # entries are tiny, so no pivot minor can be divisible by two distinct
    # primes > 10^6; agreement with the max over two primes is exact
    ncols = len(rows[0])
    sparse_rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    m = Matrix.from_rows(sparse_rows, ncols)
    r = m.rank()
    ranks = []
    for p in (1000003, 1000033):
        F = PrimeField(p)
        mp = Matrix.from_rows(
            [{j: v % p for j, v in row.items()} for row in sparse_rows], ncols, F)
        rp = mp.rank()
        assert rp <= r
        ranks.append(rp)
    assert max(ranks) == r


def test_prime_field_fraction_coercion():
    F = PrimeField(7)
    assert F.coerce(Fraction(1, 2)) == 4  # 1/2 = 4 mod 7
    with pytest.raises(Exception):
        F.coerce(Fraction(1, 7))


def test_matrix_product_and_vec():
    a = Matrix.from_rows([{0: 1, 1: 2}, {1: 1}], 2)
    b = Matrix.from_rows([{0: 3}, {0: 1, 1: 1}], 2)
    ab = a.mul(b)
    assert ab.entries == {(0, 0): Fraction(5), (0, 1): Fraction(2),
                          (1, 0): Fraction(1), (1, 1): Fraction(1)}
    assert a.times_vec({0: 1, 1: 1}) == {0: Fraction(3), 1: Fraction(1)}


# -- the elimination kernel, property-tested over QQ and two prime fields --

kernel_fields = st.sampled_from([QQ, PrimeField(1000003), PrimeField(7)])
# small rationals whose denominators are units in every field above
scalars = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3]))
sparse_rows = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(
        st.dictionaries(st.integers(0, ncols - 1), scalars, max_size=ncols),
        min_size=1, max_size=7).map(lambda rows: (rows, ncols)))


def echelon_of(rows, F):
    ech = Echelon(F)
    for row in rows:
        ech.insert(row)
    return ech


@settings(max_examples=150, deadline=None)
@given(kernel_fields, sparse_rows)
def test_echelon_rank_matches_dense_reference(F, rows_ncols):
    rows, ncols = rows_ncols
    ech = echelon_of(rows, F)
    assert ech.rank == dense_rank_reference(rows, ncols, F)
    ech.full_reduce()
    assert ech.rank == dense_rank_reference(rows, ncols, F)


@settings(max_examples=150, deadline=None)
@given(kernel_fields, sparse_rows, st.booleans(),
       st.dictionaries(st.integers(0, 6), scalars, max_size=7))
def test_reduce_residue_and_coordinates_are_exact(F, rows_ncols, full, vec):
    rows, _ = rows_ncols
    ech = echelon_of(rows, F)
    if full:
        ech.full_reduce()
    residue, coords = ech.reduce(vec)
    assert not set(residue) & set(ech.pivot_rows)
    assert all(not F.is_zero(v) for v in residue.values())
    total = dict(residue)
    for c, k in coords.items():
        for j, v in ech.pivot_rows[c].items():
            total[j] = F.add(total.get(j, F.zero), F.mul(k, F.coerce(v)))
    want = {j: F.coerce(v) for j, v in vec.items() if not F.is_zero(F.coerce(v))}
    assert {j: v for j, v in total.items() if not F.is_zero(v)} == want
    assert ech.contains(vec) == (not residue)


@settings(max_examples=150, deadline=None)
@given(kernel_fields, sparse_rows, st.booleans())
def test_pivot_rows_are_normalized(F, rows_ncols, full):
    rows, _ = rows_ncols
    ech = echelon_of(rows, F)
    if full:
        ech.full_reduce()
    for c, row in ech.pivot_rows.items():
        assert min(row) == c
        assert all(type(v) is int and v != 0 for v in row.values())
        if F == QQ:
            assert row[c] > 0
            assert math.gcd(*row.values()) == 1
        else:
            assert row[c] == 1
            assert all(0 < v < F.p for v in row.values())


@settings(max_examples=150, deadline=None)
@given(kernel_fields, sparse_rows)
def test_full_reduce_clears_other_pivots(F, rows_ncols):
    rows, _ = rows_ncols
    ech = echelon_of(rows, F)
    before = {c: dict(row) for c, row in ech.pivot_rows.items()}
    ech.full_reduce()
    assert set(ech.pivot_rows) == set(before)
    for c, row in ech.pivot_rows.items():
        assert not (set(row) - {c}) & set(ech.pivot_rows)
    for row in before.values():  # same row space
        assert ech.contains(row)
