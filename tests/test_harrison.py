"""Harrison cochain spaces, differentials, cohomology.

Independent oracles used here:
  * shuffle-span rank computed densely on the full tensor space, with no
    orbit decomposition (space dimensions);
  * a brute-force derivation solver (H^1);
  * hand degree-counts for windowed slices.
"""
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealtangent.errors import NotAHomomorphismError
from idealtangent.fields import QQ, PrimeField
from idealtangent.graded import (AlgebraModule, FiniteGradedAlgebra,
                                 HomIdealPresentation,
                                 coordinate_ring_truncation, nilpotent_algebra,
                                 product_algebra, zero_multiplication_algebra)
from idealtangent.harrison import (HarrisonComplex, ShuffleBlock, _orderings,
                                   _shape_quotient, _shuffles,
                                   harrison_cohomology, module_via_homomorphism)
from idealtangent.linalg import Echelon, Matrix, Quotient


def battery():
    """Small algebras for the Harrison suite (all single-degree)."""
    return [
        ("nilpotent3", nilpotent_algebra(3)),
        ("nilpotent2", nilpotent_algebra(2)),
        ("zero2", zero_multiplication_algebra(2)),
        ("zero3", zero_multiplication_algebra(3)),
        ("nil2xnil2", product_algebra(nilpotent_algebra(2), nilpotent_algebra(2))),
        ("nil3xzero1", product_algebra(nilpotent_algebra(3),
                                       zero_multiplication_algebra(1))),
    ]


def dense_shuffle_rank(dim: int, n: int) -> int:
    """Rank of the signed-shuffle span inside a dim^n tensor space,
    assembled tuple by tuple on the full tensor basis."""
    cols = {tup: i for i, tup in enumerate(product(range(dim), repeat=n))}
    rows = []
    for tup in product(range(dim), repeat=n):
        for p in range(1, n):
            row = {}
            for slots in combinations(range(n), p):
                perm = [None] * n
                for k, s in enumerate(slots):
                    perm[s] = k
                nxt = p
                for s in range(n):
                    if perm[s] is None:
                        perm[s] = nxt
                        nxt += 1
                sign = 1
                seen = []
                for v in perm:
                    sign *= (-1) ** sum(1 for s in seen if s > v)
                    seen.append(v)
                col = cols[tuple(tup[k] for k in perm)]
                row[col] = row.get(col, 0) + sign
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return Matrix.from_rows(rows, len(cols)).rank()


def brute_force_derivation_dim(algebra, module) -> int:
    """Solve f(ab) = a f(b) + b f(a) directly on all basis pairs."""
    da, dm = algebra.dims[0], module.dims[0]
    var = {(a, m): a * dm + m for a in range(da) for m in range(dm)}
    rows = []
    for a in range(da):
        for b in range(da):
            prod = algebra.mult_column(0, a, 0, b)
            for mp in range(dm):
                row = {}
                for c, v in prod.items():
                    row[var[(c, mp)]] = row.get(var[(c, mp)], Fraction(0)) + v
                for m in range(dm):
                    col = algebra if False else None
                    act = module.act_column(0, a, 0, m)
                    if mp in act:
                        key = var[(b, m)]
                        row[key] = row.get(key, Fraction(0)) - act[mp]
                    act = module.act_column(0, b, 0, m)
                    if mp in act:
                        key = var[(a, m)]
                        row[key] = row.get(key, Fraction(0)) - act[mp]
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return len(var) - Matrix.from_rows(rows, len(var)).rank()


def test_weight1_dimension_is_hom():
    a = nilpotent_algebra(3)
    m = AlgebraModule.regular(a)
    assert HarrisonComplex(a, m, 1).space(1).dim == 9


def test_weight2_is_symmetric_square():
    # dim 3 algebra, M = A: dim S^2(A) * dim M = 6 * 3 = 18
    a = nilpotent_algebra(3)
    m = AlgebraModule.regular(a)
    assert HarrisonComplex(a, m, 2).space(2).dim == 18


def test_weight2_values_symmetric():
    a = nilpotent_algebra(3)
    m = AlgebraModule.regular(a)
    sp = HarrisonComplex(a, m, 2).space(2)
    blk = sp.blocks[0]
    for x in range(3):
        for y in range(3):
            assert blk.reduce_col(0, (x, y)) == blk.reduce_col(0, (y, x))


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 3), (2, 4)])
def test_space_dim_matches_dense_shuffle_oracle(dim, n):
    a = zero_multiplication_algebra(dim)
    one = AlgebraModule(a, {0: 1}, {})
    expected = dim ** n - dense_shuffle_rank(dim, n)
    assert HarrisonComplex(a, one, n).space(n).dim == expected


def test_weight1_differential_matches_formula():
    # entry-by-entry comparison with the displayed coboundary
    a = nilpotent_algebra(3)
    m = AlgebraModule.regular(a)
    hc = HarrisonComplex(a, m, 2)
    full = {}
    src = hc.space(1)
    for j in range(src.dim):
        full[j] = hc.delta_full_values(1, {j: QQ.one})
    # f runs over elementary maps f(x^{u+1}) = x^{m+1}
    for u in range(3):
        for mm in range(3):
            j = u * 3 + mm
            for x in range(3):
                for y in range(3):
                    prod = a.mult_column(0, x, 0, y)
                    expected = {}
                    if prod.get(u) is not None:
                        expected[mm] = prod[u]
                    for (src_basis, coef) in ((x, y), (y, x)):
                        if coef == u:
                            act = m.act_column(0, src_basis, 0, mm)
                            for r, v in act.items():
                                expected[r] = expected.get(r, Fraction(0)) - v
                    expected = {k: v for k, v in expected.items() if v}
                    got = {}
                    for mo in range(3):
                        v = full[j].get(((0, 0), (x, y), 0, mo))
                        if v:
                            got[mo] = v
                    assert got == expected, (j, x, y)


def test_kernel_of_delta1_is_derivations():
    a = nilpotent_algebra(3)
    m = AlgebraModule.regular(a)
    d1 = HarrisonComplex(a, m, 1).diff(1)
    assert d1.ncols == 9
    assert d1.nullity() == 3 == brute_force_derivation_dim(a, m)


def test_h1_equals_derivations_on_battery():
    for name, a in battery():
        m = AlgebraModule.regular(a)
        h1 = harrison_cohomology(a, m, 1)
        assert h1 == brute_force_derivation_dim(a, m), name


def test_zero_multiplication_h1_is_full_matrix_space():
    a = zero_multiplication_algebra(2)
    m = AlgebraModule.regular(a)
    assert harrison_cohomology(a, m, 1) == 4
    assert HarrisonComplex(a, m, 1).diff(1).is_zero()
    assert HarrisonComplex(a, m, 2).diff(2).is_zero()


def test_h2_of_one_dim_square_zero():
    # A = span(x), x^2 = 0, M = A.  Weight-2 space = S^2(A) ⊗ A is 1-dim;
    # delta vanishes on both sides (all products are zero) and the weight-3
    # space is zero (the shuffle span fills the whole line), so H^2 = 1.
    # This matches the 2-periodic-resolution count for this square-zero
    # algebra in cohomological degree 2.
    a = zero_multiplication_algebra(1)
    m = AlgebraModule.regular(a)
    assert HarrisonComplex(a, m, 3).space(3).dim == 0
    assert harrison_cohomology(a, m, 2) == 1


def test_d_squared_zero_weights_up_to_4_on_battery():
    for name, a in battery():
        m = AlgebraModule.regular(a)
        hc = HarrisonComplex(a, m, 5)
        for n in (1, 2, 3):
            dn = hc.diff(n)
            dn1 = hc.diff(n + 1)
            assert dn1.mul(dn).is_zero(), (name, n)


def test_shuffle_stability_exact_on_battery():
    for name, a in battery()[:3]:
        m = AlgebraModule.regular(a)
        hc = HarrisonComplex(a, m, 4)
        for n in (1, 2):
            assert hc.check_shuffle_stability(n), (name, n)


def test_windowed_slice_dimensions():
    p1 = HomIdealPresentation.from_strings(2, [])
    ring = coordinate_ring_truncation(p1, 2, 5)
    a = ring.algebra
    m = AlgebraModule.regular(a)
    # weight 2, internal degree 0: pairs (2,2)->4 and (2,3)->5
    # dims: S^2(A_2)=6 times dim A_4=5, plus (A_2 x A_3)=12 times dim A_5=6
    hc = HarrisonComplex(a, m, 3, internal_degree=0)
    assert hc.space(2).dim == 6 * 5 + 12 * 6
    # weight 3 slice is empty: 2+2+2 = 6 > 5
    assert hc.space(3).dim == 0


def test_windowed_d_squared_zero():
    p1 = HomIdealPresentation.from_strings(2, [])
    ring = coordinate_ring_truncation(p1, 2, 7)
    a = ring.algebra
    m = AlgebraModule.regular(a)
    hc = HarrisonComplex(a, m, 4, internal_degree=0)
    assert hc.diff(2).mul(hc.diff(1)).is_zero()
    assert hc.diff(3).mul(hc.diff(2)).is_zero()


def test_prime_field_harrison_agrees():
    F = PrimeField(1000003)
    for mk in (nilpotent_algebra, zero_multiplication_algebra):
        aq, ap = mk(3, QQ), mk(3, F)
        hq = harrison_cohomology(aq, AlgebraModule.regular(aq), 2)
        hp = harrison_cohomology(ap, AlgebraModule.regular(ap), 2)
        assert hq == hp


def test_module_via_homomorphism_identity_and_failure():
    a = nilpotent_algebra(3)
    ident = {0: Matrix.identity(3)}
    m = module_via_homomorphism(a, a, ident)
    assert harrison_cohomology(a, m, 1) == 3
    bad = {0: Matrix(3, 3, {(0, 1): QQ.one}, QQ)}  # sends x^2 -> x
    with pytest.raises(NotAHomomorphismError):
        module_via_homomorphism(a, a, bad)


def test_harrison_cohomology_representatives():
    a = nilpotent_algebra(3)
    m = AlgebraModule.regular(a)
    dim, reps = harrison_cohomology(a, m, 1, representatives=True)
    assert dim == 3 and reps.ncols == 3


def test_compressed_and_full_differentials_agree():
    # the matrix builder (compressed coordinates) and the full-tuple
    # evaluator are independent codepaths; bind them together exactly
    a = nilpotent_algebra(3)
    m = AlgebraModule.regular(a)
    hc = HarrisonComplex(a, m, 3)
    for n in (1, 2):
        src, dst = hc.space(n), hc.space(n + 1)
        dmat = hc.diff(n)
        for j in range(src.dim):
            full = hc.delta_full_values(n, {j: QQ.one})
            expected = {}
            for b_idx, blk in enumerate(dst.blocks):
                for std_pos, col in enumerate(blk.std):
                    ci, tup = blk.cols[col]
                    comp = blk.comps[ci]
                    for mm in range(m.dim(blk.e)):
                        v = full.get((comp, tup, blk.e, mm))
                        if v:
                            expected[dst.coord(b_idx, std_pos, mm)] = v
            assert expected == dmat.col(j), (n, j)


@pytest.mark.parametrize("multiset", [(), (4,), (0, 0, 1), (2, 0, 1, 0),
                                      (1, 1, 2, 2), (3, 1, 3, 1, 0, 2)])
def test_orderings_are_the_sorted_distinct_permutations(multiset):
    assert _orderings(multiset) == sorted(set(permutations(multiset)))


def test_orderings_of_a_repeated_multiset_are_not_enumerated_by_permutation():
    # 10! permutations, one distinct ordering
    assert _orderings((0,) * 10) == [(0,) * 10]
    assert _orderings((0,) * 9 + (1,)) == sorted((0,) * k + (1,) + (0,) * (9 - k)
                                                 for k in range(10))


@pytest.mark.parametrize("F", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=["QQ", "GF7", "GF1000003"])
def test_shuffle_block_matches_the_span_of_every_relation(F):
    """ShuffleBlock inserts the (tuple, p) relations for p <= n // 2 only;
    its basis and every projection match the span of all p in 1..n-1."""
    p1 = coordinate_ring_truncation(HomIdealPresentation.from_strings(2, []),
                                    1, 2, F).algebra
    cases = [(nilpotent_algebra(2, F), (0,) * n) for n in range(2, 6)]
    cases += [(p1, key) for key in [(1, 2), (1, 1, 2), (1, 2, 2), (1, 1, 1, 2),
                                    (1, 1, 2, 2)]]
    for algebra, key in cases:
        blk = ShuffleBlock(algebra, tuple(_orderings(key)), sum(key))
        n = len(key)
        ech = Echelon(F)
        for ci, tup in blk.cols:
            comp = blk.comps[ci]
            for p in range(1, n):
                row = {}
                for perm, sign in _shuffles(p, n):
                    ncomp = tuple(comp[k] for k in perm)
                    col = blk.col_of[(blk.comps.index(ncomp),
                                      tuple(tup[k] for k in perm))]
                    row[col] = row.get(col, 0) + sign
                ech.insert({k: v for k, v in row.items() if v})
        full = Quotient(ech, len(blk.cols))
        assert blk.std == full.basis, key
        for col, (ci, tup) in enumerate(blk.cols):
            assert blk.reduce_col(ci, tup) == full.project({col: F.one}), key


@st.composite
def _orbits(draw):
    """Degree dimensions and an orbit key with repeated degrees, so the
    block's columns repeat letters in degree and in index."""
    n = draw(st.integers(1, 5))
    degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                            unique=True))
    dims = {d: draw(st.integers(1, 3 if n <= 3 else 2)) for d in degrees}
    key = tuple(sorted(draw(st.lists(st.sampled_from(degrees), min_size=n,
                                     max_size=n))))
    return dims, key


@pytest.mark.parametrize("F", [QQ, PrimeField(1000003), PrimeField(7),
                               PrimeField(3), PrimeField(2)],
                         ids=["QQ", "GF1000003", "GF7", "GF3", "GF2"])
@settings(max_examples=100, deadline=None)
@given(_orbits())
def test_content_shapes_match_one_elimination_of_every_relation(F, orbit):
    """The block built from one elimination per content shape has the basis
    and the residues of one elimination of every (tuple, p), p in 1..n-1;
    GF(2), GF(3) and GF(7) include p <= n, where shuffle coefficients
    vanish."""
    dims, key = orbit
    blk = ShuffleBlock(FiniteGradedAlgebra(F, dims, {}), tuple(_orderings(key)),
                       sum(key))
    n = len(key)
    ech = Echelon(F)
    for ci, tup in blk.cols:
        comp = blk.comps[ci]
        for p in range(1, n):
            row = {}
            for perm, sign in _shuffles(p, n):
                col = blk.col_of[(blk.comps.index(tuple(comp[k] for k in perm)),
                                  tuple(tup[k] for k in perm))]
                row[col] = row.get(col, 0) + sign
            ech.insert(row)
    full = Quotient(ech, len(blk.cols))
    assert blk.std == full.basis
    assert blk.dim == full.dim
    for col, (ci, tup) in enumerate(blk.cols):
        assert blk.reduce_col(ci, tup) == full.project({col: F.one})


def test_each_content_shape_is_eliminated_once():
    """Three letters from a 4-dimensional degree: 20 contents of 4 shapes
    (abc, aab, abb, aaa), so the block eliminates 4 times, not 20."""
    _shape_quotient.cache_clear()
    blk = ShuffleBlock(zero_multiplication_algebra(4), ((0, 0, 0),), 0)
    info = _shape_quotient.cache_info()
    assert len(blk.cols) == 64
    assert (info.misses, info.hits) == (4, 16)
    ShuffleBlock(zero_multiplication_algebra(3), ((0, 0, 0),), 0)
    assert _shape_quotient.cache_info().misses == 4
