"""Exact linear algebra: worked examples plus randomized properties."""
import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealtangent import tangent
from idealtangent.complexes import ChainMap, CochainComplex
from idealtangent.fields import QQ, PrimeField, reduced
from idealtangent.graded import HomIdealPresentation, _bilinear
from idealtangent.linalg import Echelon, Matrix, Quotient


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
        inv = pow(m[rank][col], -1, F.p) if F.p else Fraction(1) / m[rank][col]
        m[rank] = [F.coerce(v * inv) for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [F.coerce(a - f * b) for a, b in zip(m[r], m[rank])]
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


def test_rank_is_one_echelon_in_the_fill_reducing_order(monkeypatch):
    seen = []
    echelon = Matrix.echelon

    def recording(m):
        seen.append(m)
        return echelon(m)

    monkeypatch.setattr(Matrix, "echelon", recording)
    # column 0 has the most nonzeros, so it is relabelled last (2)
    wide = Matrix.from_rows([{0: 1, 1: 1, 2: 1}, {0: 1}], 3)
    assert wide.rank() == 2 and len(seen) == 1
    assert seen[0].rows == [{2: 1}, {0: 1, 1: 1, 2: 1}]
    # a tall matrix is eliminated along its columns, its short rows labelled first
    assert wide.transpose().rank() == 2 and len(seen) == 2
    assert seen[1].rows == [{2: 1}, {0: 1, 1: 1, 2: 1}]


@settings(max_examples=150, deadline=None)
@given(kernel_fields, sparse_rows, st.booleans())
def test_ordered_rank_matches_canonical_insertion_and_dense_reference(F, rows_ncols,
                                                                      transpose):
    # Matrix.rank eliminates in its fill-reducing order; echelon_of inserts
    # the rows as given and pivots left to right.  Wide and tall shapes are
    # both drawn, and transposing swaps the side Matrix.rank eliminates along.
    rows, ncols = rows_ncols
    if transpose:
        rows, ncols = [{i: row[j] for i, row in enumerate(rows) if j in row}
                       for j in range(ncols)], len(rows)
    rank = Matrix.from_rows(rows, ncols, F).rank()
    assert rank == echelon_of(rows, F).rank
    assert rank == dense_rank_reference(rows, ncols, F)


@settings(max_examples=150, deadline=None)
@given(kernel_fields, sparse_rows, st.data())
def test_rank_is_invariant_under_row_and_column_permutations(F, rows_ncols, data):
    rows, ncols = rows_ncols
    row_perm = data.draw(st.permutations(range(len(rows))))
    col_perm = data.draw(st.permutations(range(ncols)))
    permuted = [{col_perm[j]: v for j, v in rows[i].items()} for i in row_perm]
    assert (Matrix.from_rows(permuted, ncols, F).rank()
            == Matrix.from_rows(rows, ncols, F).rank())


# -- clearing: R from one elimination, and ranks of cleared differentials --

clearing_fields = st.sampled_from([QQ, PrimeField(2), PrimeField(7),
                                   PrimeField(1000003)])
small_ints = st.sampled_from([0, 0, 0, 1, -1, 2, 3])


def _int_matrix(data, F, nrows, ncols):
    cells = data.draw(st.lists(small_ints, min_size=nrows * ncols,
                               max_size=nrows * ncols))
    return Matrix(nrows, ncols, {(i, j): cells[i * ncols + j]
                                 for i in range(nrows) for j in range(ncols)}, F)


@settings(max_examples=200, deadline=None)
@given(clearing_fields, st.integers(1, 7), st.integers(1, 7), st.data())
def test_rank_records_rows_that_span_the_row_space(F, nrows, ncols, data):
    # tall shapes read R from the pivot keys of a column elimination, wide
    # ones from the rows whose insert gave a pivot; both are drawn
    m = _int_matrix(data, F, nrows, ncols)
    r = m.rank()
    basis = m.basis_rows
    assert len(basis) == len(set(basis)) == r == dense_rank_reference(m.rows, ncols, F)
    assert set(basis) <= set(range(nrows))
    assert dense_rank_reference([m.rows[i] for i in basis], ncols, F) == r


@settings(max_examples=150, deadline=None)
@given(clearing_fields, st.integers(4, 5), st.data())
def test_cleared_ranks_match_plain_ranks_and_dense_reference(F, length, data):
    # d^i = C * K^T with K spanning the left kernel of d^{i-1}, so d∘d = 0
    # and every differential is ranked cleared of the previous one's R
    dims = data.draw(st.lists(st.integers(1, 5), min_size=length,
                              max_size=length))
    diffs = {(0, 0): _int_matrix(data, F, dims[1], dims[0])}
    for i in range(1, length - 1):
        left_kernel = diffs[(i - 1, 0)].transpose().kernel_basis()
        coeffs = _int_matrix(data, F, dims[i + 1], left_kernel.ncols)
        diffs[(i, 0)] = coeffs.mul(left_kernel.transpose())
    cx = CochainComplex({(i, 0): n for i, n in enumerate(dims)}, diffs, F)
    degrees = range(-1, length + 1)
    dense = {i: dense_rank_reference(cx.diff(i).rows, cx.dim(i), F) for i in degrees}
    # ask in a random order, so d^i is met both before and after d^{i-1}
    for i in data.draw(st.permutations(degrees)):
        assert cx.rank(i) == cx.diff(i).rank() == dense[i]
    for i in degrees:
        assert cx.cohomology(i) == cx.dim(i) - dense[i] - dense.get(i - 1, 0)


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
    assert _is_canonical(F, residue.values())
    assert _is_canonical(F, coords.values())
    total = dict(residue)
    for c, k in coords.items():
        for j, v in ech.pivot_rows[c].items():
            total[j] = total.get(j, 0) + k * v
    assert reduced(F, total) == reduced(F, vec)
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


def _plus_multiple(F, u, c, v):
    """u + c*v in F, without zero entries."""
    out = dict(u)
    for k, x in v.items():
        out[k] = out.get(k, 0) + c * x
    return reduced(F, out)


@settings(max_examples=150, deadline=None)
@given(kernel_fields, sparse_rows,
       st.dictionaries(st.integers(0, 6), scalars, max_size=7),
       st.dictionaries(st.integers(0, 6), scalars, max_size=7), scalars)
def test_quotient_basis_and_projection(F, rows_ncols, u, v, c):
    rows, ncols = rows_ncols
    u = {k: x for k, x in u.items() if k < ncols}
    v = {k: x for k, x in v.items() if k < ncols}
    ech = echelon_of(rows, F)
    quo = Quotient(ech, ncols)
    assert quo.dim == ncols - ech.rank
    assert quo.basis == sorted(set(quo.basis) - set(ech.pivot_rows))
    assert (quo.project(_plus_multiple(F, u, c, v))
            == _plus_multiple(F, quo.project(u), c, quo.project(v)))
    for w in (u, v, rows[0]):
        assert (quo.project(w) == {}) == ech.contains(w)
    for k, col in enumerate(quo.basis):
        assert quo.project({col: F.one}) == {k: F.one}
    # the row space alone fixes the basis and every projection
    other = echelon_of(rows[::-1], F)
    other.full_reduce()
    again = Quotient(other, ncols)
    assert again.basis == quo.basis
    assert again.project(u) == quo.project(u)


# -- the scalar rule: raw sums are reduced once, where a result is produced --
def _dense(data, nrows, ncols):
    """A random sparse nrows x ncols array of small raw scalars."""
    cells = data.draw(st.lists(st.one_of(st.just(0), scalars),
                               min_size=nrows * ncols, max_size=nrows * ncols))
    return [cells[r * ncols:(r + 1) * ncols] for r in range(nrows)]


def _sparse(dense):
    return {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row) if v}


def _is_canonical(F, values):
    """Nonzero and in the field's one form: over GF(p) an int in [1, p),
    over QQ an int when integral, else a Fraction with denominator > 1."""
    if F.p:
        return all(type(v) is int and 0 < v < F.p for v in values)
    return all(v != 0 and (type(v) is int
                           or type(v) is Fraction and v.denominator > 1)
               for v in values)


@settings(max_examples=150, deadline=None)
@given(kernel_fields, st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       scalars, st.data())
def test_products_match_a_dense_reference_and_are_canonical(F, n, k, m, c, data):
    a, b = _dense(data, n, k), _dense(data, k, m)
    vec = dict(enumerate(data.draw(st.lists(scalars, min_size=k, max_size=k))))
    A, B = Matrix(n, k, _sparse(a), F), Matrix(k, m, _sparse(b), F)
    ab = [[F.coerce(sum(a[i][t] * b[t][j] for t in range(k))) for j in range(m)]
          for i in range(n)]
    assert A.mul(B).entries == _sparse(ab)
    av = {i: F.coerce(sum(a[i][t] * vec[t] for t in range(k))) for i in range(n)}
    assert A.times_vec(vec) == {i: v for i, v in av.items() if v}
    ca = [[F.coerce(c * v) for v in row] for row in a]
    assert A.scale(c).entries == _sparse(ca)
    for out in (A.mul(B).entries, A.times_vec(vec), A.scale(c).entries):
        assert _is_canonical(F, out.values())
    # the bilinear table of a one-degree algebra: column t*k + s is e_t * e_s
    table = _dense(data, k, k * k)
    mult = {(0, 0): Matrix(k, k * k, _sparse(table), F)}
    u = dict(enumerate(data.draw(st.lists(scalars, min_size=k, max_size=k))))
    prod = {r: F.coerce(sum(u[t] * vec[s] * table[r][t * k + s]
                            for t in range(k) for s in range(k)))
            for r in range(k)}
    got = _bilinear(mult, {0: k}, F, 0, u, 0, vec)
    assert got == {r: v for r, v in prod.items() if v}
    assert _is_canonical(F, got.values())


# plain ints, integral Fractions such as Fraction(3, 1), and proper Fractions
mixed_scalars = st.one_of(st.integers(-9, 9), scalars)


@settings(max_examples=150, deadline=None)
@given(kernel_fields, st.integers(1, 6), st.booleans(), st.data())
def test_reduce_kernel_and_projection_are_canonical_on_mixed_input(F, ncols, full,
                                                                   data):
    row = st.dictionaries(st.integers(0, ncols - 1), mixed_scalars, max_size=ncols)
    rows, vec = data.draw(st.lists(row, min_size=1, max_size=6)), data.draw(row)
    ech = echelon_of(rows, F)
    if full:
        ech.full_reduce()
    residue, coords = ech.reduce(vec)
    assert _is_canonical(F, residue.values())
    assert _is_canonical(F, coords.values())
    assert _is_canonical(F, Quotient(ech, ncols).project(vec).values())
    kernel = Matrix.from_rows(rows, ncols, F).kernel_basis()
    assert _is_canonical(F, kernel.entries.values())


def test_every_scalar_of_a_qq_tangent_solve_is_canonical(monkeypatch):
    # an integral Fraction would give the same answers but keep every product
    # it meets in Fraction arithmetic, so the walk asserts the form
    maps = []

    class Recording(ChainMap):
        def __init__(self, *args):
            super().__init__(*args)
            maps.append(self)

    monkeypatch.setattr(tangent, "ChainMap", Recording)
    line = HomIdealPresentation.from_strings(2, [])
    point = HomIdealPresentation.from_strings(2, ["2*x0 - x1"])
    tangent.tangent_at_subscheme(line, point, 2, 5, 1)
    (f,) = maps
    matrices = [*f.source.diffs.values(), *f.target.diffs.values(),
                *f.fiber.diffs.values(), *f.components.values()]
    values = [v for m in matrices for row in m.rows for v in row.values()]
    assert _is_canonical(QQ, values)
    # the point's coordinates make both forms occur
    assert {type(v) for v in values} == {int, Fraction}


# -- the row layout: every constructor and view holds the same matrix --

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "idealtangent"
layout_fields = st.sampled_from([QQ, PrimeField(7)])
raw_scalars = st.one_of(st.just(0), scalars, st.integers(-20, 20))


@settings(max_examples=150, deadline=None)
@given(layout_fields, st.integers(1, 5), st.integers(1, 5), st.data())
def test_constructors_and_views_agree(F, n, k, data):
    cells = data.draw(st.lists(raw_scalars, min_size=n * k, max_size=n * k))
    coo = {(i, j): cells[i * k + j] for i in range(n) for j in range(k)}
    m = Matrix(n, k, coo, F)
    assert m.entries == {ij: F.coerce(v) for ij, v in coo.items() if F.coerce(v)}
    assert Matrix.from_rows([{j: coo[i, j] for j in range(k)} for i in range(n)],
                            k, F) == m
    assert Matrix.from_cols([{i: coo[i, j] for i in range(n)} for j in range(k)],
                            n, F) == m
    t = m.transpose()
    assert m.cols() == t.rows
    assert [m.col(j) for j in range(k)] == t.rows
    assert t.transpose() == m
    for build in (lambda: Matrix(n, k, {(n, 0): 1}, F),
                  lambda: Matrix(n, k, {(0, -1): 1}, F),
                  lambda: Matrix.from_rows([{k: 1}], k, F),
                  lambda: Matrix.from_rows([{-1: 1}], k, F),
                  lambda: Matrix.from_cols([{n: 1}], n, F)):
        with pytest.raises(IndexError):
            build()
    assert Matrix(n, k, {(n, k): 0}, F).is_zero()


@settings(max_examples=100, deadline=None)
@given(layout_fields, st.integers(1, 4), st.integers(1, 4), raw_scalars,
       st.data())
def test_mapping_fiber_is_the_block_matrix(F, a, b, c, data):
    # S = T = (F^a --d--> F^b) and f = c * identity; the fiber's
    # differentials are [d; c] and [c | -d]
    cells = data.draw(st.lists(raw_scalars, min_size=a * b, max_size=a * b))
    d = {(i, j): cells[i * a + j] for i in range(b) for j in range(a)}
    cx = CochainComplex({(0, 0): a, (1, 0): b}, {(0, 0): Matrix(b, a, d, F)}, F)
    f = ChainMap(cx, cx, {(0, 0): Matrix.identity(a, F).scale(c),
                          (1, 0): Matrix.identity(b, F).scale(c)})
    d0 = dict(d)
    d0.update({(b + k, k): c for k in range(a)})
    d1 = {(k, k): c for k in range(b)}
    d1.update({(i, b + j): -v for (i, j), v in d.items()})
    assert f.fiber.diff(0) == Matrix(b + a, a, d0, F)
    assert f.fiber.diff(1) == Matrix(b, b + a, d1, F)


def entries_readers(source: str) -> list:
    """Lines of ``source`` that read an attribute named ``entries``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "entries"]


def test_no_module_but_linalg_reads_the_coo_view():
    assert entries_readers("n = len(m.entries)\nm.entries.items()") == [1, 2]
    assert entries_readers("entries = {}\nm.rows[0]") == []
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "linalg.py"
             for line in entries_readers(path.read_text())]
    assert not found, "read the rows or the column view instead: " + ", ".join(found)
