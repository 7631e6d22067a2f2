"""Cochain complexes, cohomology, mapping fibers."""
from fractions import Fraction

import pytest

from idealtangent.complexes import ChainMap, CochainComplex, mapping_fiber
from idealtangent.errors import InternalCheckError
from idealtangent.fields import QQ
from idealtangent.linalg import Matrix
from idealtangent.polynomials import count_monomials, mono_mul, monomials_of_degree


def test_two_term_identity_acyclic():
    c = CochainComplex({(0, 0): 1, (1, 0): 1},
                       {(0, 0): Matrix.identity(1)})
    assert c.cohomology(0) == 0
    assert c.cohomology(1) == 0


def test_zero_differentials_cohomology_is_terms():
    c = CochainComplex({(0, 0): 2, (1, 0): 3}, {})
    assert c.cohomology(0) == 2
    assert c.cohomology(1) == 3


def test_d_squared_rejected():
    d0 = Matrix.identity(1)
    d1 = Matrix.identity(1)
    with pytest.raises(InternalCheckError):
        CochainComplex({(0, 0): 1, (1, 0): 1, (2, 0): 1},
                       {(0, 0): d0, (1, 0): d1})


def koszul_xy_degree_slice(d):
    """Koszul complex of (x, y) over K[x, y], internal degree d slice.

    Terms (cohomological degrees 0..2): S(-2)_d -> S(-1)_d^2 -> S_d with
    maps (-y, x) then (x, y); H^2 = (S/(x,y))_d.
    """
    def mono_basis(deg):
        return monomials_of_degree(2, deg) if deg >= 0 else ()

    def mult_matrix(src_deg, var, dst_deg):
        src = mono_basis(src_deg)
        dst = mono_basis(dst_deg)
        idx = {m: i for i, m in enumerate(dst)}
        v = (1, 0) if var == "x" else (0, 1)
        return {(idx[mono_mul(m, v)], j): Fraction(1) for j, m in enumerate(src)}

    n0 = len(mono_basis(d - 2))
    n1 = 2 * len(mono_basis(d - 1))
    n2 = len(mono_basis(d))
    terms = {(0, d): n0, (1, d): n1, (2, d): n2}
    ent0 = {}
    for (i, j), v in mult_matrix(d - 2, "y", d - 1).items():
        ent0[(i, j)] = -v
    off = len(mono_basis(d - 1))
    for (i, j), v in mult_matrix(d - 2, "x", d - 1).items():
        ent0[(i + off, j)] = v
    d0 = Matrix(n1, n0, ent0, QQ)
    ent1 = {}
    for (i, j), v in mult_matrix(d - 1, "x", d).items():
        ent1[(i, j)] = v
    for (i, j), v in mult_matrix(d - 1, "y", d).items():
        ent1[(i, j + off)] = v
    d1 = Matrix(n2, n1, ent1, QQ)
    return CochainComplex(terms, {(0, d): d0, (1, d): d1}, QQ)


def test_koszul_xy_internal_degree_2():
    # oracle: dim (K[x,y]/(x,y))_2 = 0 and the Koszul complex is exact there
    c = koszul_xy_degree_slice(2)
    assert c.dim(2, 2) == count_monomials(2, 2) == 3
    assert c.cohomology(0, 2) == 0
    assert c.cohomology(1, 2) == 0
    assert c.cohomology(2, 2) == 0


def test_koszul_xy_degree_0_detects_quotient():
    c = koszul_xy_degree_slice(0)
    assert c.cohomology(2, 0) == 1  # (S/(x,y))_0 = K


def test_mapping_fiber_identity_acyclic():
    c = CochainComplex({(0, 0): 2, (1, 0): 1},
                       {(0, 0): Matrix.from_rows([{0: 1}], 2)})
    f = ChainMap(c, c, {(0, 0): Matrix.identity(2), (1, 0): Matrix.identity(1)})
    fib = mapping_fiber(f)
    for i in range(0, 3):
        assert fib.cohomology(i) == 0


def test_mapping_fiber_zero_map_splits():
    s = CochainComplex({(0, 0): 2}, {})
    t = CochainComplex({(0, 0): 3}, {})
    f = ChainMap(s, t, {})
    fib = mapping_fiber(f)
    assert fib.cohomology(0) == 2      # H^0(S)
    assert fib.cohomology(1) == 3      # H^0(T) shifted up


def test_mapping_fiber_of_surjective_qis_acyclic():
    # S: K^2 -(1 0)-> K, T: K -> 0, f0 = projection to the second coordinate
    s = CochainComplex({(0, 0): 2, (1, 0): 1},
                       {(0, 0): Matrix.from_rows([{0: 1}], 2)})
    t = CochainComplex({(0, 0): 1}, {})
    f = ChainMap(s, t, {(0, 0): Matrix.from_rows([{1: 1}], 2)})
    fib = mapping_fiber(f)
    for i in range(0, 3):
        assert fib.cohomology(i) == 0


def test_non_chain_map_rejected():
    s = CochainComplex({(0, 0): 1, (1, 0): 1}, {(0, 0): Matrix.identity(1)})
    t = CochainComplex({(0, 0): 1, (1, 0): 1}, {})
    with pytest.raises(InternalCheckError):
        ChainMap(s, t, {(0, 0): Matrix.identity(1), (1, 0): Matrix.identity(1)})


def test_cohomology_representatives():
    # zero differentials: representatives span the whole term
    c = CochainComplex({(0, 0): 2, (1, 0): 2}, {})
    dim, reps = c.cohomology(1, 0, representatives=True)
    assert dim == 2 and reps.ncols == 2
    # acyclic two-term: no representatives
    c2 = CochainComplex({(0, 0): 1, (1, 0): 1}, {(0, 0): Matrix.identity(1)})
    dim2, reps2 = c2.cohomology(1, 0, representatives=True)
    assert dim2 == 0 and reps2.ncols == 0


def test_each_differential_is_ranked_once(monkeypatch):
    c = koszul_xy_degree_slice(3)
    ranked = []
    rank = Matrix.rank

    def counting(m):
        ranked.append(id(m))
        return rank(m)

    monkeypatch.setattr(Matrix, "rank", counting)
    assert [c.cohomology(i, 3) for i in range(3)] == [0, 0, 0]
    # an Euler-style sweep over all degrees asks for every H^i again
    chi = sum((-1) ** i * c.cohomology(i, 3) for i in range(-1, 4))
    assert chi == c.euler_characteristic(3) == 0
    assert sorted(ranked) == sorted(id(m) for m in c.diffs.values())
    assert c.rank(5, 3) == 0 and len(ranked) == 2   # absent differential
