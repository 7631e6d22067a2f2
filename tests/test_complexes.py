"""Cochain complexes, cohomology, mapping fibers."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealtangent import complexes
from idealtangent.complexes import ChainMap, CochainComplex, mapping_fiber
from idealtangent.errors import InternalCheckError
from idealtangent.fields import QQ, PrimeField
from idealtangent.graded import HomIdealPresentation
from idealtangent.linalg import Matrix
from idealtangent.polynomials import count_monomials, mono_mul, monomials_of_degree
from idealtangent.tangent import tangent_at_subscheme


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
    # f_1∘d_S = 1 but d_T∘f_0 = 0
    with pytest.raises(InternalCheckError,
                       match=r"^not a chain map: .* at \(0, 0\)$") as exc:
        ChainMap(s, t, {(0, 0): Matrix.identity(1), (1, 0): Matrix.identity(1)})
    assert exc.value.index == (0, 0)


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
    """One Matrix.rank call per differential, on the differential cleared of
    the columns R of the one before it (|R| = that one's rank); an Euler
    sweep and an absent differential add no call."""
    c = koszul_xy_degree_slice(3)
    shapes = []
    rank = Matrix.rank

    def counting(m):
        shapes.append((m.nrows, m.ncols))
        return rank(m)

    monkeypatch.setattr(Matrix, "rank", counting)
    assert [c.cohomology(i, 3) for i in range(3)] == [0, 0, 0]
    # an Euler-style sweep over all degrees asks for every H^i again
    chi = sum((-1) ** i * c.cohomology(i, 3) for i in range(-1, 4))
    assert chi == c.euler_characteristic(3) == 0
    # d^0 is 6x2 of rank 2, so d^1 (4x6) is ranked on 6 - 2 columns
    assert shapes == [(6, 2), (4, 4)]
    assert shapes == [(m.nrows, m.ncols - c.rank(i - 1, j))
                      for (i, j), m in sorted(c.diffs.items())]
    assert c.rank(5, 3) == 0 and len(shapes) == 2   # absent differential


def _random_matrix(data, F, nrows, ncols):
    vals = data.draw(st.lists(st.sampled_from([0, 1, -1, 2, 3]),
                              min_size=nrows * ncols, max_size=nrows * ncols))
    return Matrix(nrows, ncols, {(a, b): vals[a * ncols + b]
                                 for a in range(nrows) for b in range(ncols)}, F)


def _random_complex(data, F, length):
    """A random complex in degrees 0..length-1 (two or three terms); the
    second differential is a random map out of the cokernel of the first."""
    dims = data.draw(st.lists(st.sampled_from([0, 1, 2, 2, 3, 3]),
                              min_size=length, max_size=length))
    diffs = {(0, 0): _random_matrix(data, F, dims[1], dims[0])}
    if length == 3:
        left_kernel = diffs[(0, 0)].transpose().kernel_basis()
        coeffs = _random_matrix(data, F, dims[2], left_kernel.ncols)
        diffs[(1, 0)] = coeffs.mul(left_kernel.transpose())
    return CochainComplex({(i, 0): n for i, n in enumerate(dims)}, diffs, F)


def _plus(a, b):
    ent = dict(a.entries)
    for k, v in b.entries.items():
        ent[k] = ent.get(k, 0) + v
    return Matrix(a.nrows, a.ncols, ent, a.field)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, PrimeField(7)]), st.integers(2, 3), st.data())
def test_chain_map_accepted_exactly_when_it_commutes(F, length, data):
    S = _random_complex(data, F, length)
    T = _random_complex(data, F, length)
    # f = d_T∘h + h∘d_S is null-homotopic, so a chain map; h_i: S^i -> T^{i-1}
    h = {i: _random_matrix(data, F, T.dim(i - 1), S.dim(i))
         for i in range(length + 1)}
    comps = {(i, 0): _plus(T.diff(i - 1).mul(h[i]), h[i + 1].mul(S.diff(i)))
             for i in range(length)}
    perturbable = [i for i in range(length) if S.dim(i) and T.dim(i)]
    if perturbable and data.draw(st.integers(0, 3)):
        # mostly: add one nonzero entry to one component
        i = data.draw(st.sampled_from(perturbable))
        a = data.draw(st.integers(0, T.dim(i) - 1))
        b = data.draw(st.integers(0, S.dim(i) - 1))
        comps[(i, 0)] = _plus(comps[(i, 0)],
                              Matrix(T.dim(i), S.dim(i), {(a, b): 1}, F))

    def f(i):
        return comps.get((i, 0), Matrix.zeros(T.dim(i), S.dim(i), F))

    failing = {(i, 0) for i in range(-1, length + 1)
               if f(i + 1).mul(S.diff(i)) != T.diff(i).mul(f(i))}
    if not failing:
        fiber = ChainMap(S, T, comps).fiber
        assert fiber.euler_characteristic() == (S.euler_characteristic()
                                                - T.euler_characteristic())
        return
    with pytest.raises(InternalCheckError) as exc:
        ChainMap(S, T, comps)
    assert str(exc.value).startswith("not a chain map")
    assert exc.value.index in failing
    assert str(exc.value).endswith(f"at {exc.value.index}")


def test_tangent_solve_forms_each_check_product_once(monkeypatch):
    """One solve multiplies each pair of consecutive differentials of the
    source, the target and the one fiber once, and multiplies nothing else."""
    products, chain_maps, fibers = [], [], []
    mul, verify, fiber = Matrix.mul, ChainMap.verify, complexes.mapping_fiber

    def counting_mul(a, b):
        products.append((id(a), id(b)))
        return mul(a, b)

    def recording_verify(self):
        chain_maps.append(self)
        verify(self)

    def counting_fiber(f):
        fibers.append(f)
        return fiber(f)

    monkeypatch.setattr(Matrix, "mul", counting_mul)
    monkeypatch.setattr(ChainMap, "verify", recording_verify)
    monkeypatch.setattr(complexes, "mapping_fiber", counting_fiber)
    p2 = HomIdealPresentation.from_strings(3, [])
    conic = HomIdealPresentation.from_strings(3, ["x0^2 - x1*x2"])
    rep = tangent_at_subscheme(p2, conic, 2, 5, 1, PrimeField(1000003))
    assert rep.dims[0] == 5
    assert len(chain_maps) == 1 and fibers == chain_maps
    cm = chain_maps[0]
    expected = [(id(c.diffs[(i + 1, j)]), id(m))
                for c in (cm.source, cm.target, cm.fiber)
                for (i, j), m in c.diffs.items() if (i + 1, j) in c.diffs]
    assert expected and sorted(products) == sorted(expected)
