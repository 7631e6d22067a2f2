"""Bar and cobar constructions at low arity.

Cobar(C) is the free operad on the desuspended coaugmentation coideal of
a cooperad C, with the differential induced by infinitesimal cocomposition
(plus the internal differential of C when there is one).  Generators of
arity r sit in cohomological degree deg_C + 2 - r, which makes both parts
of the differential degree +1.  Bar(Com) is realized on the same tree
machinery with the suspended commutative generators (one per arity,
degree k - 2, sign action).

Sign conventions: Koszul signs ride on the label degrees through the tree
machinery; the single remaining generator-level sign of each construction
is fixed by requiring d*d = 0 exactly, which the assembled complexes
verify at every arity (see the test suite for the anchors that pin the
conventions down).
"""
from __future__ import annotations

from itertools import combinations

from .complexes import CochainComplex
from .errors import BudgetError, InternalCheckError
from .fields import QQ, reduced
from .linalg import Matrix
from .operads import (ARITY_CAP, DerivationDifferential, LieOperad, SModule,
                      TreeBasis, TreeBasisElement, _canonicalize_shape,
                      _standardize, element_degree, label_degrees, leaf,
                      min_leaf, node, shape_leaves, tree_sn_action,
                      two_vertex_tree)


class LieDualCooperad:
    """The cooperad of duals of the Lie pieces (no internal differential).

    Cocomposition components are obtained by pairing dual basis vectors
    against 2-vertex trees expanded in the Dynkin basis.
    """

    def __init__(self, n_cap=ARITY_CAP, field=QQ):
        self.field = field
        self.n_cap = n_cap
        self.lie = LieOperad(n_cap, field)

    def arities(self):
        return list(range(2, self.n_cap + 1))

    def dim(self, n):
        return self.lie.dim(n)

    def degrees(self, n):
        return [0] * self.dim(n)

    def labels(self, n):
        return [f"lie{n}*_{i}" for i in range(self.dim(n))]

    def action_transpositions(self, n):
        mats = []
        for k in range(n - 1):
            perm = list(range(n))
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
            # dual left action of a self-inverse element: transpose
            mats.append(self.lie.action_matrix(n, tuple(perm)).transpose())
        return mats

    def two_vertex_components(self, n, idx):
        """[(coeff, subset, (k, outer_idx), (m, inner_idx))] with the
        coefficient <dual basis idx, tree>."""
        out = []
        for m in range(2, n):
            k = n - m + 1
            if k < 2 or k > self.n_cap:
                continue
            for subset in combinations(range(n), m):
                for o_idx in range(self.dim(k)):
                    for i_idx in range(self.dim(m)):
                        coords = self.lie.tree_coordinates(
                            n, subset, k, o_idx, m, i_idx)
                        c = coords.get(idx)
                        if c is not None:
                            out.append((c, subset, (k, o_idx), (m, i_idx)))
        return out

    def internal_column(self, n, idx):
        return {}


class BarCom:
    """The dg-cooperad Bar(Com) through an arity cap (trees on suspended
    commutative generators; differential contracts single edges)."""

    def __init__(self, n_cap=3, field=QQ):
        self.field = field
        self.n_cap = n_cap
        # suspended commutative generators: arity k, degree k - 2, sign rep
        pieces = {k: [(f"scom{k}", k - 2)] for k in range(2, n_cap + 1)}
        transpositions = {
            k: [Matrix.identity(1, field).scale(-1)] * (k - 1)
            for k in range(2, n_cap + 1)}
        self.gens = SModule(pieces, transpositions, field)
        self.bases = {n: TreeBasis(self.gens, n, n_cap)
                      for n in range(2, n_cap + 1)}

    def arities(self):
        return list(range(2, self.n_cap + 1))

    def dim(self, n):
        return self.bases[n].dim

    def degrees(self, n):
        return [element_degree(self.gens, el) for el in self.bases[n].elements]

    def labels(self, n):
        return [f"t{n}_{i}" for i in range(self.dim(n))]

    def action_transpositions(self, n):
        basis = self.bases[n]
        mats = []
        for k in range(n - 1):
            perm = list(range(n))
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
            images = (tree_sn_action(self.gens, {el: self.field.one}, tuple(perm))
                      for el in basis.elements)
            mats.append(Matrix.from_cols(
                [{basis.index[el2]: v for el2, v in img.items()} for img in images],
                basis.dim, self.field))
        return mats

    def _contractions(self, el: TreeBasisElement):
        """Single-edge contractions of a bar tree with Koszul signs."""
        out = {}
        degrees = label_degrees(self.gens, el)

        def walk(shape, pos, parent_info):
            if shape[0] == "L":
                return pos
            my_pos = pos
            nxt = my_pos + 1
            child_sizes = []
            for child in shape[1]:
                start = nxt
                nxt = walk(child, nxt, (shape, my_pos))
                child_sizes.append((child, start, nxt))
            if parent_info is not None:
                parent_shape, parent_pos = parent_info
                # contract the edge parent -> this vertex
                new_children = []
                for c in parent_shape[1]:
                    if c is shape:
                        new_children.extend(shape[1])
                    else:
                        new_children.append(c)
                merged = ("N", tuple(sorted(new_children, key=min_leaf)))
                new_local_arity = len(parent_shape[1]) + len(shape[1]) - 1
                if new_local_arity > self.n_cap:
                    return nxt
                # Koszul: move this vertex's label next to the parent's
                between = sum(degrees[parent_pos + 1:my_pos]) % 2
                sign = (-1) ** (degrees[my_pos] * between)
                new_shape_full = _replace(el.shape, parent_shape, merged)
                new_labels = []
                for t, lab in enumerate(el.labels):
                    if t == my_pos:
                        continue
                    if t == parent_pos:
                        new_labels.append(0)  # one generator per arity
                    else:
                        new_labels.append(lab)
                # merged children were re-sorted; since all is canonical and
                # min-leaf order of parent's other children and this
                # vertex's children interleave order-preserving, the DFS
                # label order of the other blocks is unchanged: their
                # relative order is preserved by the merge
                key = TreeBasisElement(_canon(new_shape_full), tuple(new_labels))
                out[key] = out.get(key, 0) + sign
            return nxt

        walk(el.shape, 0, None)
        return reduced(self.field, out)

    def internal_column(self, n, idx):
        basis = self.bases[n]
        img = self._contractions(basis.elements[idx])
        return {basis.index[el]: v for el, v in img.items()}

    def two_vertex_components(self, n, idx):
        """Single-edge cuts: (coeff, subset, (k, outer_idx), (m, inner_idx))."""
        el = self.bases[n].elements[idx]
        out = []
        degrees = label_degrees(self.gens, el)

        def walk(shape, pos, is_root):
            if shape[0] == "L":
                return pos
            my_pos = pos
            nxt = my_pos + 1
            for child in shape[1]:
                nxt = walk(child, nxt, False)
            if not is_root:
                sub_leaves = sorted(shape_leaves(shape))
                size = nxt - my_pos
                lower_labels = el.labels[my_pos:nxt]
                std_lower, _ = _standardize(shape)
                lower_el = TreeBasisElement(std_lower, tuple(lower_labels))
                upper_shape = _replace(el.shape, shape, leaf(sub_leaves[0]))
                std_upper, _ = _standardize(upper_shape)
                upper_labels = el.labels[:my_pos] + el.labels[nxt:]
                upper_el = TreeBasisElement(std_upper, tuple(upper_labels))
                # Koszul: move the lower block past the upper labels that
                # followed it
                tail = sum(degrees[nxt:]) % 2
                lower_deg = sum(degrees[my_pos:nxt]) % 2
                sign = (-1) ** (lower_deg * tail)
                m = len(sub_leaves)
                k = n - m + 1
                lb = self.bases.get(m)
                ub = self.bases.get(k)
                if lb is None or ub is None:
                    return nxt
                out.append((sign, tuple(sub_leaves),
                            (k, ub.index[upper_el]), (m, lb.index[lower_el])))
            return nxt

        walk(el.shape, 0, True)
        return out

    def homology_dims(self, n) -> dict:
        """Cohomology of (Bar(Com)(n), edge contraction) by degree."""
        cplx = _graded_complex(self.bases[n], self._contractions, self.field)
        return {d: cplx.cohomology(d) for (d, _) in cplx.terms}


def _graded_complex(basis: TreeBasis, image, field) -> CochainComplex:
    """The complex on ``basis`` graded by tree degree, one term per degree
    in increasing order; ``image(el)`` is the differential of the basis
    element ``el`` as {basis element: coefficient}, of degree one more."""
    by_degree = {}
    for i, el in enumerate(basis.elements):
        by_degree.setdefault(element_degree(basis.gens, el), []).append(i)
    degs = sorted(by_degree)
    diffs = {}
    for d in degs:
        if d + 1 not in by_degree:
            continue
        rows = {i: r for r, i in enumerate(by_degree[d + 1])}
        entries = {}
        for cix, i in enumerate(by_degree[d]):
            for el, v in image(basis.elements[i]).items():
                j = basis.index.get(el)
                if j is None:
                    raise InternalCheckError(
                        "differential left the arity-capped basis")
                entries[(rows[j], cix)] = v
        diffs[(d, 0)] = Matrix(len(by_degree[d + 1]), len(by_degree[d]),
                               entries, field)
    return CochainComplex({(d, 0): len(by_degree[d]) for d in degs}, diffs, field)


def _replace(shape, old, new):
    if shape is old:
        return new
    if shape[0] == "L":
        return shape
    return ("N", tuple(_replace(c, old, new) for c in shape[1]))


def _canon(shape):
    new_shape, _, perms = _canonicalize_shape(shape, [0])
    if perms:
        raise InternalCheckError("unexpected re-sort during contraction")
    return new_shape


class CobarOperad:
    """Cobar(C) through an arity cap, assembled arity by arity.

    The differential is d' (cocomposition on generators, extended as a
    derivation) plus d'' (the internal differential of C transported to
    the generators); both are degree +1 and the assembled complex verifies
    d*d = 0 exactly.
    """

    def __init__(self, coop, n_cap=None, field=QQ):
        self.coop = coop
        self.field = field
        self.n_cap = n_cap or max(coop.arities())
        if self.n_cap > max(coop.arities()):
            raise BudgetError("arity cap exceeds the cooperad data")
        pieces, transpositions = {}, {}
        for r in coop.arities():
            if r > self.n_cap:
                continue
            degs = coop.degrees(r)
            pieces[r] = [(f"g[{lbl}]", degs[i] + 2 - r)
                         for i, lbl in enumerate(coop.labels(r))]
            transpositions[r] = [m.scale(-1)
                                 for m in coop.action_transpositions(r)]
        self.gens = SModule(pieces, transpositions, field)
        self._deriv = DerivationDifferential(self.gens, self._gen_image)
        self.bases = {n: TreeBasis(self.gens, n, self.n_cap)
                      for n in range(2, self.n_cap + 1)}
        self._complexes = {}

    def _gen_image(self, arity, idx) -> dict:
        out = {}
        for (coeff, subset, (k, o_idx), (m, i_idx)) in \
                self.coop.two_vertex_components(arity, idx):
            el = two_vertex_tree(arity, subset, o_idx, i_idx)
            # generator-level sign of the cobar differential (fixed by the
            # exact square-zero check; see tests):
            sign = _cobar_component_sign(arity, subset, k, m)
            out[el] = out.get(el, 0) + coeff * sign
        corolla = node(tuple(leaf(t) for t in range(arity)))
        for j, v in self.coop.internal_column(arity, idx).items():
            el = TreeBasisElement(corolla, (j,))
            out[el] = out.get(el, 0) - v
        return reduced(self.field, out)

    def complex(self, n) -> CochainComplex:
        if n not in self._complexes:
            self._complexes[n] = _graded_complex(
                self.bases[n], self._deriv.of_basis, self.field)
        return self._complexes[n]

    def cohomology_profile(self, n) -> dict:
        cplx = self.complex(n)
        out = {}
        for (d, _), dim in sorted(cplx.terms.items()):
            h = cplx.cohomology(d, 0)
            if h:
                out[d] = h
        return out


def _cobar_component_sign(n, subset, k, m) -> int:
    """Generator-level sign of the cobar differential component whose inner
    vertex holds the given leaf subset.

    The crossing count is the sign of the unshuffle moving the subset into
    a trailing block; the extra min(subset) term comes from the sign
    representation in the operadic desuspension.  The convention is pinned
    by the exact d*d = 0 checks together with the Koszulness anchors
    (cohomology of Cobar(Lie*) equal to Com through arity 4).
    """
    inside = set(subset)
    crossings = sum(1 for s in subset for t in range(n)
                    if t not in inside and s < t)
    return (-1) ** ((crossings + min(subset)) % 2)


def cobar_lie_dual(n_cap=4, field=QQ) -> CobarOperad:
    """The small resolution: Cobar of the duals of the Lie pieces."""
    return CobarOperad(LieDualCooperad(n_cap, field), n_cap, field)
