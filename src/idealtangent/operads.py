"""Arity-capped operadic homological algebra.

S-modules with explicit symmetric-group actions, the Lie operad in the
left-normed (Dynkin) basis via its embedding into tensor words, free
operads on canonical leaf-labeled trees, and the bar/cobar constructions
at low arity.  All differentials square to zero exactly by construction
checks; sign conventions are carried by the cohomological degrees of
vertex labels (Koszul rule along the depth-first label order), and the
one generator-level sign of the cobar differential is fixed by the
square-zero requirement (see tests).

Trees are canonical: children of every vertex are ordered by least leaf.
Grafting preserves canonicity, so the only place re-sorting (and hence
label actions and Koszul signs) happens is leaf relabeling.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import BudgetError, InternalCheckError, ValidationError
from .fields import QQ, reduced
from .linalg import Echelon, Matrix

ARITY_CAP = 5


# ---------------------------------------------------------------------------
# permutations


def adjacent_factorization(perm):
    """perm = s_{w[0]} . s_{w[1]} . ... applied right to left."""
    work = list(perm)
    word = []
    n = len(work)
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            if work[k] > work[k + 1]:
                work[k], work[k + 1] = work[k + 1], work[k]
                word.append(k)
                changed = True
    word.reverse()
    return word


def koszul_reorder_sign(degrees, new_order) -> int:
    """Sign of reordering a tensor with the given degrees; new_order[p] is
    the old position landing at slot p."""
    sign = 1
    for p in range(len(new_order)):
        for q in range(p + 1, len(new_order)):
            if new_order[p] > new_order[q]:
                sign *= (-1) ** (degrees[new_order[p]] * degrees[new_order[q]])
    return sign


# ---------------------------------------------------------------------------
# S-modules


class SModule:
    """Arity-indexed graded spaces with symmetric-group actions.

    pieces[n]: list of (label, cohomological degree).  The action is stored
    as matrices of the adjacent transpositions s_k = (k, k+1) and composed
    on demand; the generator relations are verified exactly.
    """

    def __init__(self, pieces: dict, transpositions: dict, field=QQ, check=True):
        self.field = field
        self.pieces = {n: list(v) for n, v in pieces.items() if v}
        self.transpositions = transpositions
        self._action_cache: dict = {}
        if check:
            self.validate()

    def arities(self):
        return sorted(self.pieces)

    def dim(self, n) -> int:
        return len(self.pieces.get(n, ()))

    def degrees(self, n):
        return [d for _, d in self.pieces.get(n, ())]

    def labels(self, n):
        return [s for s, _ in self.pieces.get(n, ())]

    def action(self, n, perm) -> Matrix:
        perm = tuple(perm)
        key = (n, perm)
        cached = self._action_cache.get(key)
        if cached is not None:
            return cached
        mat = Matrix.identity(self.dim(n), self.field)
        for k in adjacent_factorization(perm):
            mat = mat.mul(self.transpositions[n][k])
        self._action_cache[key] = mat
        return mat

    def validate(self):
        for n, mats in self.transpositions.items():
            dim = self.dim(n)
            if len(mats) != max(n - 1, 0):
                raise InternalCheckError(f"arity {n}: wrong transposition count")
            ident = Matrix.identity(dim, self.field)
            for k, m in enumerate(mats):
                if m.nrows != dim or m.ncols != dim:
                    raise InternalCheckError(f"arity {n}: bad action shape")
                if m.mul(m) != ident:
                    raise InternalCheckError(f"s_{k}^2 != 1 at arity {n}")
            for k in range(len(mats) - 1):
                a, b = mats[k], mats[k + 1]
                if a.mul(b).mul(a) != b.mul(a).mul(b):
                    raise InternalCheckError(f"braid relation fails at arity {n}")
            for k in range(len(mats)):
                for l in range(k + 2, len(mats)):
                    if mats[k].mul(mats[l]) != mats[l].mul(mats[k]):
                        raise InternalCheckError(
                            f"distant transpositions fail to commute at arity {n}")


def com_smodule(n_cap=ARITY_CAP, field=QQ) -> SModule:
    pieces = {n: [(f"com{n}", 0)] for n in range(2, n_cap + 1)}
    transpositions = {n: [Matrix.identity(1, field)] * (n - 1)
                      for n in range(2, n_cap + 1)}
    return SModule(pieces, transpositions, field)


def suspend(e: SModule, inverse=False) -> SModule:
    """Operadic (de)suspension: degrees shift by 1-n (resp. n-1) and the
    action is twisted by the sign character."""
    shift = (lambda n: n - 1) if inverse else (lambda n: 1 - n)
    pieces = {n: [(s, d + shift(n)) for s, d in v] for n, v in e.pieces.items()}
    transpositions = {
        n: [m.scale(-1) for m in e.transpositions[n]]
        for n in e.pieces}
    return SModule(pieces, transpositions, e.field, check=False)


# ---------------------------------------------------------------------------
# the Lie operad via tensor-word expansions


def _bracket_word_expansion(letters) -> dict:
    """Left-normed bracket [[l0, l1], l2, ...] expanded in tensor words."""
    words = {(letters[0],): 1}
    for letter in letters[1:]:
        nxt = {}
        for w, c in words.items():
            key = w + (letter,)
            nxt[key] = nxt.get(key, 0) + c
            key = (letter,) + w
            nxt[key] = nxt.get(key, 0) - c
        words = {k: v for k, v in nxt.items() if v}
    return words


class LieOperad:
    """Multilinear weight-n pieces of the Lie operad, n <= cap.

    Basis: left-normed brackets [x_1, x_{s(2)}, ..., x_{s(n)}] over
    permutations s of {2..n} ((n-1)! of them); all computations go through
    the embedding into multilinear tensor words.
    """

    def __init__(self, n_cap=ARITY_CAP, field=QQ):
        if n_cap > 7:
            raise BudgetError("Lie arity cap beyond 7 is not supported")
        self.n_cap = n_cap
        self.field = field
        self.basis_letters = {}
        self._solvers = {}
        self._word_index = {}
        for n in range(1, n_cap + 1):
            if n == 1:
                letters = [(0,)]
            else:
                letters = [(0,) + rest for rest in permutations(range(1, n))]
            self.basis_letters[n] = letters
            words = sorted(permutations(range(n)))
            self._word_index[n] = {w: i for i, w in enumerate(words)}
            ech = Echelon(field)
            marker = len(words)
            for j, seq in enumerate(letters):
                row = {self._word_index[n][w]: c
                       for w, c in _bracket_word_expansion(seq).items()}
                row[marker + j] = field.one
                ech.insert(row)
            ech.full_reduce()
            self._solvers[n] = (ech, marker)

    def dim(self, n) -> int:
        return len(self.basis_letters.get(n, ()))

    def expansion(self, n, idx) -> dict:
        return _bracket_word_expansion(self.basis_letters[n][idx])

    def coordinates(self, n, word_vec: dict) -> dict:
        ech, marker = self._solvers[n]
        vec = {self._word_index[n][w]: c for w, c in word_vec.items()}
        residue, _ = ech.reduce(vec)
        coords = {}
        for col, v in residue.items():
            if col < marker:
                raise ValidationError("element is not in the Lie subspace")
            coords[col - marker] = -v
        return reduced(self.field, coords)

    def action_matrix(self, n, perm) -> Matrix:
        """Left action: relabel letters by l -> perm[l], re-express."""
        return Matrix.from_cols(
            [self.coordinates(n, {tuple(perm[l] for l in w): c
                                  for w, c in self.expansion(n, j).items()})
             for j in range(self.dim(n))], self.dim(n), self.field)

    def compose_words(self, k, idx_outer, letters_map, m, idx_inner, slot_letters):
        """Words of mu_outer with its letters sent through letters_map and
        its slot letter replaced by mu_inner over slot_letters."""
        out = {}
        inner = self.expansion(m, idx_inner)
        hole = letters_map[None]
        for w, c in self.expansion(k, idx_outer).items():
            for wi, ci in inner.items():
                inner_word = tuple(slot_letters[l] for l in wi)
                word = []
                for letter in w:
                    if letter == hole:
                        word.extend(inner_word)
                    else:
                        word.append(letters_map[letter])
                key = tuple(word)
                out[key] = out.get(key, 0) + c * ci
        return {w: c for w, c in out.items() if c}

    def tree_coordinates(self, n, subset, k, idx_outer, m, idx_inner) -> dict:
        """Coordinates in Lie(n) of the 2-vertex tree whose inner vertex
        holds the (sorted) leaf subset."""
        subset = sorted(subset)
        rest = [j for j in range(n) if j not in subset]
        slot_pos = sum(1 for t in rest if t < subset[0])
        letters_map = {}
        oi = 0
        for pos in range(k):
            if pos == slot_pos:
                letters_map[None] = pos
                letters_map[pos] = None
            else:
                letters_map[pos] = rest[oi]
                oi += 1
        lm = {pos: letters_map[pos] for pos in range(k) if letters_map.get(pos) is not None}
        lm[None] = slot_pos
        words = self.compose_words(k, idx_outer, lm, m, idx_inner,
                                   {t: subset[t] for t in range(m)})
        return self.coordinates(n, words)

    def smodule(self, n_cap=None) -> SModule:
        n_cap = n_cap or self.n_cap
        pieces, transpositions = {}, {}
        for n in range(2, n_cap + 1):
            pieces[n] = [("[" + ",".join(f"x{l + 1}" for l in seq) + "]", 0)
                         for seq in self.basis_letters[n]]
            mats = []
            for kk in range(n - 1):
                perm = list(range(n))
                perm[kk], perm[kk + 1] = perm[kk + 1], perm[kk]
                mats.append(self.action_matrix(n, tuple(perm)))
            transpositions[n] = mats
        return SModule(pieces, transpositions, self.field)


def lie_component(n: int, field=QQ, n_cap=ARITY_CAP):
    """(SModule piece through arity n, LieOperad helper)."""
    if n > n_cap:
        raise BudgetError(f"arity cap exceeded: {n} > {n_cap}")
    lie = LieOperad(max(n, 2), field)
    return lie.smodule(), lie


# ---------------------------------------------------------------------------
# canonical leaf-labeled trees


def leaf(i):
    return ("L", i)


def node(children):
    return ("N", tuple(children))


def is_leaf(shape):
    return shape[0] == "L"


def min_leaf(shape):
    while not is_leaf(shape):
        shape = shape[1][0]
    return shape[1]


def shape_leaves(shape):
    if is_leaf(shape):
        return [shape[1]]
    out = []
    for c in shape[1]:
        out.extend(shape_leaves(c))
    return out


def internal_vertices(shape):
    """Arities of internal vertices, depth-first pre-order."""
    if is_leaf(shape):
        return []
    out = [len(shape[1])]
    for c in shape[1]:
        out.extend(internal_vertices(c))
    return out


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def enumerate_shapes(leaves: tuple, max_arity):
    leaves = tuple(sorted(leaves))
    if len(leaves) == 1:
        return [leaf(leaves[0])]
    out = []
    for blocks in set_partitions(leaves):
        if len(blocks) < 2 or len(blocks) > max_arity:
            continue
        childlists = [enumerate_shapes(tuple(b), max_arity) for b in blocks]
        stack = [()]
        for options in childlists:
            stack = [pref + (o,) for pref in stack for o in options]
        for kids in stack:
            out.append(node(tuple(sorted(kids, key=min_leaf))))
    return out


def free_operad_dimension(dims_by_arity: dict, n: int) -> int:
    """Species recursion for dim F_E(n), independent of the enumeration."""
    cache = {1: 1}

    def rec(size):
        if size in cache:
            return cache[size]
        total = 0
        for part in set_partitions(range(size)):
            k = len(part)
            if k < 2 or not dims_by_arity.get(k):
                continue
            prod = dims_by_arity[k]
            for b in part:
                prod *= rec(len(b))
            total += prod
        cache[size] = total
        return total

    return rec(n)


@dataclass(frozen=True)
class TreeBasisElement:
    shape: tuple
    labels: tuple   # generator indices at internal vertices, DFS pre-order


class TreeBasis:
    """Basis of arity n of the free operad on a generator S-module."""

    def __init__(self, gens: SModule, n: int, max_arity=None):
        self.gens = gens
        self.n = n
        cap = max_arity or (max(gens.arities()) if gens.arities() else 1)
        self.elements = []
        self.index = {}
        if n == 0:
            return
        for shape in sorted(enumerate_shapes(tuple(range(n)), cap)):
            arities = internal_vertices(shape)
            if n > 1 and not arities:
                continue
            if any(gens.dim(a) == 0 for a in arities):
                continue
            stacks = [()]
            for a in arities:
                stacks = [p + (i,) for p in stacks for i in range(gens.dim(a))]
            for labels in stacks:
                el = TreeBasisElement(shape, labels)
                self.index[el] = len(self.elements)
                self.elements.append(el)

    @property
    def dim(self):
        return len(self.elements)


def label_degrees(gens: SModule, el: TreeBasisElement) -> list:
    """The degrees of the vertex labels of ``el``, in depth-first order."""
    arities = internal_vertices(el.shape)
    return [gens.degrees(a)[i] for a, i in zip(arities, el.labels)]


def element_degree(gens: SModule, el: TreeBasisElement) -> int:
    return sum(label_degrees(gens, el))


# ---------------------------------------------------------------------------
# element operations: dicts {TreeBasisElement: coefficient}


def _relabel_leaves(shape, fun):
    if is_leaf(shape):
        return leaf(fun(shape[1]))
    return ("N", tuple(_relabel_leaves(c, fun) for c in shape[1]))


def _canonicalize_shape(shape, counter):
    """Sort children by least leaf; returns (new_shape, vertex_ids,
    child_perms): vertex_ids lists old DFS indices in new DFS order,
    child_perms[old_id] = tau with tau[p] = old child position at slot p."""
    if is_leaf(shape):
        return shape, [], {}
    my_id = counter[0]
    counter[0] += 1
    processed = []
    for c in shape[1]:
        nc, ids, perms = _canonicalize_shape(c, counter)
        processed.append((nc, ids, perms))
    order = sorted(range(len(processed)), key=lambda j: min_leaf(processed[j][0]))
    new_children = tuple(processed[j][0] for j in order)
    vertex_ids = [my_id]
    child_perms = {}
    for j in order:
        vertex_ids.extend(processed[j][1])
        child_perms.update(processed[j][2])
    if tuple(order) != tuple(range(len(processed))):
        child_perms[my_id] = tuple(order)
    return ("N", new_children), vertex_ids, child_perms


def tree_sn_action(gens: SModule, element: dict, perm) -> dict:
    """Left action of a leaf permutation: relabel i -> perm[i], then
    re-canonicalize, acting on vertex labels and collecting Koszul signs."""
    out = {}
    for el, coeff in element.items():
        relabeled = _relabel_leaves(el.shape, lambda i: perm[i])
        new_shape, vertex_ids, child_perms = _canonicalize_shape(relabeled, [0])
        arities = internal_vertices(el.shape)
        sign = koszul_reorder_sign(label_degrees(gens, el), vertex_ids)
        partial = [((), coeff * sign)]
        for old_id in vertex_ids:
            old_label = el.labels[old_id]
            tau = child_perms.get(old_id)
            if tau is None:
                partial = [(lab + (old_label,), c) for lab, c in partial]
                continue
            inv = tuple(tau.index(p) for p in range(len(tau)))
            col = gens.action(arities[old_id], inv).col(old_label)
            partial = [(lab + (i,), c * v)
                       for lab, c in partial for i, v in col.items()]
        for labels, c in partial:
            key = TreeBasisElement(new_shape, labels)
            out[key] = out.get(key, 0) + c
    return reduced(gens.field, out)


def graft(gens: SModule, el1: TreeBasisElement, slot: int,
          el2: TreeBasisElement, m: int):
    """el1 o_slot el2 (slot 1-based, el2 of arity m): (element, sign).

    Canonicity is preserved, so this is a pure splice plus the Koszul sign
    of moving el2's label block into place.
    """
    shape1 = _relabel_leaves(el1.shape,
                             lambda j: j if j <= slot - 1 else j + m - 1)
    shape2 = _relabel_leaves(el2.shape, lambda t: t + slot - 1)
    insert_pos = [None]

    def splice(shape, count):
        if is_leaf(shape):
            if shape[1] == slot - 1:
                insert_pos[0] = count[0]
                return shape2
            return shape
        count[0] += 1
        return ("N", tuple(splice(c, count) for c in shape[1]))

    new_shape = splice(shape1, [0])
    pos = insert_pos[0]
    sign = (-1) ** (element_degree(gens, el2)
                    * sum(label_degrees(gens, el1)[pos:]) % 2)
    return TreeBasisElement(new_shape, el1.labels[:pos] + el2.labels
                            + el1.labels[pos:]), sign


def graft_elements(gens: SModule, e1: dict, slot: int, e2: dict, m: int) -> dict:
    out = {}
    for el1, c1 in e1.items():
        for el2, c2 in e2.items():
            el, sign = graft(gens, el1, slot, el2, m)
            out[el] = out.get(el, 0) + c1 * c2 * sign
    return reduced(gens.field, out)


def two_vertex_tree(n, subset, outer_idx, inner_idx) -> TreeBasisElement:
    """Canonical 2-vertex tree over leaves 0..n-1; the inner vertex holds
    the given leaf subset; labels are (outer, inner) in DFS order."""
    inner = node(tuple(leaf(s) for s in sorted(subset)))
    others = [leaf(j) for j in range(n) if j not in subset]
    children = tuple(sorted(others + [inner], key=min_leaf))
    return TreeBasisElement(node(children), (outer_idx, inner_idx))


def _standardize(shape):
    """Relabel leaves order-isomorphically to 0..m-1; returns
    (std_shape, sorted original leaves)."""
    leaves = sorted(shape_leaves(shape))
    pos = {v: i for i, v in enumerate(leaves)}
    return _relabel_leaves(shape, lambda v: pos[v]), leaves


class DerivationDifferential:
    """Extend generator differentials to trees as a derivation.

    gen_image(arity, index) -> element dict over standard leaves (the
    2-vertex cocomposition part plus any internal part); must raise the
    total degree by one.  Deep trees are handled by root decomposition:
    standardize children, recurse, reassemble by grafting, and transport
    along the (sign-free) block relabeling.
    """

    def __init__(self, gens: SModule, gen_image):
        self.gens = gens
        self.gen_image = gen_image
        self._cache = {}

    def of_basis(self, el: TreeBasisElement) -> dict:
        cached = self._cache.get(el)
        if cached is not None:
            return cached
        F = self.gens.field
        shape, labels = el.shape, el.labels
        if is_leaf(shape):
            return {}
        children = shape[1]
        k = len(children)
        root_label = labels[0]
        if all(is_leaf(c) for c in children):
            out = self.gen_image(k, root_label)
        else:
            std_children = []
            blocks = []
            for c in children:
                std, lv = _standardize(c)
                std_children.append(std)
                blocks.append(lv)
            label_pos = 1
            child_elems = []
            child_degs = []
            for c, std in zip(children, std_children):
                size = len(internal_vertices(c))
                sub_labels = labels[label_pos:label_pos + size]
                label_pos += size
                cel = TreeBasisElement(std, sub_labels)
                child_elems.append(cel)
                child_degs.append(element_degree(self.gens, cel))
            root_deg = self.gens.degrees(k)[root_label]
            consec = {}
            # term: (d gen)(c_1, ..., c_k); with consecutive leaf blocks the
            # j-th input sits at slot 1 + sum of the earlier block sizes,
            # and grafting right-to-left keeps lower slots valid
            droot = self.gen_image(k, root_label)
            if droot:
                term = dict(droot)
                for j in range(k, 0, -1):
                    slot = 1 + sum(len(blocks[t]) for t in range(j - 1))
                    term = graft_elements(self.gens, term, slot,
                                          {child_elems[j - 1]: F.one},
                                          len(blocks[j - 1]))
                _acc_elem(consec, term, 1)
            # terms: +- g(c_1, .., d c_j, .., c_k)
            for j in range(k):
                dchild = self.of_basis(child_elems[j])
                if not dchild:
                    continue
                sign = (-1) ** ((root_deg + sum(child_degs[:j])) % 2)
                corolla = {TreeBasisElement(
                    node(tuple(leaf(t) for t in range(k))), (root_label,)): F.one}
                term = corolla
                for jj in range(k, 0, -1):
                    slot = 1 + sum(len(blocks[t]) for t in range(jj - 1))
                    piece = dchild if jj - 1 == j else {child_elems[jj - 1]: F.one}
                    term = graft_elements(self.gens, term, slot, piece,
                                          len(blocks[jj - 1]))
                _acc_elem(consec, term, sign)
            # transport consecutive blocks to the actual leaf pattern
            flat = [v for b in blocks for v in b]
            out = tree_sn_action(self.gens, consec, flat)
        self._cache[el] = out
        return out

    def of_element(self, element: dict) -> dict:
        out = {}
        for el, c in element.items():
            _acc_elem(out, self.of_basis(el), c)
        return reduced(self.gens.field, out)


def _acc_elem(target: dict, source: dict, scale):
    """Add ``scale * source`` to ``target`` as raw sums."""
    for el, v in source.items():
        target[el] = target.get(el, 0) + scale * v
