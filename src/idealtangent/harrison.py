"""Harrison cochain complexes of finite graded commutative algebras.

Cochains of weight n valued in a module M are the multilinear maps
A^(x)n -> M vanishing on all signed shuffle sums (the characteristic-0
realization of maps out of the cofree Lie coalgebra on the shifted space).
Since A sits in cohomological degree 0, every shifted argument is odd and
the shuffle sign is the plain permutation sign; the internal grading
contributes no signs.

Everything is stored in compressed coordinates: a weight-n cochain is
determined by its values on the "standard tuples", a basis of the tuples
modulo the shuffle span (one ``ShuffleBlock`` per orbit of degree
compositions and per target degree), and values at arbitrary argument
tuples are recovered by projecting the tuple onto that basis.  This keeps
the windowed internal-degree-0 slices small enough for exact arithmetic.

A shuffle only permutes the letters (degree, basis index) of a tuple, so
the shuffle span is a direct sum over letter contents (Ree 1958).  The
basis is chosen by one ``linalg.Quotient`` per content shape, the content
with its degrees and indices replaced by their ranks, and each block maps
that basis and the shape's residues back to its own tuples.

The coboundary is the negative of the Hochschild one, so that on weight 1
it is exactly (delta f)(a, b) = f(ab) - a f(b) - b f(a).

`HarrisonComplex.cochain_complex` is the one place a Harrison complex
becomes a `CochainComplex`: weight-w cochains sit in degree w - 1, so
H^0 is the derivations.  Every cohomology, rank and d∘d check of a
Harrison complex goes through that `CochainComplex`.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from .complexes import CochainComplex
from .errors import BudgetError, InternalCheckError, NotAHomomorphismError
from .graded import AlgebraModule, FiniteGradedAlgebra
from .fields import reduced
from .linalg import Echelon, Matrix, Quotient


@lru_cache(maxsize=None)
def _shuffles(p: int, n: int) -> tuple:
    """(p, n-p)-shuffle relations as (slot -> input position, sign) pairs.

    Terms of the shuffle product of the first p against the last n-p
    inputs: the output slots S receive inputs 0..p-1 in order, the rest
    receive p..n-1 in order; all inputs are odd, so the sign is the plain
    permutation sign.
    """
    out = []
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
        out.append((tuple(perm), sign))
    return tuple(out)


def _orderings(multiset: tuple) -> list:
    """The distinct orderings of a multiset, sorted: each distinct value
    leads once, in increasing order, so no ordering is built twice."""
    if len(multiset) <= 1:
        return [tuple(multiset)]
    out = []
    for v in sorted(set(multiset)):
        i = multiset.index(v)
        rest = multiset[:i] + multiset[i + 1:]
        out.extend((v,) + tail for tail in _orderings(rest))
    return out


def _shape(content: tuple) -> tuple:
    """A content's letters with every degree replaced by its rank among the
    content's distinct degrees and every index by its rank among its
    distinct indices.  Both maps are increasing, so letter equality and the
    order of words (degree sequence first, then index sequence) survive."""
    degree = {d: r for r, d in enumerate(sorted({d for d, _ in content}))}
    index = {i: r for r, i in enumerate(sorted({i for _, i in content}))}
    return tuple((degree[d], index[i]) for d, i in content)


# unbounded, like _shuffles: a shape has n letters whose degree and index
# ranks are below n, so the weight bounds the number of shapes per field
@lru_cache(maxsize=None)
def _shape_quotient(field, shape: tuple) -> tuple:
    """Shuffle quotient of the words with the letter multiset ``shape``.

    The words are the distinct orderings of ``shape`` in the block's column
    order: degree sequence first, then index sequence.  Returns ``(basis,
    residues)``: the ``Quotient`` basis as word positions, and for every
    word its residue in that basis.  Every content of this shape, in any
    block, shares the one call.
    """
    words = sorted(_orderings(shape),
                   key=lambda w: ([d for d, _ in w], [i for _, i in w]))
    position = {w: k for k, w in enumerate(words)}
    n = len(shape)
    ech = Echelon(field)
    # insert drops the zero sums and the empty rows
    for word in words:
        for p in range(1, n // 2 + 1):
            row = {}
            for perm, sign in _shuffles(p, n):
                k = position[tuple(word[j] for j in perm)]
                row[k] = row.get(k, 0) + sign
            ech.insert(row)
    quotient = Quotient(ech, len(words))
    return (tuple(quotient.basis),
            tuple(quotient.project({k: field.one}) for k in range(len(words))))


class ShuffleBlock:
    """Shuffle quotient of one orbit of degree compositions, one target degree.

    A column ``(ci, tup)`` is a word of letters ``(degree, index)``.  A
    shuffle only permutes letters, so the relations split by letter content
    and each content is the quotient of its shape (``_shape``), eliminated
    once per field by ``_shape_quotient``.  That ``Quotient`` chooses the
    basis; the block maps it back to its own columns, so ``std`` is the
    sorted union of the contents' bases.  The relation for (tuple, p) is
    (-1)^{p(n-p)} times the relation for the rotated tuple and n - p, which
    has the same content, so only p <= n // 2 is inserted.
    """

    def __init__(self, algebra: FiniteGradedAlgebra, comps: tuple, e: int):
        self.algebra = algebra
        self.comps = tuple(sorted(comps))
        self.e = e
        self.cols = [(ci, tup) for ci, comp in enumerate(self.comps)
                     for tup in product(*(range(algebra.dims[d]) for d in comp))]
        self.col_of = {key: col for col, key in enumerate(self.cols)}
        members: dict[tuple, list] = {}
        for col, (ci, tup) in enumerate(self.cols):
            content = tuple(sorted(zip(self.comps[ci], tup)))
            members.setdefault(content, []).append(col)
        shapes = [(cols, *_shape_quotient(algebra.field, _shape(content)))
                  for content, cols in members.items()]
        self.std = sorted(cols[j] for cols, basis, _ in shapes for j in basis)
        std_pos = {col: t for t, col in enumerate(self.std)}
        # per column the shared residue of its word in the shape, and where
        # its content's basis words sit in std
        self._residue = [None] * len(self.cols)
        self._where = [None] * len(self.cols)
        for cols, basis, residues in shapes:
            where = [std_pos[cols[j]] for j in basis]
            for col, residue in zip(cols, residues):
                self._residue[col] = residue
                self._where[col] = where

    @property
    def dim(self) -> int:
        return len(self.std)

    def reduce_col(self, ci: int, tup: tuple) -> dict:
        """Standard-tuple expansion of the elementary tuple (ci, tup)."""
        col = self.col_of[(ci, tup)]
        where = self._where[col]
        return {where[j]: v for j, v in self._residue[col].items()}


class HarrisonWeightSpace:
    """The weight-n Harrison cochain space in compressed coordinates.

    Coordinates run over (block, standard tuple, module basis index); the
    dimension is the sum over blocks of dim(shuffle quotient) * dim(M_e).
    With internal_degree set, only components with e = sum(degrees) +
    internal_degree are kept (degree-0 slice: e = sum of argument degrees).
    """

    def __init__(self, algebra: FiniteGradedAlgebra, module: AlgebraModule,
                 n: int, internal_degree=None):
        if n < 1:
            raise BudgetError("Harrison weight must be >= 1")
        self.algebra = algebra
        self.module = module
        self.n = n
        self.internal_degree = internal_degree
        keys = combinations_with_replacement(algebra.degrees, n)
        self.blocks = []
        self._block_of_comp = {}
        for key in keys:
            total = sum(key)
            for e in module.degrees:
                if internal_degree is not None and e - total != internal_degree:
                    continue
                if module.dim(e) == 0:
                    continue
                blk = ShuffleBlock(algebra, tuple(_orderings(key)), e)
                if blk.dim == 0:
                    continue
                idx = len(self.blocks)
                self.blocks.append(blk)
                for ci, comp in enumerate(blk.comps):
                    self._block_of_comp[(comp, e)] = (idx, ci)
        self.offsets = []
        off = 0
        for blk in self.blocks:
            self.offsets.append(off)
            off += blk.dim * module.dim(blk.e)
        self.dim = off

    def locate(self, comp: tuple, e: int):
        """(block index, composition index), or None when that slot is zero."""
        return self._block_of_comp.get((tuple(comp), e))

    def coord(self, block_idx: int, pos: int, m_idx: int) -> int:
        blk = self.blocks[block_idx]
        return self.offsets[block_idx] + pos * self.module.dim(blk.e) + m_idx


class HarrisonComplex:
    """Weights 1..n_max of Harr(A, M), with compressed differentials."""

    def __init__(self, algebra: FiniteGradedAlgebra, module: AlgebraModule,
                 n_max: int, internal_degree=None):
        self.algebra = algebra
        self.module = module
        self.n_max = n_max
        self.internal_degree = internal_degree
        self._spaces: dict[int, HarrisonWeightSpace] = {}
        self._diffs: dict[int, Matrix] = {}

    def space(self, n: int) -> HarrisonWeightSpace:
        if n > self.n_max + 1:
            raise BudgetError(
                f"weight budget exceeded: weight {n} > {self.n_max + 1}")
        if n not in self._spaces:
            self._spaces[n] = HarrisonWeightSpace(
                self.algebra, self.module, n, self.internal_degree)
        return self._spaces[n]

    def diff(self, n: int) -> Matrix:
        """delta: weight n -> weight n+1, in compressed coordinates."""
        if n not in self._diffs:
            self._diffs[n] = self._build_diff(n)
        return self._diffs[n]

    def cochain_complex(self) -> CochainComplex:
        """Weights 1..n_max as a cochain complex: degree w-1 holds weight w.

        There is no differential out of the top term, so H^{w-1} is
        Harrison H^w for w < n_max.  H^0 is Der(A, M).
        """
        terms = {(w - 1, 0): self.space(w).dim
                 for w in range(1, self.n_max + 1)}
        diffs = {(w - 1, 0): self.diff(w) for w in range(1, self.n_max)}
        return CochainComplex(terms, diffs, self.algebra.field)

    def _build_diff(self, n: int) -> Matrix:
        A, M = self.algebra, self.module
        F = A.field
        src = self.space(n)
        dst = self.space(n + 1)
        entries = {}  # raw sums; the Matrix reduces them and drops the zeros
        for b_idx, blk in enumerate(dst.blocks):
            e_out = blk.e
            dim_m_out = M.dim(e_out)
            for pos, col in enumerate(blk.std):
                ci, tup = blk.cols[col]
                comp = blk.comps[ci]
                row_base = dst.offsets[b_idx] + pos * dim_m_out
                # -u_1 . f(u_2 .. u_{n+1})
                self._action_term(src, comp[1:], tup[1:], comp[0], tup[0],
                                  e_out, row_base, -1, entries)
                # sum_i (-1)^{i+1} f(..., u_i u_{i+1}, ...)
                for i in range(n):
                    prod = A.mult_column(comp[i], tup[i], comp[i + 1], tup[i + 1])
                    if not prod:
                        continue
                    sign = -1 if i % 2 else 1
                    ncomp = comp[:i] + (comp[i] + comp[i + 1],) + comp[i + 2:]
                    loc = src.locate(ncomp, e_out)
                    if loc is None:
                        continue
                    sb_idx, sci = loc
                    sblk = src.blocks[sb_idx]
                    for bidx, bv in prod.items():
                        ntup = tup[:i] + (bidx,) + tup[i + 2:]
                        red = sblk.reduce_col(sci, ntup)
                        coeff = sign * bv
                        for t, rv in red.items():
                            cval = coeff * rv
                            base = src.offsets[sb_idx] + t * dim_m_out
                            for m in range(dim_m_out):
                                key = (row_base + m, base + m)
                                entries[key] = entries.get(key, 0) + cval
                # (-1)^n u_{n+1} . f(u_1 .. u_n)
                self._action_term(src, comp[:-1], tup[:-1], comp[-1], tup[-1],
                                  e_out, row_base, -1 if n % 2 else 1, entries)
        return Matrix(dst.dim, src.dim, entries, F)

    def _action_term(self, src, comp_rest, tup_rest, d_act, u_act,
                     e_out, row_base, sign, entries):
        """Add sign * (u_act . f(rest)) to one output row block of ``entries``."""
        M = self.module
        e_in = e_out - d_act
        loc = src.locate(tuple(comp_rest), e_in)
        if loc is None:
            return
        sb_idx, sci = loc
        sblk = src.blocks[sb_idx]
        dim_m_in = M.dim(e_in)
        red = sblk.reduce_col(sci, tuple(tup_rest))
        if not red:
            return
        for m_in in range(dim_m_in):
            act = M.act_column(d_act, u_act, e_in, m_in)
            if not act:
                continue
            for t, rv in red.items():
                colix = src.offsets[sb_idx] + t * dim_m_in + m_in
                sv = sign * rv
                for m_out, av in act.items():
                    key = (row_base + m_out, colix)
                    entries[key] = entries.get(key, 0) + sv * av

    def delta_full_values(self, n: int, coords: dict) -> dict:
        """The coboundary of a weight-n cochain, evaluated at every full
        weight-(n+1) tuple (no shuffle reduction on the output side).

        Returns {(comp, tuple, m): value}.  Used by the stability check.
        """
        A, M = self.algebra, self.module
        F = A.field
        src = self.space(n)

        def f_value(comp, tup, e):
            loc = src.locate(comp, e)
            if loc is None:
                return {}
            sb_idx, sci = loc
            sblk = src.blocks[sb_idx]
            red = sblk.reduce_col(sci, tup)
            dim_m = M.dim(e)
            out = {}
            for t, rv in red.items():
                for m in range(dim_m):
                    v = coords.get(src.offsets[sb_idx] + t * dim_m + m)
                    if v is None:
                        continue
                    out[m] = out.get(m, 0) + rv * v
            return reduced(F, out)

        values = {}
        for comp in product(A.degrees, repeat=n + 1):
            total = sum(comp)
            for e_out in M.degrees:
                if (self.internal_degree is not None
                        and e_out - total != self.internal_degree):
                    continue
                ranges = [range(A.dims[d]) for d in comp]
                for tup in product(*ranges):
                    acc: dict[int, object] = {}

                    def add(m, v):
                        acc[m] = acc.get(m, 0) + v

                    fv = f_value(comp[1:], tup[1:], e_out - comp[0])
                    for m_in, v in fv.items():
                        for m_out, av in M.act_column(
                                comp[0], tup[0], e_out - comp[0], m_in).items():
                            add(m_out, -v * av)
                    for i in range(n):
                        prod = A.mult_column(comp[i], tup[i],
                                             comp[i + 1], tup[i + 1])
                        sign = -1 if i % 2 else 1
                        ncomp = comp[:i] + (comp[i] + comp[i + 1],) + comp[i + 2:]
                        for bidx, bv in prod.items():
                            ntup = tup[:i] + (bidx,) + tup[i + 2:]
                            for m, v in f_value(ncomp, ntup, e_out).items():
                                add(m, sign * bv * v)
                    sign_last = -1 if n % 2 else 1
                    fv = f_value(comp[:-1], tup[:-1], e_out - comp[-1])
                    for m_in, v in fv.items():
                        for m_out, av in M.act_column(
                                comp[-1], tup[-1], e_out - comp[-1], m_in).items():
                            add(m_out, sign_last * v * av)
                    for m, v in reduced(F, acc).items():
                        values[(comp, tup, e_out, m)] = v
        return values

    def check_shuffle_stability(self, n: int):
        """Exact check that coboundaries of all weight-n Harrison basis
        cochains vanish on every weight-(n+1) signed shuffle sum.

        Quadratic in the full tuple spaces; meant for the small algebras of
        the test battery, where it runs for every weight.
        """
        A, M = self.algebra, self.module
        F = A.field
        src = self.space(n)
        for j in range(src.dim):
            g = self.delta_full_values(n, {j: F.one})
            for comp in product(A.degrees, repeat=n + 1):
                total = sum(comp)
                for e_out in M.degrees:
                    if (self.internal_degree is not None
                            and e_out - total != self.internal_degree):
                        continue
                    ranges = [range(A.dims[d]) for d in comp]
                    for tup in product(*ranges):
                        for p in range(1, n + 1):
                            acc: dict[int, object] = {}
                            for perm, sign in _shuffles(p, n + 1):
                                ncomp = tuple(comp[k] for k in perm)
                                ntup = tuple(tup[k] for k in perm)
                                for m in range(M.dim(e_out)):
                                    v = g.get((ncomp, ntup, e_out, m))
                                    if v is None:
                                        continue
                                    acc[m] = acc.get(m, 0) + sign * v
                            if reduced(F, acc):
                                raise InternalCheckError(
                                    "Hochschild coboundary left the "
                                    "shuffle-vanishing subspace")
        return True


def harrison_cohomology(algebra, module, n, internal_degree=None,
                        representatives=False):
    """Exact dim of H^n Harr(A, M), or (dim, representatives as the columns
    of a Matrix); see CochainComplex.cohomology."""
    cx = HarrisonComplex(algebra, module, n + 1, internal_degree).cochain_complex()
    return cx.cohomology(n - 1, representatives=representatives)


def module_via_homomorphism(algebra_a, algebra_b, components: dict) -> AlgebraModule:
    """B as an A-module through f: A -> B; f given by per-degree matrices.

    Raises NotAHomomorphismError with the first failing basis pair when f
    is not multiplicative.
    """
    for i in algebra_a.degrees:
        for j in algebra_a.degrees:
            if i + j not in algebra_a.dims:
                continue
            fi, fj = components.get(i), components.get(j)
            fij = components.get(i + j)
            for a in range(algebra_a.dims[i]):
                fa = fi.col(a) if fi is not None else {}
                for b in range(algebra_a.dims[j]):
                    fb = fj.col(b) if fj is not None else {}
                    lhs = algebra_b.multiply(i, fa, j, fb)
                    prod = algebra_a.mult_column(i, a, j, b)
                    rhs = fij.times_vec(prod) if fij is not None else {}
                    if lhs != rhs:
                        raise NotAHomomorphismError(
                            f"not a homomorphism at degrees {(i, j)}, "
                            f"basis pair ({a}, {b})", witness=(i, a, j, b))
    return AlgebraModule.through(algebra_a, algebra_b, components)
