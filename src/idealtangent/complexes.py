"""Bigraded cochain complexes of exact matrices.

Terms are indexed by (cohomological degree, internal degree); differentials
raise the cohomological degree by one and preserve the internal degree.
Every constructor verifies d∘d = 0 exactly -- this is the global assertion
hook that polices sign conventions across the whole engine.

A chain map f: S -> T is verified by the d∘d check of its mapping fiber and
nowhere else.  The fiber's d∘d has the blocks d_S∘d_S, f∘d_S - d_T∘f and
d_T∘d_T; S and T are complexes, checked when they were built, so the
fiber's d∘d vanishes exactly when f commutes with the differentials.

Ranks are cleared, as in persistent homology (Chen-Kerber, "Persistent
homology computation with a twist", 2011; Bauer, "Ripser", 2021).
``Matrix.rank`` of d^{i-1} records a set R of its rows, coordinates of
term i, on which im d^{i-1} projects isomorphically.  So for each r in R
some v in im d^{i-1} equals e_r plus a vector supported off R, and since
d^i kills im d^{i-1} (d∘d = 0, checked when the complex is built, with no
way to turn the check off), the column r of d^i is a combination of the
columns outside R.  Hence rank d^i is the rank of d^i without the columns
R, and d^i's dependent columns are mostly gone before elimination starts.
Only ranks are cleared: cohomology representatives pivot canonically on
the full differentials.
"""
from __future__ import annotations

from .errors import InternalCheckError
from .fields import QQ
from .linalg import Echelon, Matrix


class CochainComplex:
    """terms: {(i, j): dim}; diffs: {(i, j): Matrix term(i,j) -> term(i+1,j)}."""

    def __init__(self, terms: dict, diffs: dict, field=QQ):
        self.field = field
        self.terms = {k: int(d) for k, d in terms.items() if d}
        self.diffs = {}
        for (i, j), m in diffs.items():
            if m is None or m.is_zero():
                continue
            self.diffs[(i, j)] = m
        self._ranks: dict = {}
        self._cleared: dict = {}   # (i, j) -> R of d^i, until d^{i+1} is ranked
        self._check()

    def dim(self, i, j=0) -> int:
        return self.terms.get((i, j), 0)

    def diff(self, i, j=0) -> Matrix:
        m = self.diffs.get((i, j))
        if m is not None:
            return m
        return Matrix.zeros(self.dim(i + 1, j), self.dim(i, j), self.field)

    def _check(self):
        for (i, j), m in self.diffs.items():
            if m.ncols != self.dim(i, j) or m.nrows != self.dim(i + 1, j):
                raise InternalCheckError(
                    f"differential at {(i, j)} has shape {m.nrows}x{m.ncols}, "
                    f"terms are {self.dim(i + 1, j)} and {self.dim(i, j)}")
        for (i, j), m in self.diffs.items():
            nxt = self.diffs.get((i + 1, j))
            if nxt is not None and not nxt.mul(m).is_zero():
                raise InternalCheckError(f"d∘d != 0 at {(i, j)}", (i, j))

    def rank(self, i, j=0) -> int:
        """Rank of the differential at (i, j); each is ranked at most once.

        Cleared (module docstring): d^{i-1} is ranked first, and d^i is
        handed to ``Matrix.rank`` without the columns R that ranking
        recorded as d^{i-1}'s ``basis_rows``.
        """
        m = self.diffs.get((i, j))
        if m is None:
            return 0
        if (i, j) not in self._ranks:
            if (i - 1, j) in self.diffs:
                self.rank(i - 1, j)
                m = m.without_cols(self._cleared.pop((i - 1, j)))
            self._ranks[(i, j)] = m.rank()
            self._cleared[(i, j)] = m.basis_rows
        return self._ranks[(i, j)]

    def cohomology(self, i, j=0, representatives=False):
        """dim H^i at internal degree j, optionally with representatives.

        Representatives are cocycles independent modulo coboundaries, as
        columns of a Matrix.
        """
        if not representatives:
            return self.dim(i, j) - self.rank(i, j) - self.rank(i - 1, j)
        ech = Echelon(self.field)
        for col in self.diff(i - 1, j).cols():
            ech.insert(col)
        reps = [col for col in self.diff(i, j).kernel_basis().cols()
                if ech.insert(col) is not None]
        return len(reps), Matrix.from_cols(reps, self.dim(i, j), self.field)

    def euler_characteristic(self, j=0) -> int:
        return sum((-1) ** i * d for (i, jj), d in self.terms.items() if jj == j)


class ChainMap:
    """A map of cochain complexes; components: {(i, j): Matrix src -> tgt}.

    Absent components are zero.  Building a ChainMap builds its mapping
    fiber, kept as ``fiber``, and that fiber's d∘d check is the chain-map
    check: its block S^i -> T^{i+1} is f_{i+1}∘d_S - d_T∘f_i, and its other
    two blocks are d∘d of the source and of the target, which are zero.
    """

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 components: dict):
        self.source = source
        self.target = target
        self.components = components
        self.verify()

    def verify(self):
        S, T = self.source, self.target
        for (i, j), m in self.components.items():
            if m.ncols != S.dim(i, j) or m.nrows != T.dim(i, j):
                raise InternalCheckError(f"chain map component at {(i, j)} has bad shape")
        try:
            self.fiber = mapping_fiber(self)
        except InternalCheckError as err:
            # fiber index i is chain-map index i
            raise InternalCheckError(
                f"not a chain map: f∘d_S != d_T∘f at {err.index}",
                err.index) from err


def mapping_fiber(f: ChainMap) -> CochainComplex:
    """The shifted cone F with F^i = S^i ⊕ T^{i-1}, d(s,t) = (d_S s, f(s) - d_T t).

    Sign convention fixed so that the long exact sequence reads
    ... -> H^i(F) -> H^i(S) -> H^i(T) -> H^{i+1}(F) -> ...; for f = 0 this
    gives H^i(F) = H^i(S) ⊕ H^{i-1}(T).
    """
    S, T = f.source, f.target
    field = S.field
    terms = {(i, j): S.dim(i, j) + T.dim(i - 1, j)
             for (i, j) in set(S.terms) | {(i + 1, j) for (i, j) in T.terms}}
    diffs = {}
    for (i, j) in terms:
        d_s = S.diffs.get((i, j))
        f_i = f.components.get((i, j))
        d_t = T.diffs.get((i - 1, j))
        if d_s is None and f_i is None and d_t is None:
            continue
        ns, nt = S.dim(i, j), T.dim(i, j)
        top = d_s.rows if d_s is not None else [{}] * S.dim(i + 1, j)
        left = f_i.rows if f_i is not None else [{}] * nt
        right = d_t.rows if d_t is not None else [{}] * nt
        # rows of (d_S, 0) over rows of (f_i, -d_T); from_rows reduces -v
        rows = top + [{**a, **{ns + b: -v for b, v in c.items()}}
                      for a, c in zip(left, right)]
        diffs[(i, j)] = Matrix.from_rows(rows, ns + T.dim(i - 1, j), field)
    return CochainComplex(terms, diffs, field)
