"""Bigraded cochain complexes of exact matrices.

Terms are indexed by (cohomological degree, internal degree); differentials
raise the cohomological degree by one and preserve the internal degree.
Every constructor verifies d∘d = 0 exactly -- this is the global assertion
hook that polices sign conventions across the whole engine.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .fields import QQ
from .linalg import Echelon, Matrix


class CochainComplex:
    """terms: {(i, j): dim}; diffs: {(i, j): Matrix term(i,j) -> term(i+1,j)}."""

    def __init__(self, terms: dict, diffs: dict, field=QQ, check=True):
        self.field = field
        self.terms = {k: int(d) for k, d in terms.items() if d}
        self.diffs = {}
        for (i, j), m in diffs.items():
            if m is None or m.is_zero():
                continue
            self.diffs[(i, j)] = m
        self._ranks: dict = {}
        if check:
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
                raise InternalCheckError(f"d∘d != 0 at {(i, j)}")

    def rank(self, i, j=0) -> int:
        """Rank of the differential at (i, j); each is ranked at most once."""
        m = self.diffs.get((i, j))
        if m is None:
            return 0
        if (i, j) not in self._ranks:
            self._ranks[(i, j)] = m.rank()
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


@dataclass
class ChainMap:
    """A map of cochain complexes; components: {(i, j): Matrix src -> tgt}."""

    source: CochainComplex
    target: CochainComplex
    components: dict
    check: bool = True

    def __post_init__(self):
        if self.check:
            self.verify()

    def component(self, i, j=0) -> Matrix:
        m = self.components.get((i, j))
        if m is not None:
            return m
        return Matrix.zeros(self.target.dim(i, j), self.source.dim(i, j),
                            self.source.field)

    def verify(self):
        keys = set(self.source.terms) | set(self.target.terms)
        for (i, j) in keys:
            f_i = self.component(i, j)
            if f_i.ncols != self.source.dim(i, j) or f_i.nrows != self.target.dim(i, j):
                raise InternalCheckError(f"chain map component at {(i, j)} has bad shape")
            lhs = self.target.diff(i, j).mul(f_i)
            rhs = self.component(i + 1, j).mul(self.source.diff(i, j))
            if not lhs.sub(rhs).is_zero():
                raise InternalCheckError(f"not a chain map at {(i, j)}")


def mapping_fiber(f: ChainMap) -> CochainComplex:
    """The shifted cone F with F^i = S^i ⊕ T^{i-1}, d(s,t) = (d_S s, f(s) - d_T t).

    Sign convention fixed so that the long exact sequence reads
    ... -> H^i(F) -> H^i(S) -> H^i(T) -> H^{i+1}(F) -> ...; for f = 0 this
    gives H^i(F) = H^i(S) ⊕ H^{i-1}(T).
    """
    S, T = f.source, f.target
    field = S.field
    keys = set(S.terms) | {(i + 1, j) for (i, j) in T.terms}
    terms = {}
    for (i, j) in keys:
        d = S.dim(i, j) + T.dim(i - 1, j)
        if d:
            terms[(i, j)] = d
    diffs = {}
    for (i, j) in terms:
        ns, nt = S.dim(i, j), T.dim(i - 1, j)
        rs, rt = S.dim(i + 1, j), T.dim(i, j)
        if rs + rt == 0 or ns + nt == 0:
            continue
        ent = {}
        for (a, b), v in S.diff(i, j).entries.items():
            ent[(a, b)] = v
        for (a, b), v in f.component(i, j).entries.items():
            ent[(rs + a, b)] = v
        neg = field.neg
        for (a, b), v in T.diff(i - 1, j).entries.items():
            ent[(rs + a, ns + b)] = neg(v)
        diffs[(i, j)] = Matrix(rs + rt, ns + nt, ent, field)
    return CochainComplex(terms, diffs, field)
