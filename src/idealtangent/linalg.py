"""Exact sparse linear algebra over QQ and prime fields.

Vectors are dicts {index: scalar} with no explicit zeros.  Over the
rationals, echelon rows are kept as primitive integer vectors (denominators
cleared, content divided out, leading entry positive) and updated by
fraction-free cross-multiplication, which keeps entry growth in check; over
GF(p) entries are residues.  Pivoting is deterministic: columns are
processed left to right and within a column the first candidate row wins,
so all reported bases are reproducible.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InternalCheckError
from .fields import QQ, RationalField


def _strip_content(ints: dict) -> dict:
    """Divide an integer row by its content; leading entry positive."""
    if not ints:
        return {}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[min(ints)] < 0:
        g = -g
    if g == 1:
        return ints
    return {k: v // g for k, v in ints.items()}


def _normalize_int_row(row: dict) -> dict[int, int]:
    """Clear denominators, strip content, make the leading entry positive."""
    if not row:
        return {}
    lcm = 1
    for v in row.values():
        d = v.denominator  # ints carry denominator 1
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    ints = {}
    for k, v in row.items():
        iv = int(v * lcm)
        if iv:
            ints[k] = iv
    return _strip_content(ints)


class Echelon:
    """Incremental row-echelon accumulator.

    Rows are inserted one at a time; ``pivot_rows`` maps a pivot column to
    the (normalized) row leading there.  Supports rank queries, reduction of
    vectors modulo the row space, and full back-substitution to RREF.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.rational = isinstance(field, RationalField)
        self.pivot_rows: dict[int, dict] = {}
        self._reduced = False

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)

    def insert(self, row: dict):
        """Insert a row; return its pivot column, or None if dependent."""
        if self.rational:
            work = _normalize_int_row(row)
            while work:
                c = min(work)
                piv = self.pivot_rows.get(c)
                if piv is None:
                    self.pivot_rows[c] = work
                    self._reduced = False
                    return c
                a, b = work[c], piv[c]
                g = gcd(a, b)
                fa, fb = b // g, a // g
                nxt = {}
                for k, v in work.items():
                    nxt[k] = fa * v
                for k, v in piv.items():
                    nv = nxt.get(k, 0) - fb * v
                    if nv:
                        nxt[k] = nv
                    elif k in nxt:
                        del nxt[k]
                work = _strip_content(nxt)  # entries already integral
            return None
        F = self.field
        work = {k: F.coerce(v) for k, v in row.items() if not F.is_zero(F.coerce(v))}
        while work:
            c = min(work)
            piv = self.pivot_rows.get(c)
            if piv is None:
                inv = F.div(F.one, work[c])
                self.pivot_rows[c] = {k: F.mul(v, inv) for k, v in work.items()}
                self._reduced = False
                return c
            coeff = work[c]
            nxt = dict(work)
            for k, v in piv.items():
                nv = F.sub(nxt.get(k, F.zero), F.mul(coeff, v))
                if F.is_zero(nv):
                    nxt.pop(k, None)
                else:
                    nxt[k] = nv
            work = nxt
        return None

    def full_reduce(self):
        """Back-substitute so that pivot rows vanish at all other pivots.

        Processed bottom-up; a row needs elimination only at the pivot
        columns actually present in its own support, and those rows are
        already fully reduced, so one pass per hit suffices.
        """
        if self._reduced:
            return
        F = self.field
        for c in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[c]
            hits = sorted(k for k in row if k != c and k in self.pivot_rows)
            for c2 in hits:
                if c2 not in row:
                    continue
                other = self.pivot_rows[c2]
                if self.rational:
                    a, b = row[c2], other[c2]
                    g = gcd(a, b)
                    fa, fb = b // g, a // g
                    nxt = {k: fa * v for k, v in row.items()}
                    for k, v in other.items():
                        nv = nxt.get(k, 0) - fb * v
                        if nv:
                            nxt[k] = nv
                        elif k in nxt:
                            del nxt[k]
                    row = _strip_content(nxt)
                else:
                    coeff = row[c2]
                    nxt = dict(row)
                    for k, v in other.items():
                        nv = F.sub(nxt.get(k, F.zero), F.mul(coeff, v))
                        if F.is_zero(nv):
                            nxt.pop(k, None)
                        else:
                            nxt[k] = nv
                    row = nxt
            self.pivot_rows[c] = row
        self._reduced = True

    def reduce(self, vec: dict):
        """Reduce ``vec`` modulo the row space.

        Returns ``(residue, coords)`` where ``vec = residue + sum
        coords[c] * pivot_row[c]`` and the residue has no support on pivot
        columns.  Exact field arithmetic (Fractions over QQ).
        """
        F = self.field
        work = {k: F.coerce(v) for k, v in vec.items()}
        work = {k: v for k, v in work.items() if not F.is_zero(v)}
        coords = {}
        while True:
            hits = [c for c in work if c in self.pivot_rows]
            if not hits:
                return work, coords
            c = min(hits)
            row = self.pivot_rows[c]
            coeff = F.div(work[c], F.coerce(row[c]))
            coords[c] = F.add(coords.get(c, F.zero), coeff)
            for k, v in row.items():
                nv = F.sub(work.get(k, F.zero), F.mul(coeff, F.coerce(v)))
                if F.is_zero(nv):
                    work.pop(k, None)
                else:
                    work[k] = nv

    def contains(self, vec: dict) -> bool:
        residue, _ = self.reduce(vec)
        return not residue


class Matrix:
    """A sparse exact matrix; entries is {(i, j): scalar}."""

    __slots__ = ("nrows", "ncols", "entries", "field")

    def __init__(self, nrows: int, ncols: int, entries: dict, field=QQ):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        ent = {}
        for (i, j), v in entries.items():
            cv = field.coerce(v)
            if not field.is_zero(cv):
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry {(i, j)} outside {nrows}x{ncols}")
                ent[(i, j)] = cv
        self.entries = ent

    @classmethod
    def zeros(cls, nrows, ncols, field=QQ):
        return cls(nrows, ncols, {}, field)

    @classmethod
    def identity(cls, n, field=QQ):
        return cls(n, n, {(i, i): field.one for i in range(n)}, field)

    @classmethod
    def from_rows(cls, rows, ncols, field=QQ):
        ent = {}
        for i, row in enumerate(rows):
            for j, v in row.items():
                ent[(i, j)] = v
        return cls(len(rows), ncols, ent, field)

    @classmethod
    def from_cols(cls, cols, nrows, field=QQ):
        ent = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                ent[(i, j)] = v
        return cls(nrows, len(cols), ent, field)

    def rows(self) -> list[dict]:
        out = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def cols(self) -> list[dict]:
        out = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    def col(self, j) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def transpose(self) -> "Matrix":
        return Matrix(self.ncols, self.nrows,
                      {(j, i): v for (i, j), v in self.entries.items()},
                      self.field)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def add(self, other) -> "Matrix":
        F = self.field
        ent = dict(self.entries)
        for k, v in other.entries.items():
            nv = F.add(ent.get(k, F.zero), v)
            if F.is_zero(nv):
                ent.pop(k, None)
            else:
                ent[k] = nv
        return Matrix(self.nrows, self.ncols, ent, F)

    def scale(self, c) -> "Matrix":
        F = self.field
        c = F.coerce(c)
        return Matrix(self.nrows, self.ncols,
                      {k: F.mul(c, v) for k, v in self.entries.items()}, F)

    def sub(self, other) -> "Matrix":
        return self.add(other.scale(self.field.neg(self.field.one)))

    def mul(self, other) -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        F = self.field
        by_row: dict[int, dict[int, object]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, {})[k] = v
        o_by_row: dict[int, dict[int, object]] = {}
        for (k, j), v in other.entries.items():
            o_by_row.setdefault(k, {})[j] = v
        ent = {}
        for i, row in by_row.items():
            acc: dict[int, object] = {}
            for k, a in row.items():
                orow = o_by_row.get(k)
                if not orow:
                    continue
                for j, b in orow.items():
                    nv = F.add(acc.get(j, F.zero), F.mul(a, b))
                    acc[j] = nv
            for j, v in acc.items():
                if not F.is_zero(v):
                    ent[(i, j)] = v
        return Matrix(self.nrows, other.ncols, ent, F)

    def times_vec(self, vec: dict) -> dict:
        F = self.field
        out: dict[int, object] = {}
        for (i, j), v in self.entries.items():
            x = vec.get(j)
            if x is None:
                continue
            nv = F.add(out.get(i, F.zero), F.mul(v, F.coerce(x)))
            out[i] = nv
        return {i: v for i, v in out.items() if not F.is_zero(v)}

    def echelon(self) -> Echelon:
        ech = Echelon(self.field)
        for row in self.rows():
            if row:
                ech.insert(row)
        return ech

    def rank(self) -> int:
        # eliminate along the smaller dimension
        if self.nrows > self.ncols:
            return self.transpose().echelon().rank
        return self.echelon().rank

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def kernel_basis(self) -> "Matrix":
        """Columns span ker(self); empty matrix when the kernel is 0."""
        ech = self.echelon()
        ech.full_reduce()
        F = self.field
        pivots = ech.pivots
        free = [j for j in range(self.ncols) if j not in ech.pivot_rows]
        cols = []
        for f in free:
            col = {f: F.one}
            for c in pivots:
                row = ech.pivot_rows[c]
                if f in row:
                    col[c] = F.div(F.neg(F.coerce(row[f])), F.coerce(row[c]))
            if isinstance(F, RationalField):
                col = _normalize_int_row(col)
                col = {k: Fraction(v) for k, v in col.items()}
            cols.append(col)
        return Matrix.from_cols(cols, self.ncols, F)


def check_rank_consistency(m: Matrix):
    """Recompute the rank with the column order reversed; raise on mismatch."""
    r1 = m.rank()
    flipped = Matrix(m.nrows, m.ncols,
                     {(i, m.ncols - 1 - j): v for (i, j), v in m.entries.items()},
                     m.field)
    r2 = flipped.rank()
    if r1 != r2:
        raise InternalCheckError(f"rank mismatch under pivot reorder: {r1} vs {r2}")
    return r1
