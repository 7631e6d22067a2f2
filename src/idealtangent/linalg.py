"""Exact sparse linear algebra over QQ and prime fields.

Vectors are dicts {index: scalar} with no explicit zeros, and every scalar
a ``Matrix`` or a returned vector holds is canonical: a Fraction over QQ,
an int in [1, p) over GF(p).  Products and sums are formed with the Python
operators on raw values and reduced once, by ``field.coerce``, where the
matrix or vector is produced (``Matrix.__init__`` and ``fields.reduced``).

``Echelon`` keeps integer rows: over QQ primitive vectors (denominators
cleared, content divided out, leading entry positive), over GF(p) residues
with monic pivot rows.  One row update, ``_combine``, does every elimination in
both fields by fraction-free cross-multiplication, reduced mod p over GF(p).
Pivoting is deterministic: columns are processed left to right and within a
column the first candidate row wins, so all reported bases are reproducible.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .errors import InternalCheckError
from .fields import QQ, reduced


def _primitive(ints: dict, p: int = 0) -> dict:
    """Over QQ (``p == 0``) divide an integer row by its content, leading
    entry positive; rows over GF(p) are returned as they are."""
    if p or not ints:
        return ints
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[min(ints)] < 0:
        g = -g
    if g == 1:
        return ints
    return {k: v // g for k, v in ints.items()}


def _clear_denominators(row: dict) -> tuple[dict[int, int], int]:
    """Return ``(ints, den)`` with ``row == ints / den`` and ``ints`` integral."""
    den = 1
    for v in row.values():
        d = v.denominator  # ints carry denominator 1
        if d != 1:
            den = den // gcd(den, d) * d
    ints = {}
    for k, v in row.items():
        iv = int(v * den)
        if iv:
            ints[k] = iv
    return ints, den


def _combine(work: dict, piv: dict, c: int, p: int) -> tuple[dict, int, int]:
    """Clear column ``c`` of ``work`` against the pivot row ``piv``.

    Returns ``(fa*work - fb*piv, fa, fb)``, where ``fa`` and ``fb`` are the
    two entries at ``c`` divided by their gcd, swapped.  With ``p`` set the
    result is taken mod p; pivot rows are monic there, so ``fa`` is 1.
    """
    a, b = work[c], piv[c]
    if p:
        fa, fb = 1, a
    else:
        g = gcd(a, b)
        fa, fb = b // g, a // g
    nxt = dict(work) if p else {k: fa * v for k, v in work.items()}
    for k, v in piv.items():
        nv = nxt.get(k, 0) - fb * v
        if p:
            nv %= p
        if nv:
            nxt[k] = nv
        else:
            del nxt[k]
    return nxt, fa, fb


class Echelon:
    """Incremental row-echelon accumulator over QQ (``p == 0``) or GF(p).

    Rows are inserted one at a time; ``pivot_rows`` maps a pivot column to
    the integer row leading there: primitive with a positive leading entry
    over QQ, monic over GF(p).  Entries are coerced once, when a row or
    vector comes in; every elimination after that is a ``_combine``.
    Supports rank queries, reduction of vectors modulo the row space, and
    full back-substitution to RREF.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.p = field.p
        self.pivot_rows: dict[int, dict] = {}
        self._reduced = False

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)

    def _int_row(self, row: dict) -> tuple[dict, int]:
        """``(ints, den)`` with ``row == ints / den``; ``den`` is 1 over GF(p)."""
        if not self.p:
            return _clear_denominators(row)
        return reduced(self.field, row), 1

    def insert(self, row: dict):
        """Insert a row; return its pivot column, or None if dependent."""
        p = self.p
        work = _primitive(self._int_row(row)[0], p)
        while work:
            c = min(work)
            piv = self.pivot_rows.get(c)
            if piv is None:
                if p:
                    inv = pow(work[c], p - 2, p)
                    work = {k: v * inv % p for k, v in work.items()}
                self.pivot_rows[c] = work
                self._reduced = False
                return c
            work = _primitive(_combine(work, piv, c, p)[0], p)
        return None

    def full_reduce(self):
        """Back-substitute so that pivot rows vanish at all other pivots.

        Processed bottom-up; a row needs elimination only at the pivot
        columns actually present in its own support, and those rows are
        already fully reduced, so one pass per hit suffices.
        """
        if self._reduced:
            return
        p = self.p
        for c in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[c]
            hits = sorted(k for k in row if k != c and k in self.pivot_rows)
            for c2 in hits:
                if c2 not in row:
                    continue
                row = _primitive(_combine(row, self.pivot_rows[c2], c2, p)[0], p)
            self.pivot_rows[c] = row
        self._reduced = True

    def reduce(self, vec: dict):
        """Reduce ``vec`` modulo the row space.

        Returns ``(residue, coords)`` where ``vec = residue + sum
        coords[c] * pivot_row[c]`` and the residue has no support on pivot
        columns.  Exact field scalars (Fractions over QQ): over QQ the work
        is one integer row plus a running denominator.
        """
        p = self.p
        work, den = self._int_row(vec)
        coords = {}
        while hits := [c for c in work if c in self.pivot_rows]:
            c = min(hits)
            work, fa, fb = _combine(work, self.pivot_rows[c], c, p)
            coords[c] = fb if p else Fraction(fb, fa * den)
            if fa != 1:  # over QQ only; keep work / den in lowest terms
                den *= fa
                g = gcd(den, *work.values())
                if g != 1:
                    den //= g
                    work = {k: v // g for k, v in work.items()}
        if p:
            return work, coords
        # entries of 1 reuse QQ.one, so tables of unit-vector residues hold no copies
        return {k: QQ.one if v == den else Fraction(v, den)
                for k, v in work.items()}, coords

    def contains(self, vec: dict) -> bool:
        residue, _ = self.reduce(vec)
        return not residue


class Quotient:
    """F^n modulo the row space of an ``Echelon``; the one place a quotient
    basis is chosen.

    ``basis`` is the non-pivot coordinates in increasing order and
    ``project`` renumbers the ``Echelon.reduce`` residue into it.  The row
    space alone fixes the pivot set and every residue, so neither depends on
    the order the rows came in or on back-substitution.
    """

    def __init__(self, ech: Echelon, n: int):
        self.ech = ech
        self.basis = [c for c in range(n) if c not in ech.pivot_rows]
        self._position = {c: k for k, c in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project(self, vec: dict) -> dict:
        """Coordinates of ``vec`` modulo the row space, in ``basis``."""
        residue, _ = self.ech.reduce(vec)
        position = self._position
        return {position[c]: v for c, v in residue.items()}


_column = itemgetter(1)


class Matrix:
    """A sparse exact matrix; entries is {(i, j): scalar}, set once in __init__."""

    __slots__ = ("nrows", "ncols", "entries", "field", "_col_keys")

    def __init__(self, nrows: int, ncols: int, entries: dict, field=QQ):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        coerce = field.coerce
        ent = {}
        for (i, j), v in entries.items():
            cv = coerce(v)
            if cv:
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry {(i, j)} outside {nrows}x{ncols}")
                ent[(i, j)] = cv
        self.entries = ent
        self._col_keys = None

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
        """A copy of column ``j``, found by bisection in the keys, which are
        sorted by column on first use (stably, so rows keep their order)."""
        if self._col_keys is None:
            self._col_keys = sorted(self.entries, key=_column)
        keys, ent = self._col_keys, self.entries
        lo = bisect_left(keys, j, key=_column)
        hi = bisect_right(keys, j, lo, key=_column)
        return {k[0]: ent[k] for k in keys[lo:hi]}

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

    def scale(self, c) -> "Matrix":
        return Matrix(self.nrows, self.ncols,
                      {k: c * v for k, v in self.entries.items()}, self.field)

    def mul(self, other) -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        by_row: dict[int, dict[int, object]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, {})[k] = v
        o_by_row: dict[int, dict[int, object]] = {}
        for (k, j), v in other.entries.items():
            o_by_row.setdefault(k, {})[j] = v
        F = self.field
        ent = {}
        for i, row in by_row.items():
            acc: dict[int, object] = {}
            for k, a in row.items():
                orow = o_by_row.get(k)
                if not orow:
                    continue
                for j, b in orow.items():
                    acc[j] = acc.get(j, 0) + a * b
            # reduced row by row, so a vanishing product (every d∘d check)
            # never holds its zero sums all at once
            for j, v in reduced(F, acc).items():
                ent[(i, j)] = v
        return Matrix(self.nrows, other.ncols, ent, F)

    def times_vec(self, vec: dict) -> dict:
        out: dict[int, object] = {}
        for (i, j), v in self.entries.items():
            x = vec.get(j)
            if x is not None:
                out[i] = out.get(i, 0) + v * x
        return reduced(self.field, out)

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
        p = ech.p
        pivots = ech.pivots
        free = [j for j in range(self.ncols) if j not in ech.pivot_rows]
        cols = []
        for f in free:
            col = {f: 1}
            for c in pivots:
                row = ech.pivot_rows[c]
                if f in row:
                    # pivot rows are monic over GF(p)
                    col[c] = -row[f] if p else Fraction(-row[f], row[c])
            if not p:
                col = _primitive(_clear_denominators(col)[0])
            cols.append(col)
        return Matrix.from_cols(cols, self.ncols, self.field)


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
