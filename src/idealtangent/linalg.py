"""Exact sparse linear algebra over QQ and prime fields.

Vectors are dicts {index: scalar} with no explicit zeros, and every scalar
a ``Matrix`` or a returned vector holds is canonical: over QQ an int when
it is integral and otherwise a Fraction with denominator > 1, over GF(p) an
int in [1, p).  Products and sums are formed with the Python operators on
raw values and reduced once, by ``field.coerce``, where the matrix or
vector is produced (``Matrix.from_rows`` and ``fields.reduced``).

A ``Matrix`` is its list of row vectors, the layout ``Echelon`` eliminates
on, plus a column view built once.  Its one constructor takes rows that are
already canonical; ``from_rows`` and ``from_cols`` are the entries that
reduce raw values and check the column bounds, and every builder in the
package writes its rows and hands them to one of the three.  The COO view
``entries`` is read-only and built on first read, for readers outside the
package (``bench/tracing.py`` and the tests) until an in-package trace
replaces that tracer.

``Echelon`` keeps integer rows: over QQ primitive vectors (denominators
cleared, content divided out, leading entry positive), over GF(p) residues
with monic pivot rows.  One row update, ``_combine``, does every elimination in
both fields by fraction-free cross-multiplication, reduced mod p over GF(p).
Reported bases pivot canonically: ``echelon``, ``kernel_basis``, ``reduce``,
``Quotient`` and every cohomology representative insert rows as given and
pivot left to right, so they are reproducible.  Rank-only elimination,
``Matrix.rank``, feeds the same ``Echelon.insert`` along the smaller
dimension in a fill-reducing order instead: the other dimension's indices
relabelled by ascending nonzero count, the vectors inserted shortest first.
A rank does not depend on the order, and sparse pivots keep the fill low.
It also records ``basis_rows``, a set R of ``rank`` rows that span the row
space, read from the same elimination.  ``CochainComplex.rank`` clears with
it: the next differential is ranked without the columns R (``without_cols``),
which is exact because d∘d = 0 (see ``complexes``).  Clearing changes only
which matrix ``Matrix.rank`` is handed; ``echelon``, ``kernel_basis``,
``Quotient`` and cohomology representatives keep canonical pivoting.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import QQ, reduced


def _primitive(ints: dict, p: int = 0) -> dict:
    """Over QQ (``p == 0``) divide an integer row by its content, leading
    entry positive; rows over GF(p) are returned as they are."""
    if p or not ints:
        return ints
    g = 0
    for v in ints.values():
        g = gcd(g, v)
        if g == 1:
            break
    if ints[min(ints)] < 0:
        g = -g
    if g == 1:
        return ints
    return {k: v // g for k, v in ints.items()}


def _clear_denominators(row: dict) -> tuple[dict[int, int], int]:
    """Return ``(ints, den)`` with ``row == ints / den``, ``ints`` a new dict
    of nonzero ints."""
    den = 1
    for v in row.values():
        d = v.denominator  # ints carry denominator 1
        if d != 1:
            den = den // gcd(den, d) * d
    if den == 1:
        return {k: v.numerator for k, v in row.items() if v}, 1
    ints = {}
    for k, v in row.items():
        iv = int(v * den)
        if iv:
            ints[k] = iv
    return ints, den


def _combine(work: dict, piv: dict, c: int, p: int) -> tuple[dict, int]:
    """Clear column ``c`` of ``work`` against the pivot row ``piv``.

    Returns ``(fa*work - fb*piv, fa)``, where ``fa`` and ``fb`` are the two
    entries at ``c`` divided by their gcd, swapped.  With ``p`` set the
    result is taken mod p; pivot rows are monic there, so ``fa`` is 1.
    """
    a, b = work[c], piv[c]
    if p:
        fa, fb = 1, a
    else:
        g = gcd(a, b)
        fa, fb = b // g, a // g
    nxt = dict(work) if fa == 1 else {k: fa * v for k, v in work.items()}
    for k, v in piv.items():
        nv = nxt.get(k, 0) - fb * v
        if p:
            nv %= p
        if nv:
            nxt[k] = nv
        else:
            del nxt[k]
    return nxt, fa


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

    def reduce(self, vec: dict) -> dict:
        """The residue of ``vec`` modulo the row space: ``vec`` less a vector
        of the row space, with no support on pivot columns.  Over QQ the
        work is one integer row plus a running denominator, and every scalar
        is coerced into canonical form.
        """
        p = self.p
        work, den = self._int_row(vec)
        while hits := [c for c in work if c in self.pivot_rows]:
            c = min(hits)
            work, fa = _combine(work, self.pivot_rows[c], c, p)
            if fa != 1:  # over QQ only; keep work / den in lowest terms
                den *= fa
                g = gcd(den, *work.values())
                if g != 1:
                    den //= g
                    work = {k: v // g for k, v in work.items()}
        if p or den == 1:
            return work
        return {k: QQ.coerce(Fraction(v, den)) for k, v in work.items()}

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def coefficients(self, vec: dict) -> dict:
        """{c: a} with ``vec == sum a * pivot_rows[c]``, for ``vec`` in the
        row space.  After ``full_reduce`` every other pivot row vanishes at
        ``c``, so the coefficient at ``c`` is ``vec[c] / pivot_rows[c][c]``.
        """
        self.full_reduce()
        rows, coerce = self.pivot_rows, self.field.coerce
        return {c: coerce(v if (piv := rows[c][c]) == 1 else Fraction(v, piv))
                for c, v in vec.items() if c in rows}


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
        position = self._position
        return {position[c]: v for c, v in self.ech.reduce(vec).items()}


def _transposed(rows: list[dict], ncols: int) -> list[dict]:
    """The columns of ``rows``, as vectors indexed by row position."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


class Matrix:
    """A sparse exact matrix: ``rows[i]`` is row ``i`` as a vector, the
    layout ``Echelon`` eliminates on.

    ``Matrix(rows, ncols, field)`` holds ``rows`` as given, so they must be
    canonical, and ``nrows`` is ``len(rows)``.  ``from_rows`` and
    ``from_cols`` take raw values and reduce each once.  ``col`` and
    ``cols`` read a column view built on first use.  ``entries``, the
    read-only COO view, is built on first read for the benchmark's tracer
    and the tests; no module of the package reads it.
    """

    __slots__ = ("nrows", "ncols", "field", "rows", "basis_rows", "_cols",
                 "_entries")

    def __init__(self, rows: list, ncols: int, field=QQ):
        self.nrows, self.ncols, self.field, self.rows = len(rows), ncols, field, rows
        self.basis_rows = self._cols = self._entries = None

    @classmethod
    def zeros(cls, nrows, ncols, field=QQ):
        return cls([{} for _ in range(nrows)], ncols, field)

    @classmethod
    def identity(cls, n, field=QQ):
        return cls([{i: field.one} for i in range(n)], n, field)

    @classmethod
    def from_rows(cls, rows, ncols, field=QQ):
        """The matrix of raw ``rows``, each reduced once; a column outside
        0..ncols-1 raises IndexError."""
        out = []
        for i, row in enumerate(rows):
            row = reduced(field, row)
            if row and (min(row) < 0 or max(row) >= ncols):
                raise IndexError(f"row {i} has a column outside 0..{ncols - 1}")
            out.append(row)
        return cls(out, ncols, field)

    @classmethod
    def from_cols(cls, cols, nrows, field=QQ):
        return cls.from_rows(cols, nrows, field).transpose()

    @property
    def entries(self) -> dict:
        """The COO view {(i, j): scalar}, built once."""
        if self._entries is None:
            self._entries = {(i, j): v for i, row in enumerate(self.rows)
                             for j, v in row.items()}
        return self._entries

    def _col_view(self) -> list[dict]:
        if self._cols is None:
            self._cols = _transposed(self.rows, self.ncols)
        return self._cols

    def cols(self) -> list[dict]:
        return [dict(c) for c in self._col_view()]

    def col(self, j) -> dict:
        """A copy of column ``j``, read from the column view."""
        return dict(self._col_view()[j])

    def transpose(self) -> "Matrix":
        return Matrix(_transposed(self.rows, self.ncols), self.nrows, self.field)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def scale(self, c) -> "Matrix":
        return Matrix.from_rows([{j: c * v for j, v in row.items()}
                                 for row in self.rows], self.ncols, self.field)

    def mul(self, other) -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        F = self.field
        orows = other.rows
        out = []
        for row in self.rows:
            acc: dict[int, object] = {}
            for k, a in row.items():
                for j, b in orows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            # reduced row by row, so a vanishing product (every d∘d check)
            # never holds its zero sums all at once
            out.append(reduced(F, acc))
        return Matrix(out, other.ncols, F)

    def times_vec(self, vec: dict) -> dict:
        return reduced(self.field, {
            i: sum(v * vec[j] for j, v in row.items() if j in vec)
            for i, row in enumerate(self.rows)})

    def echelon(self) -> Echelon:
        """The rows inserted as given; ``basis_rows`` records the indices of
        those whose insert gave a pivot."""
        ech = Echelon(self.field)
        self.basis_rows = [i for i, row in enumerate(self.rows)
                           if row and ech.insert(row) is not None]
        return ech

    def rank(self) -> int:
        """One ``echelon`` along the smaller dimension, in the fill-reducing
        order: the other dimension's indices relabelled by ascending nonzero
        count, the vectors inserted shortest first.

        ``basis_rows`` records R, the indices of ``rank`` rows that span the
        row space: for a tall matrix the pivot keys, mapped back through the
        row order; for a wide one the rows whose insert gave a pivot.
        """
        rows, n = self.rows, self.ncols
        order = sorted(range(self.nrows), key=[len(r) for r in rows].__getitem__)
        tall = self.nrows > n
        if tall:
            # transposing the rows shortest first labels them by their count
            vecs, n = _transposed([rows[i] for i in order], n), self.nrows
            vecs.sort(key=len)
        else:
            count = [0] * n
            for row in rows:
                for j in row:
                    count[j] += 1
            label = [0] * n
            for new, j in enumerate(sorted(range(n), key=count.__getitem__)):
                label[j] = new
            vecs = [{label[j]: v for j, v in rows[i].items()} for i in order]
        ordered = Matrix(vecs, n, self.field)
        ech = ordered.echelon()
        self.basis_rows = [order[k] for k in
                           (ech.pivot_rows if tall else ordered.basis_rows)]
        return ech.rank

    def without_cols(self, drop) -> "Matrix":
        """The columns outside ``drop``, renumbered 0..k-1 in their order."""
        label = [0] * self.ncols
        for j in drop:
            label[j] = None
        k = 0
        for j in range(self.ncols):
            if label[j] is not None:
                label[j] = k
                k += 1
        rows = [{c: v for j, v in row.items() if (c := label[j]) is not None}
                for row in self.rows]
        return Matrix(rows, k, self.field)

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
                    col[c] = -row[f] if p else QQ.coerce(Fraction(-row[f], row[c]))
            if not p:
                col = _primitive(_clear_denominators(col)[0])
            cols.append(col)
        return Matrix.from_cols(cols, self.ncols, self.field)
