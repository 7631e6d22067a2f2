"""Points of the scheme of graded ideals and their classical tangent spaces.

A point is a graded subspace of a finite graded algebra passing the exact
ideal test.  The classical tangent space is the space of degree-0 module
homomorphisms I/I^2 -> A/I, computed as the kernel of an exact linear
constraint system.  The bases of A/I and of I/I^2 are chosen, and vectors
projected onto them, by ``linalg.Quotient`` and nowhere else.

The tables of A/I are written by ``graded.table``: its multiplication
projects products of lifted basis elements, and A/I is an A-module by
``AlgebraModule.through`` the projection, which is multiplicative because
``IdealPoint`` verified that I is an ideal.
"""
from __future__ import annotations

from .errors import InternalCheckError, NotASubschemeError, ValidationError
from .graded import (AlgebraModule, FiniteGradedAlgebra, HomIdealPresentation,
                     TruncatedCoordinateRing, ideal_degree_piece, table)
from .linalg import Echelon, Matrix, Quotient


class GradedSubspace:
    """Per-degree subspaces of a FiniteGradedAlgebra, canonically row-reduced."""

    def __init__(self, algebra: FiniteGradedAlgebra, vectors_by_degree: dict):
        self.algebra = algebra
        self.pieces: dict[int, Echelon] = {}
        for d in sorted(vectors_by_degree):
            if d not in algebra.dims:
                raise ValidationError(f"degree {d} outside the algebra window")
            ech = Echelon(algebra.field)
            for v in vectors_by_degree[d]:
                ech.insert(v)
            ech.full_reduce()
            self.pieces[d] = ech

    def dim(self, d: int) -> int:
        ech = self.pieces.get(d)
        return ech.rank if ech else 0

    @property
    def k(self) -> dict:
        return {d: self.pieces[d].rank for d in sorted(self.pieces) if self.pieces[d].rank}

    def basis_vectors(self, d: int) -> list[dict]:
        ech = self.pieces.get(d)
        if ech is None:
            return []
        return [ech.pivot_rows[c] for c in ech.pivots]

    def contains(self, d: int, vec: dict) -> bool:
        if not vec:
            return True
        ech = self.pieces.get(d)
        return ech is not None and ech.contains(vec)


def is_graded_ideal(algebra: FiniteGradedAlgebra, subspace: GradedSubspace,
                    witness=False):
    """Exact test that mu(A_i (x) V_j) lies in V_{i+j} for all window pairs."""
    for i in algebra.degrees:
        for j in algebra.degrees:
            if i + j not in algebra.dims:
                continue
            for a in range(algebra.dims[i]):
                for v in subspace.basis_vectors(j):
                    prod = algebra.multiply(i, {a: algebra.field.one}, j, v)
                    if not subspace.contains(i + j, prod):
                        if witness:
                            return False, (i, a, j, v)
                        return False
    if witness:
        return True, None
    return True


class IdealPoint:
    """A graded subspace passing the ideal test, with its ambient algebra."""

    def __init__(self, algebra: FiniteGradedAlgebra, subspace: GradedSubspace):
        ok, wit = is_graded_ideal(algebra, subspace, witness=True)
        if not ok:
            raise ValidationError(
                f"subspace is not a graded ideal (witness: degree pair "
                f"{wit[0]},{wit[2]} basis element {wit[1]})")
        self.algebra = algebra
        self.subspace = subspace

    @property
    def k(self) -> dict:
        return self.subspace.k

    def dim(self, d: int) -> int:
        return self.subspace.dim(d)


def subscheme_to_point(ring: TruncatedCoordinateRing,
                       z_pres: HomIdealPresentation) -> IdealPoint:
    """The point of the graded ideal scheme defined by a subscheme Z of X.

    Per window degree, the piece is the image of Z's ideal piece in the
    quotient A_d = S_d / I_{X,d}.  Containment of X's ideal in Z's is
    checked degreewise first.
    """
    if z_pres.nvars != ring.presentation.nvars:
        raise ValidationError("Z lives in a different ambient space than X")
    vectors = {}
    for d in range(ring.p, ring.q + 1):
        quo = ring.quotients[d]
        z_piece = ideal_degree_piece(z_pres, d, ring.field)
        for row in quo.ech.pivot_rows.values():
            if not z_piece.contains(row):
                raise NotASubschemeError(
                    f"not a subscheme of X: containment fails in degree {d}")
        images = (quo.project(z_piece.pivot_rows[c]) for c in z_piece.pivots)
        vectors[d] = [vec for vec in images if vec]
    subspace = GradedSubspace(ring.algebra, vectors)
    return IdealPoint(ring.algebra, subspace)


class QuotientData:
    """The quotient algebra A/I with its projection matrices ``proj``.

    ``quotients[d]`` is the ``Quotient`` of A_d by the ideal piece I_d; its
    basis is a set of coordinates of A_d, so the lift of basis element a
    of (A/I)_d is the unit vector at ``quotients[d].basis[a]``.
    """

    def __init__(self, algebra: FiniteGradedAlgebra, ideal: IdealPoint):
        if ideal.algebra is not algebra:
            raise ValidationError("ideal belongs to a different algebra")
        self.algebra = algebra
        self.ideal = ideal
        F = algebra.field
        dims, labels = {}, {}
        self.quotients, self.proj = {}, {}
        for d in algebra.degrees:
            n = algebra.dims[d]
            quo = Quotient(ideal.subspace.pieces.get(d) or Echelon(F), n)
            self.quotients[d] = quo
            dims[d] = quo.dim
            labels[d] = [algebra.labels[d][c] for c in quo.basis]
            self.proj[d] = Matrix.from_cols(
                [quo.project({c: F.one}) for c in range(n)], quo.dim, F)
        mult = {}
        for (i, j) in algebra.mult:
            if dims.get(i) and dims.get(j) and dims.get(i + j):
                quo = self.quotients[i + j]
                bi, bj = self.quotients[i].basis, self.quotients[j].basis
                mult[(i, j)] = table(
                    F, dims[i + j], dims[i], dims[j],
                    lambda a, b: quo.project(algebra.mult_column(i, bi[a], j, bj[b])))
        self.quotient = FiniteGradedAlgebra(F, dims, mult, labels)

    def module_over_ambient(self) -> AlgebraModule:
        """A/I as a module over A, acting through the projection."""
        return AlgebraModule.through(self.algebra, self.quotient, self.proj)


def _multiplier_degrees(algebra: FiniteGradedAlgebra) -> list[int]:
    """Degrees whose basis elements must be imposed as module multipliers.

    A degree is dropped when its piece is spanned by in-window products;
    linearity over those multipliers follows from the lower ones by
    associativity, so the constraint rows would be redundant.
    """
    out = []
    for i in algebra.degrees:
        span = Echelon(algebra.field)
        full = algebra.dims[i]
        for j in algebra.degrees:
            k = i - j
            if k not in algebra.dims or (j, k) not in algebra.mult:
                continue
            m = algebra.mult[(j, k)]
            for col in range(m.ncols):
                if span.rank == full:
                    break
                span.insert(m.col(col))
        if span.rank < full:
            out.append(i)
    return out


class _IdealSquareData:
    """I/I^2 per degree: the ``Quotient`` of I-coordinates by I^2.

    I-coordinates of a vector of I_e are its coefficients on the RREF
    basis of I_e, in pivot order.
    """

    def __init__(self, algebra: FiniteGradedAlgebra, ideal: IdealPoint):
        F = algebra.field
        self.algebra = algebra
        self.ideal = ideal
        self.square: dict[int, Quotient] = {}
        self._i_position: dict[int, dict] = {}
        sub = ideal.subspace
        for e in algebra.degrees:
            ne = sub.dim(e)
            if ne == 0:
                continue
            self._i_position[e] = {c: k for k, c in enumerate(sub.pieces[e].pivots)}
            isq = Echelon(F)
            for i in algebra.degrees:
                j = e - i
                if j not in algebra.dims or j < i:
                    continue
                for x in sub.basis_vectors(i):
                    for y in sub.basis_vectors(j):
                        prod = algebra.multiply(i, x, j, y)
                        if prod:
                            isq.insert(self._i_coords(e, prod))
            self.square[e] = Quotient(isq, ne)

    def _i_coords(self, e: int, vec: dict) -> dict:
        residue, coords = self.ideal.subspace.pieces[e].reduce(vec)
        if residue:
            raise InternalCheckError("product left the ideal; tables inconsistent")
        position = self._i_position[e]
        return {position[c]: v for c, v in coords.items()}

    def modulo_square(self, e: int, vec: dict) -> dict:
        """A_e vector in I_e -> coordinates in the chosen I/I^2 basis."""
        return self.square[e].project(self._i_coords(e, vec))

    def basis_lift(self, e: int, r: int) -> dict:
        """A_e vector lifting the r-th I/I^2 basis element."""
        ech = self.ideal.subspace.pieces[e]
        return ech.pivot_rows[ech.pivots[self.square[e].basis[r]]]

    def dim(self, e: int) -> int:
        quo = self.square.get(e)
        return quo.dim if quo is not None else 0


def classical_tangent_dim(algebra: FiniteGradedAlgebra, ideal: IdealPoint,
                          quotient: QuotientData | None = None,
                          all_multipliers: bool = False) -> int:
    """dim of degree-0 (A/I)-module homomorphisms I/I^2 -> A/I.

    Unknowns are the matrix entries of the degreewise maps; linearity over
    the quotient is imposed as exact linear constraints and the answer is
    the nullity of the system.
    """
    if quotient is None:
        quotient = QuotientData(algebra, ideal)
    B = quotient.quotient
    isq = _IdealSquareData(algebra, ideal)
    F = algebra.field

    var_index = {}
    for e in algebra.degrees:
        for r in range(isq.dim(e)):
            for s in range(B.dim(e)):
                var_index[(e, r, s)] = len(var_index)
    if not var_index:
        return 0

    multipliers = algebra.degrees if all_multipliers else _multiplier_degrees(algebra)
    ech = Echelon(F)
    for i in multipliers:
        for sa in range(B.dim(i)):
            va = {quotient.quotients[i].basis[sa]: F.one}
            for d in algebra.degrees:
                e = i + d
                if e not in algebra.dims or isq.dim(d) == 0:
                    continue
                for r in range(isq.dim(d)):
                    w = algebra.multiply(i, va, d, isq.basis_lift(d, r))
                    # a zero I/I^2 piece in degree e makes phi(w mod I^2) = 0
                    xi = isq.modulo_square(e, w) if isq.dim(e) else {}
                    act_cols = {s: B.mult_column(i, sa, d, s) for s in range(B.dim(d))}
                    for sp in range(B.dim(e)):
                        row = {}
                        for rr, v in xi.items():
                            row[var_index[(e, rr, sp)]] = v
                        for s, col in act_cols.items():
                            cv = col.get(sp)
                            if cv is not None:
                                key = var_index[(d, r, s)]
                                row[key] = row.get(key, 0) - cv
                        ech.insert(row)
    return len(var_index) - ech.rank
