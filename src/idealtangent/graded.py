"""Finite-dimensional graded commutative algebras and their construction.

Covers degree pieces of polynomial rings, homogeneous-ideal pieces by row
reduction over monomial multiples (no Groebner machinery anywhere), the
truncated coordinate rings of projective schemes, Hilbert functions with
exact polynomial fitting, and Veronese re-gradings.  The basis of each
truncated piece A_d = S_d / I_d is chosen by ``linalg.Quotient``, the one
place any quotient basis in the engine is chosen.

An "ungraded" toy algebra is the single-degree case: everything sits in
degree 0 and 0+0=0 keeps all products in the window, so one code path
serves both the windowed coordinate rings and the small test algebras.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError, ValidationError
from .fields import QQ, reduced
from .linalg import Echelon, Matrix, Quotient
from .polynomials import (count_monomials, mono_mul, mono_str,
                          monomials_of_degree, parse_homogeneous)


@dataclass(frozen=True)
class HomIdealPresentation:
    """A subscheme of P^n given by homogeneous generators in x0..xn."""

    nvars: int  # n + 1
    gens: tuple

    @classmethod
    def from_strings(cls, nvars: int, gen_strings) -> "HomIdealPresentation":
        gens = tuple(parse_homogeneous(s, nvars) for s in gen_strings)
        return cls(nvars, gens)

    @property
    def projective_dim(self) -> int:
        return self.nvars - 1


def ideal_degree_piece(pres: HomIdealPresentation, d: int, field=QQ) -> Echelon:
    """The degree-d piece of the ideal as canonical RREF rows, inside the
    monomial basis of the full degree-d polynomial space, by row reduction
    of monomial multiples of the generators."""
    if d < 0:
        raise ValidationError("degree must be nonnegative")
    basis = monomials_of_degree(pres.nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    ech = Echelon(field)
    for g in pres.gens:
        gd = g.homogeneous_degree()
        if gd > d:
            continue
        for m in monomials_of_degree(pres.nvars, d - gd):
            ech.insert({index[mono_mul(m, gm)]: c for gm, c in g.coeffs.items()})
    ech.full_reduce()
    return ech


def _bilinear(tables: dict, dims: dict, F, i: int, va, j: int, vb) -> dict:
    """Apply the bilinear table ``tables[(i, j)]`` to ``va`` and ``vb``.

    Column ``a * dims[j] + b`` of the table is the image of the basis pair
    (a, b).  ``va`` and ``vb`` are vectors, or basis indices, for which that
    column itself is returned; {} where the table is absent.
    """
    m = tables.get((i, j))
    if m is None:
        return {}
    n = dims[j]
    if type(va) is int:
        return m.col(va * n + vb)
    out: dict[int, object] = {}
    for a, ca in va.items():
        for b, cb in vb.items():
            c = ca * cb
            for r, v in m.col(a * n + b).items():
                out[r] = out.get(r, 0) + c * v
    return reduced(F, out)


class FiniteGradedAlgebra:
    """Per-degree bases plus exact multiplication tables.

    mult[(i, j)] maps A_i (x) A_j -> A_{i+j} with column index
    a_idx * dim(A_j) + b_idx; pairs with i+j outside the window are absent
    (the product is zero by definition of the truncated quotient).
    Commutativity and associativity are verified exactly at construction.
    """

    def __init__(self, field, dims: dict, mult: dict, labels=None, check=True):
        self.field = field
        self.dims = {d: n for d, n in dims.items() if n}
        self.degrees = sorted(self.dims)
        self.labels = labels or {
            d: [f"e{d}_{k}" for k in range(n)] for d, n in self.dims.items()}
        self.mult = {}
        for (i, j), m in mult.items():
            if i in self.dims and j in self.dims and i + j in self.dims:
                self.mult[(i, j)] = m
        if check:
            self._check_tables()

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def mult_column(self, i: int, a: int, j: int, b: int) -> dict:
        """The product of basis elements (degree i, index a)*(degree j, index b)."""
        return _bilinear(self.mult, self.dims, self.field, i, a, j, b)

    def multiply(self, i: int, va: dict, j: int, vb: dict) -> dict:
        """Product of vectors va in A_i and vb in A_j; {} beyond the window."""
        return _bilinear(self.mult, self.dims, self.field, i, va, j, vb)

    def _check_tables(self):
        for (i, j), m in self.mult.items():
            if m.nrows != self.dims[i + j] or m.ncols != self.dims[i] * self.dims[j]:
                raise InternalCheckError(f"mult table {(i, j)} has bad shape")
        for (i, j) in self.mult:
            if (j, i) not in self.mult:
                raise InternalCheckError(f"mult table {(j, i)} missing")
            for a in range(self.dims[i]):
                for b in range(self.dims[j]):
                    if self.mult_column(i, a, j, b) != self.mult_column(j, b, i, a):
                        raise InternalCheckError(
                            f"multiplication not commutative at degrees {(i, j)}, "
                            f"basis pair ({a}, {b})")
        checked = set()
        for i in self.degrees:
            for j in self.degrees:
                for k in self.degrees:
                    if i + j + k not in self.dims:
                        continue
                    if (k, j, i) in checked:
                        continue
                    checked.add((i, j, k))
                    self._check_assoc(i, j, k)

    def _check_assoc(self, i, j, k):
        for a in range(self.dims[i]):
            for b in range(self.dims[j]):
                vab = self.mult_column(i, a, j, b)
                for c in range(self.dims[k]):
                    lhs = self.multiply(i + j, vab, k, {c: self.field.one})
                    vbc = self.mult_column(j, b, k, c)
                    rhs = self.multiply(i, {a: self.field.one}, j + k, vbc)
                    if lhs != rhs:
                        raise InternalCheckError(
                            f"multiplication not associative at degrees "
                            f"{(i, j, k)}, basis triple ({a}, {b}, {c})")


class AlgebraModule:
    """A graded module over a FiniteGradedAlgebra with explicit action tables.

    action[(i, e)] maps A_i (x) M_e -> M_{i+e} with column index
    a_idx * dim(M_e) + m_idx.  Coefficients in another algebra B reached
    through a homomorphism f: A -> B act by a.m := f(a) * m.
    """

    def __init__(self, algebra: FiniteGradedAlgebra, dims: dict, action: dict,
                 labels=None, check=True):
        self.algebra = algebra
        self.field = algebra.field
        self.dims = {d: n for d, n in dims.items() if n}
        self.degrees = sorted(self.dims)
        self.labels = labels or {
            d: [f"m{d}_{k}" for k in range(n)] for d, n in self.dims.items()}
        self.action = {}
        for (i, e), mtx in action.items():
            if i in algebra.dims and e in self.dims and i + e in self.dims:
                self.action[(i, e)] = mtx
        if check:
            self._check_action()

    def dim(self, e: int) -> int:
        return self.dims.get(e, 0)

    def act_column(self, i: int, a: int, e: int, m: int) -> dict:
        return _bilinear(self.action, self.dims, self.field, i, a, e, m)

    def act(self, i: int, va: dict, e: int, vm: dict) -> dict:
        return _bilinear(self.action, self.dims, self.field, i, va, e, vm)

    def _check_action(self):
        A = self.algebra
        for i in A.degrees:
            for j in A.degrees:
                if i + j not in A.dims:
                    continue
                for e in self.degrees:
                    if i + j + e not in self.dims:
                        continue
                    for a in range(A.dims[i]):
                        for b in range(A.dims[j]):
                            vab = A.mult_column(i, a, j, b)
                            for m in range(self.dims[e]):
                                lhs = self.act(i + j, vab, e, {m: self.field.one})
                                vbm = self.act_column(j, b, e, m)
                                rhs = self.act(i, {a: self.field.one}, j + e, vbm)
                                if lhs != rhs:
                                    raise InternalCheckError(
                                        f"module action not associative at "
                                        f"degrees {(i, j, e)}")

    @classmethod
    def regular(cls, algebra: FiniteGradedAlgebra) -> "AlgebraModule":
        # action tables are the multiplication tables; associativity was
        # already verified on the algebra itself
        return cls(algebra, dict(algebra.dims), dict(algebra.mult),
                   labels=dict(algebra.labels), check=False)


class TruncatedCoordinateRing:
    """The degrees-p-through-q quotient of the homogeneous coordinate ring.

    ``quotients[d]`` is the ``Quotient`` of the degree-d monomials by the
    ideal piece; its basis, the non-pivot monomials in lex order, is the
    basis of A_d, so reports are reproducible.
    """

    def __init__(self, presentation: HomIdealPresentation, p: int, q: int, field=QQ):
        if not (0 <= p <= q):
            raise ValidationError("window must satisfy 0 <= p <= q")
        self.presentation = presentation
        self.p, self.q = p, q
        self.field = field
        self.monomials = {}
        self.quotients = {}
        self.quotient_monomials = {}
        dims, labels = {}, {}
        for d in range(p, q + 1):
            basis = monomials_of_degree(presentation.nvars, d)
            quo = Quotient(ideal_degree_piece(presentation, d, field), len(basis))
            qmono = [basis[c] for c in quo.basis]
            self.monomials[d] = basis
            self.quotients[d] = quo
            self.quotient_monomials[d] = qmono
            dims[d] = quo.dim
            labels[d] = [mono_str(m) for m in qmono]
        mult = {}
        for i in range(p, q + 1):
            for j in range(p, q + 1):
                if i + j > q or not dims.get(i) or not dims.get(j):
                    continue
                mult[(i, j)] = self._build_mult(i, j, dims)
        self.algebra = FiniteGradedAlgebra(field, dims, mult, labels)

    def _build_mult(self, i, j, dims):
        target = i + j
        index_t = {m: k for k, m in enumerate(self.monomials[target])}
        quo = self.quotients[target]
        one = self.field.one
        entries = {}
        nb = dims[j]
        for a, ma in enumerate(self.quotient_monomials[i]):
            for b, mb in enumerate(self.quotient_monomials[j]):
                prod = quo.project({index_t[mono_mul(ma, mb)]: one})
                for r, v in prod.items():
                    entries[(r, a * nb + b)] = v
        return Matrix(dims[target], dims[i] * dims[j], entries, self.field)



def coordinate_ring_truncation(presentation: HomIdealPresentation, p: int, q: int,
                               field=QQ) -> TruncatedCoordinateRing:
    return TruncatedCoordinateRing(presentation, p, q, field)


@dataclass
class HilbertData:
    values: dict            # degree -> dim, exact
    coefficients: list      # polynomial coefficients, constant term first
    first_agreement: int    # least degree from which the polynomial matches

    def poly_at(self, t: int) -> Fraction:
        acc, power = Fraction(0), Fraction(1)
        for c in self.coefficients:
            acc += c * power
            power *= t
        return acc


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Exact Lagrange interpolation; coefficients constant-term first."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k == i:
                continue
            denom *= xi - xk
            nxt = [Fraction(0)] * (len(basis) + 1)
            for deg, c in enumerate(basis):
                nxt[deg] -= c * xk
                nxt[deg + 1] += c
            basis = nxt
        scale = Fraction(yi) / denom
        for deg, c in enumerate(basis):
            coeffs[deg] += scale * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def hilbert_data(presentation: HomIdealPresentation, d_max: int, field=QQ) -> HilbertData:
    """Hilbert function up to d_max plus the exactly fitted polynomial.

    The fit is validated on at least two extra values below the
    interpolation window; raises "unstable" if no polynomial of degree
    <= projective dimension fits the tail.
    """
    n = presentation.projective_dim
    values = {}
    for d in range(d_max + 1):
        values[d] = (count_monomials(presentation.nvars, d)
                     - ideal_degree_piece(presentation, d, field).rank)
    for deg in range(n + 1):
        if d_max < deg + 2:
            break
        points = [(d, values[d]) for d in range(d_max - deg, d_max + 1)]
        coeffs = _interpolate(points)
        data = HilbertData(values, coeffs, 0)
        tail_ok = all(data.poly_at(d) == values[d]
                      for d in range(d_max - deg - 2, d_max + 1) if d >= 0)
        if not tail_ok:
            continue
        first = d_max
        while first > 0 and data.poly_at(first - 1) == values[first - 1]:
            first -= 1
        data.first_agreement = first
        return data
    raise ValidationError(
        f"unstable: no polynomial of degree <= {n} fits the Hilbert values "
        f"up to d_max={d_max}")


def veronese_truncation(algebra: FiniteGradedAlgebra, step: int) -> FiniteGradedAlgebra:
    """B_j = A_{step*j}, regraded so B_j sits in degree j."""
    if step < 1:
        raise ValidationError("Veronese step must be >= 1")
    if step == 1:
        return algebra
    dims, labels, mult = {}, {}, {}
    js = [d // step for d in algebra.degrees if d % step == 0]
    for j in js:
        dims[j] = algebra.dims[step * j]
        labels[j] = list(algebra.labels[step * j])
    for i in js:
        for j in js:
            src = algebra.mult.get((step * i, step * j))
            if src is not None and (i + j) in dims:
                mult[(i, j)] = src
    return FiniteGradedAlgebra(algebra.field, dims, mult, labels)


# ---------------------------------------------------------------------------
# small test algebras (single-degree window: "ungraded")


def nilpotent_algebra(k: int, field=QQ) -> FiniteGradedAlgebra:
    """span(x, x^2, ..., x^k) with x^{k+1} = 0, concentrated in degree 0."""
    entries = {}
    for a in range(k):
        for b in range(k):
            power = a + b + 2
            if power <= k:
                entries[(power - 1, a * k + b)] = field.one
    mult = Matrix(k, k * k, entries, field)
    labels = {0: [f"x^{t + 1}" for t in range(k)]}
    return FiniteGradedAlgebra(field, {0: k}, {(0, 0): mult}, labels)


def zero_multiplication_algebra(dim: int, field=QQ) -> FiniteGradedAlgebra:
    labels = {0: [f"z_{t}" for t in range(dim)]}
    return FiniteGradedAlgebra(field, {0: dim},
                               {(0, 0): Matrix.zeros(dim, dim * dim, field)}, labels)


def product_algebra(a: FiniteGradedAlgebra, b: FiniteGradedAlgebra) -> FiniteGradedAlgebra:
    """Direct product of two single-degree algebras (componentwise product)."""
    if a.degrees != [0] or b.degrees != [0]:
        raise ValidationError("product_algebra expects single-degree algebras")
    F = a.field
    na, nb = a.dims[0], b.dims[0]
    n = na + nb
    entries = {}
    for x in range(n):
        for y in range(n):
            if x < na and y < na:
                col = a.mult_column(0, x, 0, y)
                for r, v in col.items():
                    entries[(r, x * n + y)] = v
            elif x >= na and y >= na:
                col = b.mult_column(0, x - na, 0, y - na)
                for r, v in col.items():
                    entries[(r + na, x * n + y)] = v
    labels = {0: [f"a.{s}" for s in a.labels[0]] + [f"b.{s}" for s in b.labels[0]]}
    return FiniteGradedAlgebra(F, {0: n}, {(0, 0): Matrix(n, n * n, entries, F)}, labels)
