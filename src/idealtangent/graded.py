"""Finite-dimensional graded commutative algebras and their construction.

Covers degree pieces of polynomial rings, homogeneous-ideal pieces by row
reduction over monomial multiples (no Groebner machinery anywhere), the
truncated coordinate rings of projective schemes, Hilbert functions with
exact polynomial fitting, and Veronese re-gradings.  The basis of each
truncated piece A_d = S_d / I_d is chosen by ``linalg.Quotient``, the one
place any quotient basis in the engine is chosen.

Multiplication and action tables share one bilinear layout, known only
here: column ``a * dim(B_j) + b`` of the table for degrees (i, j) is the
image of the basis pair (a, b).  ``table`` writes it, for every algebra
and module in the engine, and ``_bilinear`` reads it.

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


def table(F, nrows: int, left: int, right: int, product) -> Matrix:
    """The bilinear table of ``product(a, b)`` over the basis pairs of
    ``range(left)`` x ``range(right)``: column ``a * right + b`` holds the
    image of (a, b), a vector of length ``nrows``."""
    return Matrix.from_cols([product(a, b) for a in range(left)
                             for b in range(right)], nrows, F)


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

    def __init__(self, field, dims: dict, mult: dict, labels=None):
        self.field = field
        self.dims = {d: n for d, n in dims.items() if n}
        self.degrees = sorted(self.dims)
        self.labels = labels or {
            d: [f"e{d}_{k}" for k in range(n)] for d, n in self.dims.items()}
        self.mult = {}
        for (i, j), m in mult.items():
            if i in self.dims and j in self.dims and i + j in self.dims:
                self.mult[(i, j)] = m
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

    action[(i, e)] maps A_i (x) M_e -> M_{i+e} in the layout of ``table``,
    column a_idx * dim(M_e) + m_idx, and is read by ``_bilinear``.  The
    tables come from ``regular`` (the multiplication tables) or from
    ``through`` (another algebra B reached through a homomorphism
    f: A -> B, acting by a.m := f(a) * m); neither is checked again here.
    """

    def __init__(self, algebra: FiniteGradedAlgebra, dims: dict, action: dict,
                 labels=None):
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

    def dim(self, e: int) -> int:
        return self.dims.get(e, 0)

    def act_column(self, i: int, a: int, e: int, m: int) -> dict:
        return _bilinear(self.action, self.dims, self.field, i, a, e, m)

    def act(self, i: int, va: dict, e: int, vm: dict) -> dict:
        return _bilinear(self.action, self.dims, self.field, i, va, e, vm)

    @classmethod
    def regular(cls, algebra: FiniteGradedAlgebra) -> "AlgebraModule":
        # action tables are the multiplication tables; associativity was
        # already verified on the algebra itself
        return cls(algebra, dict(algebra.dims), dict(algebra.mult),
                   labels=dict(algebra.labels))

    @classmethod
    def through(cls, algebra: FiniteGradedAlgebra, target: FiniteGradedAlgebra,
                components: dict) -> "AlgebraModule":
        """``target`` as an ``algebra``-module through the homomorphism f
        whose degree-i component is the matrix ``components[i]`` (absent: 0).

        The caller vouches that f is multiplicative.
        """
        F, one = algebra.field, algebra.field.one
        action = {}
        for i in algebra.degrees:
            f = components.get(i)
            images = f.cols() if f is not None else [{}] * algebra.dims[i]
            for e in target.degrees:
                if i + e in target.dims:
                    action[(i, e)] = table(
                        F, target.dims[i + e], algebra.dims[i], target.dims[e],
                        lambda a, m: target.multiply(i, images[a], e, {m: one}))
        return cls(algebra, dict(target.dims), action, labels=dict(target.labels))


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
        mult = {(i, j): self._build_mult(i, j, dims) for i in range(p, q + 1)
                for j in range(p, q - i + 1) if dims[i] and dims[j]}
        self.algebra = FiniteGradedAlgebra(field, dims, mult, labels)

    def _build_mult(self, i, j, dims):
        index_t = {m: k for k, m in enumerate(self.monomials[i + j])}
        quo = self.quotients[i + j]
        mi, mj = self.quotient_monomials[i], self.quotient_monomials[j]
        one = self.field.one
        return table(self.field, dims[i + j], dims[i], dims[j], lambda a, b:
                     quo.project({index_t[mono_mul(mi[a], mj[b])]: one}))


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
    # basis index t is x^{t+1}, so x^{a+1} x^{b+1} is index a + b + 1
    mult = table(field, k, k, k,
                 lambda a, b: {a + b + 1: field.one} if a + b + 1 < k else {})
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
    na, n = a.dims[0], a.dims[0] + b.dims[0]

    def product(x, y):
        if x < na and y < na:
            return a.mult_column(0, x, 0, y)
        if x >= na and y >= na:
            col = b.mult_column(0, x - na, 0, y - na)
            return {r + na: v for r, v in col.items()}
        return {}

    labels = {0: [f"a.{s}" for s in a.labels[0]] + [f"b.{s}" for s in b.labels[0]]}
    mult = table(a.field, n, n, n, product)
    return FiniteGradedAlgebra(a.field, {0: n}, {(0, 0): mult}, labels)
