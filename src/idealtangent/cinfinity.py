"""Homotopy-commutative structures: square-zero checks and tangent spaces.

A structure on a graded space W is stored on the shifted space V = W[1]
as a family of operations b_i: V^(x)i -> V of cohomological degree +1
(i >= 2, plus an optional b_1, the differential of W), each vanishing on
the signed shuffles of V-tensors.  The square-zero condition is checked
weight by weight:

    R_n = sum over r+s+t=n of  b_{r+1+t} ( 1^r (x) b_s (x) 1^t ) = 0,

with the Koszul sign (-1)^{|v_1|+...+|v_r|} when b_s jumps over the first
r inputs.  A strict commutative product is the special case where only
b_2 is nonzero; then R_3 = 0 is exactly associativity.

The same expansion with indeterminate coefficients yields the
generators-and-differential presentation of the coordinate dg-algebra of
the derived space of commutative products, whose d*d = 0 is checked as an
exact polynomial identity (spot check for small W).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import BudgetError, InternalCheckError, ValidationError
from .fields import QQ, reduced
from .graded import AlgebraModule, FiniteGradedAlgebra
from .harrison import HarrisonComplex, _shuffles
from .linalg import Echelon
from .operads import koszul_reorder_sign


class GradedSpace:
    """A finite list of basis labels with cohomological degrees."""

    def __init__(self, degrees, labels=None):
        self.degrees = list(degrees)
        self.labels = labels or [f"w{i}" for i in range(len(self.degrees))]

    @property
    def dim(self):
        return len(self.degrees)


class CInfinityStructure:
    """Operations b: {arity: {input tuple: {output index: coeff}}} on the
    shifted space; validated for degree (+1 each) and shuffle-vanishing."""

    def __init__(self, space: GradedSpace, operations: dict, field=QQ,
                 check=True):
        self.space = space
        self.field = field
        # shifted degrees
        self.vdeg = [d - 1 for d in space.degrees]
        self.operations = {}
        for arity, table in operations.items():
            clean = {}
            for tup, out in table.items():
                vec = reduced(field, out)
                if vec:
                    clean[tuple(tup)] = vec
            if clean:
                self.operations[arity] = clean
        if check:
            self._check_degrees()
            self._check_shuffle_vanishing()

    def max_arity(self):
        return max(self.operations, default=1)

    def apply(self, arity, tup):
        table = self.operations.get(arity)
        if table is None:
            return {}
        return table.get(tuple(tup), {})

    def _check_degrees(self):
        for arity, table in self.operations.items():
            for tup, out in table.items():
                src = sum(self.vdeg[i] for i in tup)
                for w in out:
                    if self.vdeg[w] != src + 1:
                        raise ValidationError(
                            f"operation of arity {arity} is not of degree +1 "
                            f"at input {tup}")

    def _check_shuffle_vanishing(self):
        F = self.field
        n_dim = self.space.dim
        for arity, table in self.operations.items():
            if arity < 2:
                continue
            for tup in product(range(n_dim), repeat=arity):
                degs = [self.vdeg[i] for i in tup]
                for p in range(1, arity):
                    acc = {}
                    for perm, _ in _shuffles(p, arity):
                        ntup = tuple(tup[k] for k in perm)
                        sign = koszul_reorder_sign(degs, perm)
                        for w, c in self.apply(arity, ntup).items():
                            acc[w] = acc.get(w, 0) + sign * c
                    if reduced(F, acc):
                        raise ValidationError(
                            f"operation of arity {arity} does not vanish "
                            f"on signed shuffles")


def square_components(structure: CInfinityStructure, n: int) -> dict:
    """R_n evaluated on every V-basis tensor: {(tuple, w): value}."""
    F = structure.field
    dim = structure.space.dim
    vdeg = structure.vdeg
    out = {}
    arities = sorted(structure.operations)
    for tup in product(range(dim), repeat=n):
        acc: dict[int, object] = {}
        for s in arities:
            if s > n:
                continue
            outer_arity = n - s + 1
            if outer_arity not in structure.operations:
                continue
            for r in range(0, n - s + 1):
                inner = structure.apply(s, tup[r:r + s])
                if not inner:
                    continue
                sign = (-1) ** (sum(vdeg[i] for i in tup[:r]) % 2)
                for mid, c in inner.items():
                    outer_tup = tup[:r] + (mid,) + tup[r + s:]
                    for w, oc in structure.apply(outer_arity, outer_tup).items():
                        acc[w] = acc.get(w, 0) + sign * c * oc
        for w, v in reduced(F, acc).items():
            out[(tup, w)] = v
    return out


def mc_check(structure: CInfinityStructure, weight_cap: int = 4):
    """(True, None) if all square-zero components vanish through the cap,
    else (False, first failing weight)."""
    if weight_cap < 2:
        raise ValidationError("weight_cap must be >= 2")
    for n in range(2, weight_cap + 1):
        if square_components(structure, n):
            return False, n
    return True, None


def strict_structure(algebra: FiniteGradedAlgebra) -> CInfinityStructure:
    """The C-infinity structure of a strict product on an ungraded space."""
    if algebra.degrees not in ([0], []):
        raise ValidationError("strict_structure expects a single-degree algebra")
    dim = algebra.dim(0)
    table = {}
    for a in range(dim):
        for b in range(dim):
            col = algebra.mult_column(0, a, 0, b)
            if col:
                table[(a, b)] = col
    space = GradedSpace([0] * dim, algebra.labels.get(0))
    return CInfinityStructure(space, {2: table}, algebra.field)


def rca_tangent(algebra: FiniteGradedAlgebra, m: int = 0,
                weight_cap: int = 4) -> list:
    """Tangent cohomology of the derived space of commutative products at a
    strict point: H^0 = weight-2 cocycles, H^i = weight-(i+2) cohomology of
    the Harrison complex of (W, mu), all valued in W."""
    ok, bad = mc_check(strict_structure(algebra), 3)
    if not ok:
        raise ValidationError(f"product is not strictly associative "
                              f"(square fails at weight {bad})")
    if m + 2 > weight_cap:
        raise BudgetError(f"weight budget exceeded: need weight {m + 2}")
    cx = HarrisonComplex(algebra, AlgebraModule.regular(algebra),
                         m + 3).cochain_complex()
    dims = [cx.dim(1) - cx.rank(1)]  # Z^2: weight-2 cocycles, in degree 1
    return dims + [cx.cohomology(i + 1) for i in range(1, m + 1)]


def rca_tangent_via_mc(algebra: FiniteGradedAlgebra) -> int:
    """H^0 computed by linearizing the weight-3 square-zero equation at the
    strict point (independent of the Harrison-complex route)."""
    strict = strict_structure(algebra)
    F = algebra.field
    dim = algebra.dim(0)
    # unknowns: symmetric g(a, b) -> W
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    var = {}
    for p in pairs:
        for w in range(dim):
            var[(p, w)] = len(var)

    ech = Echelon(F)
    mu = strict.operations.get(2, {})

    def mu_val(a, b):
        return mu.get((a, b), {})

    for tup in product(range(dim), repeat=3):
        v1, v2, v3 = tup
        for w in range(dim):
            row = {}

            def add(key, coeff):
                idx = var[key]
                row[idx] = row.get(idx, 0) + coeff

            # derivative of R_3 = b2(b2 x 1) - b2(1 x b2) in direction g
            for mid, c in mu_val(v1, v2).items():
                add(((min(mid, v3), max(mid, v3)), w), c)
            for mid, c in mu_val(v2, v3).items():
                add(((min(v1, mid), max(v1, mid)), w), -c)
            for (a, b), tgt, sgn in (((v1, v2), v3, 1), ((v2, v3), v1, -1)):
                gp = ((min(a, b), max(a, b)))
                # g(a,b) then mu(result, tgt): touches mu columns
                for mid in range(dim):
                    coeff = mu_val(mid, tgt).get(w) if sgn == 1 else \
                        mu_val(tgt, mid).get(w)
                    if coeff is not None:
                        add((gp, mid), sgn * coeff)
            ech.insert(row)
    return len(var) - ech.rank


def rhom_tangent(algebra_a: FiniteGradedAlgebra, algebra_b: FiniteGradedAlgebra,
                 components: dict, m: int = 0, weight_cap: int = 4) -> list:
    """Tangent cohomology at an algebra homomorphism f: A -> B:
    H^i = H^{i+1} of the Harrison complex of A valued in B through f."""
    from .harrison import module_via_homomorphism
    if m + 2 > weight_cap:
        raise BudgetError(f"weight budget exceeded: need weight {m + 2}")
    module = module_via_homomorphism(algebra_a, algebra_b, components)
    cx = HarrisonComplex(algebra_a, module, m + 2).cochain_complex()
    return [cx.cohomology(i) for i in range(m + 1)]


# ---------------------------------------------------------------------------
# the coordinate dg-algebra spot check


class GradedPoly:
    """Sparse graded-commutative polynomials: odd variables anticommute.

    Monomials are tuples of variable ids sorted ascending; odd variables
    may not repeat.  parities[v] gives the variable parity.
    """

    def __init__(self, parities, coeffs=None):
        self.parities = parities
        self.coeffs = dict(coeffs or {})

    @classmethod
    def variable(cls, parities, v):
        return cls(parities, {(v,): Fraction(1)})

    @classmethod
    def zero(cls, parities):
        return cls(parities, {})

    def is_zero(self):
        return not self.coeffs

    def _normalize_mono(self, mono):
        mono = list(mono)
        sign = 1
        for i in range(1, len(mono)):
            j = i
            while j > 0 and mono[j - 1] > mono[j]:
                if self.parities[mono[j - 1]] and self.parities[mono[j]]:
                    sign = -sign
                mono[j - 1], mono[j] = mono[j], mono[j - 1]
                j -= 1
        for i in range(1, len(mono)):
            if mono[i] == mono[i - 1] and self.parities[mono[i]]:
                return None, 0
        return tuple(mono), sign

    def add_term(self, mono, coeff):
        key, sign = self._normalize_mono(mono)
        if key is None or coeff == 0:
            return
        nv = self.coeffs.get(key, Fraction(0)) + sign * coeff
        if nv:
            self.coeffs[key] = nv
        else:
            self.coeffs.pop(key, None)

    def add(self, other):
        out = GradedPoly(self.parities, self.coeffs)
        for m, c in other.coeffs.items():
            out.add_term(m, c)
        return out

    def scale(self, c):
        c = Fraction(c)
        return GradedPoly(self.parities,
                          {m: c * v for m, v in self.coeffs.items() if c * v})

    def mul(self, other):
        out = GradedPoly(self.parities)
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                out.add_term(m1 + m2, c1 * c2)
        return out


def apply_derivation(poly: GradedPoly, images: dict) -> GradedPoly:
    """Extend d(variable) = images[v] as a graded derivation."""
    out = GradedPoly(poly.parities)
    for mono, coeff in poly.coeffs.items():
        passed = 0
        for pos, v in enumerate(mono):
            img = images.get(v)
            if img is not None and not img.is_zero():
                sign = (-1) ** passed
                for m2, c2 in img.coeffs.items():
                    out.add_term(mono[:pos] + m2 + mono[pos + 1:],
                                 sign * coeff * c2)
            passed = (passed + poly.parities[v]) % 2
    return out


def coordinate_dga_check(dim_w: int, weight_cap: int = 4) -> bool:
    """Exact d*d = 0 for the generators-and-differential presentation of
    the coordinate dg-algebra of the derived space of commutative products
    on an ungraded space of dimension dim_w.

    Generators are the matrix entries of indeterminate shuffle-vanishing
    operations D_n (2 <= n <= cap, degree 2-n); d(entry of D_n) is the
    matching entry of the weight-n square component, a quadratic
    polynomial.  Verified on all generators.
    """
    if dim_w > 3:
        raise BudgetError("coordinate dga spot check supports dim W <= 3")
    from .graded import zero_multiplication_algebra
    from .harrison import ShuffleBlock
    zero_alg = zero_multiplication_algebra(dim_w)
    blocks = {n: ShuffleBlock(zero_alg, ((0,) * n,), 0)
              for n in range(2, weight_cap + 1)}
    var_index = {}
    parities = []
    degrees = []
    for n in range(2, weight_cap + 1):
        blk = blocks[n]
        for t in range(blk.dim):
            for w in range(dim_w):
                var_index[(n, t, w)] = len(parities)
                parities.append(n % 2)     # parity of degree 2 - n
                degrees.append(2 - n)

    def op_value(n, tup):
        """Generic D_n at a full tuple: {w: GradedPoly}."""
        blk = blocks.get(n)
        if blk is None:
            return {}
        red = blk.reduce_col(0, tuple(tup))
        out = {}
        for w in range(dim_w):
            poly = GradedPoly(parities)
            for t, rv in red.items():
                poly.add_term((var_index[(n, t, w)],), Fraction(rv))
            if not poly.is_zero():
                out[w] = poly
        return out

    def square_poly(n, tup, w):
        """Weight-n square component at (tuple, w) as a polynomial."""
        acc = GradedPoly(parities)
        for s in range(2, min(n - 1, weight_cap) + 1):
            outer_arity = n - s + 1
            if outer_arity < 2 or outer_arity > weight_cap:
                continue
            for r in range(0, n - s + 1):
                inner = op_value(s, tup[r:r + s])
                # Koszul: the degree-+1 operation jumps r odd inputs, its
                # odd coefficient symbols jump the same inputs and then the
                # outer map; checked by descent + exact d*d = 0
                sign = (-1) ** ((r * (1 + s) + (s % 2) * (outer_arity - 1)) % 2)
                for mid, ppoly in inner.items():
                    outer_tup = tup[:r] + (mid,) + tup[r + s:]
                    blk = blocks[outer_arity]
                    red = blk.reduce_col(0, outer_tup)
                    for t, rv in red.items():
                        opoly = GradedPoly(
                            parities, {(var_index[(outer_arity, t, w)],):
                                       Fraction(1)})
                        acc = acc.add(opoly.mul(ppoly).scale(sign * rv))
        return acc

    images = {}
    # d(entry of D_n) = weight-n square component at the entry's tuple
    for (n, t, w), v in var_index.items():
        blk = blocks[n]
        tup = blk.cols[blk.std[t]][1]
        images[v] = square_poly(n, tup, w)
    # the squares must also vanish on shuffle relations (descent check)
    for n in range(2, weight_cap + 1):
        for tup in product(range(dim_w), repeat=n):
            for p in range(1, n):
                acc = {w: GradedPoly(parities) for w in range(dim_w)}
                for perm, sign in _shuffles(p, n):
                    ntup = tuple(tup[k] for k in perm)
                    for w in range(dim_w):
                        acc[w] = acc[w].add(square_poly(n, ntup, w).scale(sign))
                for w in range(dim_w):
                    if not acc[w].is_zero():
                        raise InternalCheckError(
                            "square components do not descend to the "
                            "shuffle quotient")
    for v, img in images.items():
        dd = apply_derivation(img, images)
        if not dd.is_zero():
            raise InternalCheckError(
                f"d*d != 0 on coordinate generator {v}")
    return True
