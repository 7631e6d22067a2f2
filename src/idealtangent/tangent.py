"""Derived tangent complexes of graded ideal points, and window sweeps.

The tangent complex at an ideal point is realized as the mapping fiber of
the restriction map between derivation complexes,

    rder(A/I, A/I)  -->  rder(A, A/I),

where rder is the internal-degree-0 slice of a Harrison complex, turned
into a cochain complex by `HarrisonComplex.cochain_complex` (degree =
weight - 1, so H^0 = derivations).  Each of the two Harrison complexes is
built once and serves both its cochain complex and the restriction map
between them, and one fiber is built per solve: the one whose d∘d check
verifies the restriction as a chain map.  The i-th tangent cohomology is
H^{i+1} of the fiber; the shift is calibrated by the bootstrap cases
(zero ideal => everything vanishes; points on a line => H^0 = number of
points), which the test suite pins down.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .complexes import ChainMap
from .errors import BudgetError, ValidationError
from .fields import QQ, reduced
from .graded import (AlgebraModule, FiniteGradedAlgebra, HomIdealPresentation,
                     coordinate_ring_truncation)
from .harrison import HarrisonComplex
from .idealpoints import (IdealPoint, QuotientData, classical_tangent_dim,
                          subscheme_to_point)
from .linalg import Matrix

#: Harrison weights beyond this are refused (memory wall); H^i needs
#: weights through i+2, so m <= 2.
WEIGHT_CAP = 4


def _pullback_components(quotient: QuotientData, hc_sub: HarrisonComplex,
                         hc_amb: HarrisonComplex, top_weight: int) -> dict:
    """Restriction along A ->> A/I: precompose cochains of the quotient
    with the projection, expressed in compressed coordinates."""
    A = quotient.algebra
    F = A.field
    comps = {}
    for w in range(1, top_weight + 1):
        src = hc_sub.space(w)   # weight-w cochains of B = A/I
        dst = hc_amb.space(w)   # weight-w cochains of A, valued in B
        entries = {}
        for b_idx, blk in enumerate(dst.blocks):
            dim_m = hc_amb.module.dim(blk.e)
            for pos, col in enumerate(blk.std):
                ci, tup = blk.cols[col]
                comp = blk.comps[ci]
                loc = src.locate(comp, blk.e)
                if loc is None:
                    continue
                sb_idx, sci = loc
                sblk = src.blocks[sb_idx]
                # expand the projected tuple into B-basis tuples
                factors = [sorted(quotient.proj[comp[k]].col(tup[k]).items())
                           for k in range(len(comp))]
                if any(not f for f in factors):
                    continue
                acc: dict[int, object] = {}
                stack = [((), 1)]
                for fac in factors:
                    stack = [(prefix + (b,), coeff * v)
                             for prefix, coeff in stack for b, v in fac]
                for btup, coeff in stack:
                    red = sblk.reduce_col(sci, btup)
                    for t, rv in red.items():
                        key = (sb_idx, t)
                        acc[key] = acc.get(key, 0) + coeff * rv
                row_base = dst.offsets[b_idx] + pos * dim_m
                for (sb, t), v in reduced(F, acc).items():
                    col_base = src.offsets[sb] + t * dim_m
                    for m in range(dim_m):
                        entries[(row_base + m, col_base + m)] = v
        comps[(w - 1, 0)] = Matrix(dst.dim, src.dim, entries, F)
    return comps


@dataclass
class TangentReport:
    window: tuple
    m: int
    dims: list            # H^0 .. H^m of the tangent complex
    classical_dim: int
    k: dict               # ideal dimension sequence
    euler_checked: bool | None = None
    notes: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "m": self.m,
            "tangent_dims": list(self.dims),
            "classical_dim": self.classical_dim,
            "k": {str(d): v for d, v in sorted(self.k.items())},
            "euler_checked": self.euler_checked,
            "notes": list(self.notes),
        }

    def text(self) -> str:
        dims = ", ".join(f"H^{i}={v}" for i, v in enumerate(self.dims))
        lines = [f"window [{self.window[0]},{self.window[1]}]  {dims}  "
                 f"classical={self.classical_dim}"]
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def _tangent_fiber(algebra: FiniteGradedAlgebra, quotient: QuotientData,
                   m: int):
    """The fiber of the restriction map, and whether it is complete: the
    top terms of both Harrison slices vanish.

    Built here so that the Harrison complexes, their cochain complexes and
    the restriction are freed when it returns, before any rank: a cleared
    rank holds a restricted copy of a fiber differential.
    """
    top_s = m + 3   # codomain of the top kernel computation
    top_t = m + 2
    B = quotient.quotient
    hc_s = HarrisonComplex(B, AlgebraModule.regular(B), top_s, internal_degree=0)
    hc_t = HarrisonComplex(algebra, quotient.module_over_ambient(), top_t,
                           internal_degree=0)
    source = hc_s.cochain_complex()
    target = hc_t.cochain_complex()
    comps = _pullback_components(quotient, hc_s, hc_t, top_t)
    fiber = ChainMap(source, target, comps).fiber
    return fiber, source.dim(top_s - 1) == 0 and target.dim(top_t - 1) == 0


def derived_tangent(algebra: FiniteGradedAlgebra, ideal: IdealPoint, m: int,
                    quotient: QuotientData | None = None,
                    window=None) -> TangentReport:
    """H^i of the tangent complex at [I], 0 <= i <= m, plus the classical
    tangent dimension for the consistency invariant H^0 = classical."""
    if m < 0:
        raise ValidationError("m must be >= 0")
    if m + 2 > WEIGHT_CAP:
        raise BudgetError(
            f"weight budget exceeded: H^{m} needs Harrison weight {m + 2} "
            f"> cap {WEIGHT_CAP}")
    if quotient is None:
        quotient = QuotientData(algebra, ideal)
    B = quotient.quotient
    window = window or ((algebra.degrees[0], algebra.degrees[-1])
                        if algebra.degrees else (0, 0))
    classical = classical_tangent_dim(algebra, ideal, quotient)
    if B.total_dim == 0 or not algebra.degrees:
        return TangentReport(window, m, [0] * (m + 1), classical, ideal.k, None,
                             ["quotient algebra is zero in the window"])
    fiber, complete = _tangent_fiber(algebra, quotient, m)
    dims = [fiber.cohomology(i + 1) for i in range(m + 1)]
    euler = None
    if complete:
        # internal-degree-0 slices vanish from some weight on, so the fiber
        # is complete and Euler characteristics must telescope exactly
        top = max([i for (i, _) in fiber.terms] or [0])
        chi_h = sum((-1) ** i * fiber.cohomology(i) for i in range(top + 1))
        euler = (chi_h == fiber.euler_characteristic())
    return TangentReport(window, m, dims, classical, ideal.k, euler)


def tangent_at_subscheme(x_pres: HomIdealPresentation, z_pres: HomIdealPresentation,
                         p: int, q: int, m: int, field=QQ) -> TangentReport:
    ring = coordinate_ring_truncation(x_pres, p, q, field)
    point = subscheme_to_point(ring, z_pres)
    return derived_tangent(ring.algebra, point, m, window=(p, q))


@dataclass
class SweepTable:
    m: int
    windows: list                 # [(p, q), ...] sorted
    reports: dict                 # (p, q) -> TangentReport
    stable: list = dc_field(default_factory=list)   # per i: bool
    corners: list = dc_field(default_factory=list)  # per i: (p*, q*) or None

    def analyze(self):
        self.stable, self.corners = [], []
        for i in range(self.m + 1):
            found = None
            for (ps, qs) in sorted({w for w in self.windows},
                                   key=lambda w: (w[0] + w[1], w)):
                sub = [w for w in self.windows if w[0] >= ps and w[1] >= qs]
                if len(sub) < min(2, len(self.windows)):
                    continue
                vals = {self.reports[w].dims[i] for w in sub}
                if len(vals) == 1:
                    found = (ps, qs)
                    break
            self.stable.append(found is not None)
            self.corners.append(found)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "windows": [list(w) for w in self.windows],
            "reports": {f"{p},{q}": self.reports[(p, q)].to_dict()
                        for (p, q) in self.windows},
            "stable": list(self.stable),
            "stable_corners": [list(c) if c else None for c in self.corners],
        }

    def text(self) -> str:
        head = "window    " + "  ".join(f"H^{i}" for i in range(self.m + 1)) \
               + "  classical"
        lines = [head]
        for (p, q) in self.windows:
            r = self.reports[(p, q)]
            dims = "  ".join(f"{v:3d}" for v in r.dims)
            lines.append(f"[{p},{q}]    {dims}  {r.classical_dim:9d}")
        for i in range(self.m + 1):
            tag = "stable" if self.stable[i] else "NOT STABLE"
            corner = self.corners[i]
            at = f" from corner {corner}" if corner else ""
            lines.append(f"H^{i}: {tag}{at}")
        return "\n".join(lines)


def _window_report(args):
    x_pres, z_pres, p, q, m, field = args
    return (p, q), tangent_at_subscheme(x_pres, z_pres, p, q, m, field)


def stabilization_sweep(x_pres: HomIdealPresentation, z_pres: HomIdealPresentation,
                        m: int, p_range, q_range, field=QQ,
                        threads: int = 1) -> SweepTable:
    """derived_tangent over the window grid; non-stabilization is reported,
    never silently extrapolated."""
    windows = sorted({(p, q) for p in p_range for q in q_range if p <= q})
    if not windows:
        raise ValidationError("empty window grid")
    jobs = [(x_pres, z_pres, p, q, m, field) for (p, q) in windows]
    reports = {}
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        # a pool forks all its workers at once: at most one per window
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            for key, rep in pool.map(_window_report, jobs):
                reports[key] = rep
    else:
        for job in jobs:
            key, rep = _window_report(job)
            reports[key] = rep
    table = SweepTable(m, windows, reports)
    table.analyze()
    return table


def segre_presentation(a: int, b: int) -> HomIdealPresentation:
    """P^a x P^b embedded by the Segre map; coordinate z_{ij} = x_{i*(b+1)+j},
    ideal generated by the 2x2 minors."""
    from .polynomials import Poly
    nvars = (a + 1) * (b + 1)

    def z(i, j):
        return i * (b + 1) + j

    gens = []
    for i in range(a + 1):
        for k in range(i + 1, a + 1):
            for j in range(b + 1):
                for l in range(j + 1, b + 1):
                    mono1 = [0] * nvars
                    mono1[z(i, j)] += 1
                    mono1[z(k, l)] += 1
                    mono2 = [0] * nvars
                    mono2[z(i, l)] += 1
                    mono2[z(k, j)] += 1
                    gens.append(Poly(nvars, {tuple(mono1): 1, tuple(mono2): -1}))
    return HomIdealPresentation(nvars, tuple(gens))


def rmap_tangent(c_dim: int, y_dim: int, graph_gens, m: int, p: int, q: int,
                 field=QQ, extra_product_gens=()) -> TangentReport:
    """Tangent cohomology of the space of maps at a graph ideal point.

    The product C x Y (projective-space factors) is presented by the Segre
    minors; the graph subscheme is given by homogeneous generators in the
    Segre coordinates.  That the graph projects isomorphically to C is the
    caller's responsibility and is recorded as a note in the report.
    """
    product_pres = segre_presentation(c_dim, y_dim)
    gens = list(product_pres.gens) + list(extra_product_gens)
    product_pres = HomIdealPresentation(product_pres.nvars, tuple(gens))
    z_pres = HomIdealPresentation.from_strings(
        product_pres.nvars, list(graph_gens)) if graph_gens and isinstance(
            graph_gens[0], str) else HomIdealPresentation(
                product_pres.nvars, tuple(graph_gens))
    report = tangent_at_subscheme(product_pres, z_pres, p, q, m, field)
    report.notes.append(
        "graph-projects-isomorphically-to-C not checked (caller contract)")
    return report

