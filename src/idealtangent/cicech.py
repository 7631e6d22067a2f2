"""Sheaf-cohomology oracle for complete intersections in projective space.

Computes H^i(Z, O_Z(e)) for Z = V(f_1..f_c) in P^n cut by a regular
sequence, via the total complex of the Cech complex on the standard
(n+1)-chart cover tensored with the Koszul resolution.  Laurent-monomial
section bases are truncated at an exponent floor chosen from the twists in
play.  Each twist e gets one profile (h^0, ..., h^n): its total complex is
built and d∘d-checked once, and every degree i is read from it.  A second
total complex at floor + 1 must give the same profile exactly, which guards
the truncation.

This pipeline shares no code with the Harrison/tangent machinery beyond
the base linear algebra, which is what makes it usable as an independent
oracle for the tangent computations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .complexes import CochainComplex
from .errors import ValidationError
from .fields import QQ
from .graded import HomIdealPresentation
from .linalg import Matrix
from .polynomials import count_monomials, mono_mul, monomials_of_degree


@dataclass(frozen=True)
class CIData:
    """A complete intersection in P^n with a twist range of interest."""

    nvars: int          # n + 1 homogeneous coordinates
    forms: tuple        # the defining forms (possibly empty)

    @classmethod
    def from_strings(cls, nvars: int, forms) -> "CIData":
        pres = HomIdealPresentation.from_strings(nvars, forms)
        return cls(nvars, pres.gens)

    @property
    def n(self) -> int:
        return self.nvars - 1

    @property
    def degrees(self) -> tuple:
        return tuple(f.homogeneous_degree() for f in self.forms)


def _laurent_sections(nvars: int, chart: tuple, total: int, floor: int):
    """Monomials of degree `total`, exponents >= 0 off the chart and
    >= -floor on it, in a deterministic order."""
    out = []

    def rec(i, remaining, prefix):
        if i == nvars - 1:
            low = -floor if (i in chart) else 0
            if remaining >= low:
                out.append(prefix + (remaining,))
            return
        low = -floor if (i in chart) else 0
        hi = remaining + floor * sum(1 for j in chart if j > i)
        for e in range(low, hi + 1):
            rec(i + 1, remaining - e, prefix + (e,))

    rec(0, total, ())
    return out


def _koszul_exactness_probe(ci: CIData, degrees_probed, field=QQ):
    """Check the algebraic Koszul complex on the forms is exact away from
    the end in the probed internal degrees; raise otherwise.

    K_r sits in cohomological degree -r, so Koszul homology at step r is
    H^{-r} of that ``CochainComplex``.
    """
    c = len(ci.forms)
    if c == 0:
        return
    degs = ci.degrees

    def term_basis(r, t):
        out = []
        for subset in combinations(range(c), r):
            shift = t - sum(degs[j] for j in subset)
            if shift < 0:
                out.append((subset, ()))
                continue
            out.append((subset, monomials_of_degree(ci.nvars, shift)))
        return out

    for t in degrees_probed:
        terms = {r: term_basis(r, t) for r in range(c + 1)}
        index = {}
        dims = {}
        for r, blocks in terms.items():
            idx = {}
            k = 0
            for subset, monos in blocks:
                for m in monos:
                    idx[(subset, m)] = k
                    k += 1
            index[r] = idx
            dims[r] = k
        diffs = {}
        for r in range(1, c + 1):
            entries = {}
            for (subset, m), col in index[r].items():
                for pos, j in enumerate(subset):
                    rest = tuple(x for x in subset if x != j)
                    sign = (-1) ** pos
                    for fm, fc in ci.forms[j].coeffs.items():
                        key = (rest, mono_mul(m, fm))
                        row = index[r - 1].get(key)
                        if row is None:
                            raise ValidationError("Koszul bookkeeping error")
                        entries[(row, col)] = entries.get((row, col), 0) + fc * sign
            diffs[(-r, 0)] = Matrix(dims[r - 1], dims[r], entries, field)
        koszul = CochainComplex({(-r, 0): n for r, n in dims.items()}, diffs, field)
        for r in range(1, c):
            if koszul.cohomology(-r):
                raise ValidationError(
                    f"not a regular sequence: Koszul homology at step {r}, "
                    f"internal degree {t}")


def _total_complex(ci: CIData, e: int, floor: int, field=QQ) -> CochainComplex:
    nvars = ci.nvars
    c = len(ci.forms)
    degs = ci.degrees
    charts = {}
    for s in range(nvars):
        charts[s] = list(combinations(range(nvars), s + 1))

    index = {}
    dims = {}
    for k in range(-c, nvars):
        idx = {}
        pos = 0
        for r in range(c + 1):
            s = k + r
            if s < 0 or s >= nvars:
                continue
            twist_shift = {subset: e - sum(degs[j] for j in subset)
                           for subset in combinations(range(c), r)}
            for subset in combinations(range(c), r):
                t = twist_shift[subset]
                for chart in charts[s]:
                    for mono in _laurent_sections(nvars, chart, t, floor):
                        idx[(r, subset, chart, mono)] = pos
                        pos += 1
        index[k] = idx
        dims[k] = pos

    diffs = {}
    for k in range(-c, nvars - 1):
        entries = {}
        src, dst = index[k], index[k + 1]
        for (r, subset, chart, mono), col in src.items():
            s = k + r
            # Cech differential: restrict to one-larger chart sets
            for j in range(nvars):
                if j in chart:
                    continue
                nchart = tuple(sorted(chart + (j,)))
                sign = (-1) ** nchart.index(j)
                row = dst.get((r, subset, nchart, mono))
                if row is not None:
                    entries[(row, col)] = entries.get((row, col), 0) + sign
            # Koszul differential, with the sign twisted by the Cech level
            ksign = (-1) ** s
            for pos2, j in enumerate(subset):
                rest = tuple(x for x in subset if x != j)
                sign = ksign * (-1) ** pos2
                for fm, fc in ci.forms[j].coeffs.items():
                    row = dst.get((r - 1, rest, chart, mono_mul(mono, fm)))
                    if row is not None:
                        entries[(row, col)] = entries.get((row, col), 0) + fc * sign
        diffs[(k, 0)] = Matrix(dims[k + 1], dims[k], entries, field)
    terms = {(k, 0): d for k, d in dims.items()}
    return CochainComplex(terms, diffs, field)


def ci_twist_cohomology(ci: CIData, e: int, i: int, field=QQ) -> int:
    """dim H^i(Z, O_Z(e)), exactly; read from the twist's profile."""
    if i < 0 or i > ci.n:
        return 0
    return _twist_profile(ci, e, field)[i]


@lru_cache(maxsize=None)
def _twist_profile(ci: CIData, e: int, field) -> tuple:
    """(h^0, ..., h^n)(Z, O_Z(e)) from one total complex.

    The exponent floor is chosen from the twists in play; the profile is
    recomputed from a second total complex at floor+1 and any disagreement
    raises (truncation guard).
    """
    degs = ci.degrees
    twists = [e] + [e - sum(sub) for r in range(1, len(degs) + 1)
                    for sub in combinations(degs, r)]
    if ci.forms:
        probe_degrees = sorted({t for t in twists if t >= 0} |
                               {sum(degs), sum(degs) + 1})
        _koszul_exactness_probe(ci, probe_degrees, field)
    floor = ci.n + 1 + max(abs(t) for t in twists)
    profiles = []
    for f in (floor, floor + 1):
        total = _total_complex(ci, e, f, field)
        profiles.append(tuple(total.cohomology(i) for i in range(ci.n + 1)))
    if profiles[0] != profiles[1]:
        raise ValidationError(
            f"Laurent truncation unstable at floor {floor}; deepen the floor")
    return profiles[0]


def ci_normal_cohomology(ci: CIData, i: int, field=QQ) -> int:
    """dim H^i(Z, N_{Z/P^n}) with N = (+)_j O_Z(d_j) for a CI."""
    if not ci.forms:
        raise ValidationError("normal bundle of the empty intersection "
                              "(Z = P^n) is zero; nothing to compute")
    return sum(ci_twist_cohomology(ci, d, i, field) for d in ci.degrees)


def projective_space_line_bundle(n: int, e: int, i: int) -> int:
    """Closed-form h^i(P^n, O(e)) used as the c = 0 reference."""
    if i == 0:
        return count_monomials(n + 1, e) if e >= 0 else 0
    if i == n:
        return count_monomials(n + 1, -e - n - 1) if -e - n - 1 >= 0 else 0
    return 0
