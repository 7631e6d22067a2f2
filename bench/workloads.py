"""The benchmark's workloads: scenario text from a seed, and answer checks.

Each workload is one `tangent` scenario in P^2.  `scenario(seed)` returns
the scenario file text the worker parses; `references(sc)` computes,
apart from the timed solve, the dimensions the report must show, one
tuple per independent source.  `check` compares a report with them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

STANDARD_CONIC = "x0^2 - x1*x2"

#: The coordinate change behind `conic-generic-qq`, before the seed's signs:
#: every monomial of the conic gets a coefficient +-1 (determinant 2).
BASE_CHANGE = ((1, 1, 0), (0, 1, 1), (1, 0, 1))


def det3(a) -> int:
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def coordinate_change(seed: int) -> tuple:
    """BASE_CHANGE times a diagonal sign matrix drawn from the seed.

    Every member of this family is conjugate to every other by a sign
    change of coordinates, so all seeds do the same work with the same
    matrix shapes and nonzero counts.
    """
    signs = random.Random(seed).choices((1, -1), k=3)
    return tuple(tuple(g * s for g, s in zip(row, signs)) for row in BASE_CHANGE)


def transformed_conic(a) -> str:
    """The standard conic y0^2 - y1*y2 in coordinates x with y = a x."""
    if det3(a) == 0:
        raise ValueError(f"singular coordinate change {a}")
    coeffs: dict = {}

    def add_product(r, s, sign):
        for i in range(3):
            for j in range(3):
                key = (min(i, j), max(i, j))
                coeffs[key] = coeffs.get(key, 0) + sign * a[r][i] * a[s][j]

    add_product(0, 0, 1)
    add_product(1, 2, -1)
    terms = [f"{c:+d}*" + (f"x{i}^2" if i == j else f"x{i}*x{j}")
             for (i, j), c in sorted(coeffs.items()) if c]
    return " ".join(terms)


def scenario_text(z_gens, window, m, field) -> str:
    lines = ["task = tangent", f"field = {field}", "nvars = 3",
             f"window = {window[0]} {window[1]}", f"m = {m}", "z_gens:"]
    return "\n".join(lines + [f"  {g}" for g in z_gens]) + "\n"


def check(report, references: dict) -> list[str]:
    """Problems with a tangent report; empty when its answers are right.

    `references` maps the name of an independent source to the leading
    dimensions H^0, H^1, ... it gives; the report must agree with each.
    H^0 must also equal the classical tangent dimension.
    """
    problems = []
    for source, dims in references.items():
        got = tuple(report.dims[:len(dims)])
        if got != tuple(dims):
            problems.append(f"H^0..H^{len(dims) - 1} = {got}, but {source} "
                            f"gives {tuple(dims)}")
    if report.dims[0] != report.classical_dim:
        problems.append(f"H^0 = {report.dims[0]} but the classical tangent "
                        f"dimension is {report.classical_dim}")
    return problems


def _oracle(sc, count: int) -> tuple:
    """(h^0, h^1, ...)(Z, N_Z) from the Cech-Koszul oracle over sc.field."""
    from idealtangent.cicech import CIData, ci_normal_cohomology
    ci = CIData(sc.ambient_nvars(), tuple(sc.z_gens))
    return tuple(ci_normal_cohomology(ci, i, sc.field) for i in range(count))


def _standard_conic(workload, field) -> tuple:
    """H^0, H^1, ... of the standard conic at the workload's window."""
    from idealtangent import HomIdealPresentation, tangent_at_subscheme
    from idealtangent.fields import field_from_spec
    if isinstance(field, str):
        field = field_from_spec(field)
    x_pres = HomIdealPresentation(3, ())
    z_pres = HomIdealPresentation.from_strings(3, [STANDARD_CONIC])
    return tuple(tangent_at_subscheme(x_pres, z_pres, *workload.window,
                                      workload.m, field).dims)


@dataclass(frozen=True)
class Workload:
    name: str
    window: tuple
    m: int
    field: str

    def z_gens(self, seed: int) -> list[str]:
        raise NotImplementedError

    def scenario(self, seed: int) -> str:
        return scenario_text(self.z_gens(seed), self.window, self.m, self.field)

    def references(self, sc) -> dict:
        """Dimensions from sources apart from the tangent report under test."""
        raise NotImplementedError


class ConicGFp(Workload):
    """The conic in P^2 over GF(1000003): the large, very sparse rank regime."""

    def z_gens(self, seed):
        return [STANDARD_CONIC]

    def references(self, sc):
        # H^1 has not stabilized at this window (351 here, 0 from [2,8] on),
        # so the oracle gives H^0 only; the whole report must equal the
        # same conic's over QQ, whose exact arithmetic shares no kernel
        # with GF(p).
        return {"the Cech-Koszul oracle": _oracle(sc, 1),
                "h^0(P^1, O(4))": (5,),
                "the same conic over QQ": _standard_conic(self, "q")}


class ConicGenericQQ(Workload):
    """The conic after a seeded integer change of coordinates, over QQ."""

    def z_gens(self, seed):
        return [transformed_conic(coordinate_change(seed))]

    def references(self, sc):
        # GL_3 invariance: the standard conic at the same window has the
        # same dimensions.  H^1 has not stabilized at this window, so it
        # comes from that solve, not from the oracle.
        return {"the standard conic": _standard_conic(self, sc.field),
                "h^0(P^1, O(4))": (5,)}


class PointHarrison(Workload):
    """The point (x1, x2) in P^2 with m = 2, over QQ: assembly-bound."""

    def z_gens(self, seed):
        return ["x1", "x2"]

    def references(self, sc):
        # H^2 has not stabilized at this window and is not checked
        return {"the Cech-Koszul oracle": _oracle(sc, 2),
                "(h^0, h^1)(point, O^2)": (2, 0)}


WORKLOADS = {w.name: w for w in (
    ConicGFp("conic-gfp", (2, 7), 1, "p:1000003"),
    ConicGenericQQ("conic-generic-qq", (2, 5), 1, "q"),
    PointHarrison("point-harrison", (2, 8), 2, "q"),
)}
