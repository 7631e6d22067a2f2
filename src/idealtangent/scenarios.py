"""Scenario files: the declarative input format of the command line.

Grammar (line oriented; '#' starts a comment, blank lines ignored):

    scenario   := (assignment | block)*
    assignment := key '=' value
    block      := key ':' NEWLINE (INDENTED line)*

Keys are lowercase identifiers.  Scalar values are free-form strings
interpreted per key; list values are whitespace separated.  Blocks hold
one polynomial per indented line (grammar in polynomials.py).

Recognized keys: task, field, nvars, segre, window, p_range, q_range, m,
weight, arity_cap, twist, max_i, algebra, d_max, x_gens, z_gens, ci_gens.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ValidationError
from .fields import QQ, field_from_spec
from .graded import (HomIdealPresentation, nilpotent_algebra, product_algebra,
                     zero_multiplication_algebra)

TASKS = ("truncate", "tangent", "sweep", "harrison", "operad", "oracle",
         "rmap", "compare")

_SCALAR_KEYS = {"task", "field", "nvars", "segre", "window", "p_range",
                "q_range", "m", "weight", "arity_cap", "twist", "max_i",
                "algebra", "d_max"}
_BLOCK_KEYS = {"x_gens", "z_gens", "ci_gens"}
#: smallest accepted value of the integer keys that have one
_LEAST = {"nvars": 1, "weight": 1, "arity_cap": 2, "max_i": 0, "d_max": 0}
#: most ambient variables, from nvars or segre; checked before any polynomial
#: is parsed, since every term holds an exponent list of that length
NVARS_CAP = 1000


@dataclass
class Scenario:
    task: str
    field: object = None
    nvars: int | None = None
    segre: tuple | None = None
    window: tuple | None = None
    p_range: tuple | None = None
    q_range: tuple | None = None
    m: int = 1
    weight: int = 2
    arity_cap: int = 4
    twist: int | None = None
    max_i: int = 1
    algebra_spec: tuple | None = None
    algebra_at: tuple = (0, 0)    # (line, column) of the algebra value
    d_max: int = 8
    x_gens: list = dc_field(default_factory=list)
    z_gens: list = dc_field(default_factory=list)
    ci_gens: list = dc_field(default_factory=list)

    def ambient_nvars(self) -> int:
        if self.segre is not None:
            a, b = self.segre
            return (a + 1) * (b + 1)
        if self.nvars is None:
            raise ValidationError("scenario must set nvars or segre")
        return self.nvars

    def build_algebra(self):
        """Small test algebras for harrison-type tasks."""
        if self.algebra_spec is None:
            raise ValidationError("scenario needs an 'algebra' entry")
        return _algebra_from_spec(self.algebra_spec, self.field or QQ,
                                  self.algebra_at)


def _algebra_from_spec(spec: tuple, field, at: tuple):
    where = f"line {at[0]}, column {at[1]}"
    kind, args = spec[0] if spec else "", spec[1:]
    sized = {"nilpotent": nilpotent_algebra, "zero": zero_multiplication_algebra}
    if kind in sized:
        if len(args) != 1:
            raise ValidationError(
                f"{where}: {kind} expects one size, got {' '.join(args)!r}")
        return sized[kind](_int(args[0], f"{kind} size", *at, least=1), field)
    if kind == "product":
        half = list(args)
        # product <kind> <arg> <kind> <arg>
        if len(half) != 4:
            raise ValidationError(
                f"{where}: product algebra spec needs two factors")
        a = _algebra_from_spec((half[0], half[1]), field, at)
        b = _algebra_from_spec((half[2], half[3]), field, at)
        return product_algebra(a, b)
    raise ValidationError(f"{where}: unknown algebra spec {kind!r} "
                          "(use nilpotent/zero/product)")


def _intlist(value: str, key: str, lineno: int, col: int):
    try:
        return tuple(int(tok) for tok in value.split())
    except ValueError:
        raise ValidationError(f"line {lineno}, column {col}: {key} expects "
                              f"integers, got {value!r}") from None


def _int(value: str, key: str, lineno: int, col: int, least=None,
         most=None) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ValidationError(f"line {lineno}, column {col}: {key} expects "
                              f"an integer, got {value!r}") from None
    if least is not None and n < least:
        raise ValidationError(f"line {lineno}, column {col}: {key} must be "
                              f"at least {least}, got {n}")
    if most is not None and n > most:
        raise ValidationError(f"line {lineno}, column {col}: {key} must be "
                              f"at most {most}, got {n}")
    return n


def parse_scenario(text: str) -> Scenario:
    data: dict = {}
    blocks: dict = {k: [] for k in _BLOCK_KEYS}
    current_block = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indented = stripped[0] in " \t"
        line = stripped.strip()
        if indented:
            if current_block is None:
                raise ValidationError(
                    f"line {lineno}, column 1: indented line outside a block")
            blocks[current_block].append((line, lineno))
            continue
        current_block = None
        if line.endswith(":"):
            key = line[:-1].strip()
            if key not in _BLOCK_KEYS:
                raise ValidationError(
                    f"line {lineno}, column 1: unknown block {key!r}")
            current_block = key
            continue
        if "=" not in line:
            raise ValidationError(
                f"line {lineno}, column 1: expected 'key = value' or 'key:'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCALAR_KEYS:
            raise ValidationError(f"line {lineno}, column 1: unknown key {key!r}")
        col = len(stripped) - len(value) + 1   # where the value starts
        data[(key, lineno)] = (value, col)

    sc = Scenario(task="")
    for (key, lineno), (value, col) in data.items():
        if key == "task":
            if value not in TASKS:
                raise ValidationError(
                    f"line {lineno}, column 1: unknown task {value!r}; "
                    f"expected one of {', '.join(TASKS)}")
            sc.task = value
        elif key == "field":
            sc.field = field_from_spec(value)
        elif key == "segre":
            pair = _intlist(value, key, lineno, col)
            if len(pair) != 2 or min(pair) < 0:
                raise ValidationError(
                    f"line {lineno}, column {col}: segre expects two "
                    f"dimensions, each at least 0, got {value!r}")
            if (pair[0] + 1) * (pair[1] + 1) > NVARS_CAP:
                raise ValidationError(
                    f"line {lineno}, column {col}: segre {value!r} needs "
                    f"more than {NVARS_CAP} ambient variables")
            sc.segre = pair
        elif key == "window":
            pair = _intlist(value, key, lineno, col)
            if len(pair) != 2 or pair[0] > pair[1] or pair[0] < 0:
                raise ValidationError(
                    f"line {lineno}, column 1: window expects 'p q' with "
                    f"0 <= p <= q")
            sc.window = pair
        elif key == "p_range":
            sc.p_range = _intlist(value, key, lineno, col)
        elif key == "q_range":
            sc.q_range = _intlist(value, key, lineno, col)
        elif key in ("nvars", "m", "weight", "arity_cap", "twist", "max_i",
                     "d_max"):
            setattr(sc, key, _int(value, key, lineno, col, _LEAST.get(key),
                                  NVARS_CAP if key == "nvars" else None))
        elif key == "algebra":
            sc.algebra_spec = tuple(value.split())
            sc.algebra_at = (lineno, col)
    if not sc.task:
        raise ValidationError("scenario does not declare a task")
    if sc.field is None:
        sc.field = QQ

    from .polynomials import parse_homogeneous
    nvars = None
    if sc.nvars is not None or sc.segre is not None:
        nvars = sc.ambient_nvars()
    for key in sorted(_BLOCK_KEYS):
        for line, lineno in blocks[key]:
            if nvars is None:
                raise ValidationError(
                    f"line {lineno}, column 1: polynomial block before "
                    f"nvars/segre is declared")
            try:
                poly = parse_homogeneous(line, nvars)
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
            getattr(sc, key).append(poly)
    return sc


def presentation_from(sc: Scenario, gens, extra=()) -> HomIdealPresentation:
    return HomIdealPresentation(sc.ambient_nvars(), tuple(extra) + tuple(gens))
