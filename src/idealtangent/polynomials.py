"""Homogeneous polynomials over x0..xn with exact rational coefficients.

Monomials are exponent tuples; polynomials are {monomial: Fraction} dicts.
The parser accepts the scenario-file polynomial grammar:

    poly    := term (('+' | '-') term)*
    term    := [sign] [coeff ['*']] factor ('*' factor)*  |  [sign] coeff
    coeff   := integer | integer '/' integer
    factor  := 'x' index ['^' exponent]

Whitespace is free; no parentheses.  Errors carry line/column positions.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ValidationError

Mono = tuple  # exponent tuple, one slot per variable


def mono_degree(m: Mono) -> int:
    return sum(m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_str(m: Mono) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, d: int) -> tuple:
    """All degree-d monomials in nvars variables, descending lex order."""
    if nvars == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return tuple(out)


def count_monomials(nvars: int, d: int) -> int:
    return comb(nvars - 1 + d, nvars - 1)


class Poly:
    """Immutable-by-convention exact polynomial."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict):
        self.nvars = nvars
        self.coeffs = {m: Fraction(c) for m, c in coeffs.items() if c != 0}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def variable(cls, nvars, i):
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {m: Fraction(1)})

    def is_zero(self):
        return not self.coeffs

    def add(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.nvars, out)

    def scale(self, c):
        c = Fraction(c)
        return Poly(self.nvars, {m: c * v for m, v in self.coeffs.items()})

    def sub(self, other):
        return self.add(other.scale(-1))

    def mul(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    def homogeneous_degree(self):
        """The common degree of all terms, or None if inhomogeneous/zero."""
        degs = {mono_degree(m) for m in self.coeffs}
        if len(degs) != 1:
            return None
        return degs.pop()

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs, reverse=True):
            c = self.coeffs[m]
            s = mono_str(m)
            if s == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(s)
            elif c == -1:
                parts.append(f"-{s}")
            else:
                parts.append(f"{c}*{s}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


class _Tokens:
    def __init__(self, text: str, line_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line_offset = line_offset

    def _linecol(self, pos):
        line = self.text.count("\n", 0, pos) + 1 + self.line_offset
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, msg, pos=None):
        line, col = self._linecol(self.pos if pos is None else pos)
        raise ValidationError(f"line {line}, column {col}: {msg}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start:self.pos])


def parse_poly(text: str, nvars: int, line_offset: int = 0) -> Poly:
    """Parse one polynomial in variables x0..x{nvars-1}."""
    tk = _Tokens(text, line_offset)
    if tk.peek() == "":
        tk.error("empty polynomial")
    coeffs: dict[Mono, Fraction] = {}
    first = True
    while True:
        ch = tk.peek()
        if ch == "":
            break
        sign = Fraction(1)
        if ch in "+-":
            if ch == "-":
                sign = Fraction(-1)
            tk.pos += 1
        elif not first:
            tk.error(f"expected '+' or '-', found {ch!r}")
        first = False
        coeff = Fraction(1)
        have_coeff = False
        if tk.peek().isdigit():
            num = tk.take_int()
            if tk.peek() == "/":
                tk.pos += 1
                den = tk.take_int()
                if den == 0:
                    tk.error("zero denominator")
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            have_coeff = True
            if tk.peek() == "*":
                tk.pos += 1
        expo = [0] * nvars
        have_var = False
        while True:
            if tk.peek() == "x":
                tk.pos += 1
                idx = tk.take_int()
                if idx >= nvars:
                    tk.error(f"variable x{idx} out of range (nvars={nvars})")
                e = 1
                if tk.peek() == "^":
                    tk.pos += 1
                    e = tk.take_int()
                expo[idx] += e
                have_var = True
                if tk.peek() == "*":
                    tk.pos += 1
                    continue
            break
        if not have_var and not have_coeff:
            tk.error("expected a coefficient or a variable")
        m = tuple(expo)
        coeffs[m] = coeffs.get(m, Fraction(0)) + sign * coeff
    return Poly(nvars, coeffs)


def parse_homogeneous(text: str, nvars: int, line_offset: int = 0) -> Poly:
    p = parse_poly(text, nvars, line_offset)
    if p.is_zero():
        raise ValidationError("zero generator is not allowed")
    if p.homogeneous_degree() is None:
        raise ValidationError(
            f"inhomogeneous generator {text.strip()!r}: mixed degrees "
            f"{sorted({mono_degree(m) for m in p.coeffs})}")
    return p
