"""Exact base fields: arbitrary-precision rationals and large prime fields.

Over QQ a scalar is an ``int`` when it is integral and otherwise a
``fractions.Fraction`` with denominator > 1; over GF(p) it is an int in
``[0, p)``.  There is no floating point anywhere.  Prime mode is an
accelerator; rational mode is the reference.

One scalar rule holds everywhere.  Scalars are plain Python numbers and
combine with ``+``, ``-`` and ``*``, which are exact between ints and
Fractions; a raw sum or product is brought back into the field once, by
``coerce``, where a vector, a matrix or an element dict is produced, and
``reduced`` does that for a whole dict and drops the zeros.  Over QQ
``coerce`` turns an integral Fraction into its numerator, so integral work
stays in int arithmetic; over GF(p) it is ``x % p``.  ``reduced`` applies
that rule to a plain int inline (``v % p`` over GF(p); over QQ an int is
already canonical) and calls ``coerce`` for every other value, so it stays
the one reduction point.  A sum is reduced once, not after every
operation.  Never apply ``/`` or ``//`` to field values: ``/`` of two ints
is a float, and ``//`` on a QQ scalar is an integer division.  A field
object carries ``p`` (0 for QQ), ``one`` and ``coerce`` and no arithmetic
methods.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond any prime we accept
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rationals; an element is an int when it is integral and
    otherwise a Fraction with denominator > 1."""

    name = "QQ"
    p = 0
    one = 1

    def coerce(self, x):
        t = type(x)
        if t is int:
            return x
        if t is Fraction:
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, (Fraction, int)):
            return self.coerce(Fraction(x))
        raise ValidationError(f"cannot coerce {x!r} into QQ")

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """GF(p) for a prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.one = 1 % p

    def coerce(self, x):
        p = self.p
        t = type(x)
        if t is int:
            return x % p
        if t is Fraction or isinstance(x, (Fraction, int)):
            den = x.denominator % p
            if den == 0:
                raise ValidationError(
                    f"denominator of {x} divisible by the prime {p}")
            return x.numerator % p * pow(den, p - 2, p) % p
        raise ValidationError(f"cannot coerce {x!r} into GF({p})")

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def reduced(field, values: dict) -> dict:
    """``values`` with every scalar reduced by ``field.coerce`` and the zeros
    dropped: the one point where raw sums become field elements.  A plain
    int, the common case, is reduced inline rather than by a call."""
    coerce, p = field.coerce, field.p
    if p:
        return {k: cv for k, v in values.items()
                if (cv := v % p if type(v) is int else coerce(v))}
    return {k: cv for k, v in values.items()
            if (cv := v if type(v) is int else coerce(v))}


#: default accelerator prime (> 10**6, comfortably above all structure
#: constants met in the acceptance suite)
DEFAULT_PRIME = 1000003


def field_from_spec(spec: str):
    """Parse a field spec: ``q`` for rationals, ``p:<prime>`` for GF(p)."""
    s = spec.strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return QQ
    if s.startswith("p:"):
        try:
            p = int(s[2:])
        except ValueError:
            raise ValidationError(f"bad prime in field spec {spec!r}") from None
        return PrimeField(p)
    if s in ("p", "prime"):
        return PrimeField(DEFAULT_PRIME)
    raise ValidationError(f"unknown field spec {spec!r} (use 'q' or 'p:<prime>')")
