"""Exact arithmetic in K = Q(w), w a primitive cube root of unity.

Elements are stored as r + s*w with rational r, s; the basis {1, w} is the
canonical normal form, so structural equality is semantic equality.  All
reductions use the minimal polynomial w^2 + w + 1 = 0.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL_TYPES = (int, Fraction)


class ScalarFormatError(ValueError):
    """Raised when a scalar string does not match the R / R+S*w / R-S*w grammar."""


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(rf"^({_RAT})(?:([+-])(\d+(?:/\d+)?)\*w)?$")
_LOG10_2 = 0.30102999566398120


def _int_text(n: int) -> str:
    """str(n) for an int of any size.  Past the interpreter's int-to-str digit
    limit it splits n at about half its decimal digits instead of lifting the
    limit globally."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_text(-n)
    half = int(n.bit_length() * _LOG10_2) // 2
    hi, lo = divmod(n, 10**half)
    return _int_text(hi) + _int_text(lo).zfill(half)


def _text_int(text: str) -> int:
    """int(text) for an optionally signed run of decimal digits of any length;
    the inverse of _int_text."""
    try:
        return int(text)
    except ValueError:
        pass
    if text.startswith("-"):
        return -_text_int(text[1:])
    half = len(text) // 2
    return _text_int(text[:-half]) * 10**half + _text_int(text[-half:])


def _parse_rat(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(_text_int(num), _text_int(den) if den else 1)


def _fmt_rat(q) -> str:
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


class CycQ:
    """An element r + s*w of Q(w).  Immutable; all operations return new values."""

    __slots__ = ("r", "s")

    def __init__(self, r=0, s=0):
        # A Fraction from arithmetic is already in lowest terms with a positive
        # denominator, so only an int (or bool) is converted.
        self.r = r if type(r) is Fraction else _as_fraction(r)
        self.s = s if type(s) is Fraction else _as_fraction(s)

    @classmethod
    def parse(cls, text: str) -> "CycQ":
        m = _SCALAR_RE.match(text)
        if m is None:
            raise ScalarFormatError(f"not a scalar: {text!r}")
        r, sign, s = m.groups()
        try:
            if s is None:
                return cls(_parse_rat(r))
            sval = _parse_rat(s)
            return cls(_parse_rat(r), -sval if sign == "-" else sval)
        except ZeroDivisionError:
            raise ScalarFormatError(f"zero denominator in {text!r}") from None

    def __str__(self) -> str:
        if self.s == 0:
            return _fmt_rat(self.r)
        sign = "-" if self.s < 0 else "+"
        return f"{_fmt_rat(self.r)}{sign}{_fmt_rat(abs(self.s))}*w"

    def __repr__(self) -> str:
        return f"CycQ.parse('{self}')"

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.r == other.r and self.s == other.s

    def __hash__(self):
        # a rational value hashes like the int or Fraction it compares equal to
        if not self.s:
            return hash(self.r)
        return hash((self.r, self.s))

    def __bool__(self) -> bool:
        return self.r != 0 or self.s != 0

    def __add__(self, other) -> "CycQ":
        if type(other) is int:
            return CycQ(self.r + other, self.s)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycQ(self.r + other.r, self.s + other.s)

    __radd__ = __add__

    def __sub__(self, other) -> "CycQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycQ(self.r - other.r, self.s - other.s)

    def __rsub__(self, other) -> "CycQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "CycQ":
        return CycQ(-self.r, -self.s)

    def __mul__(self, other) -> "CycQ":
        if type(other) is int:
            return CycQ(self.r * other, self.s * other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (r1 + s1 w)(r2 + s2 w) with w^2 = -1 - w.
        r1, s1, r2, s2 = self.r, self.s, other.r, other.s
        cross = s1 * s2
        return CycQ(r1 * r2 - cross, r1 * s2 + s1 * r2 - cross)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycQ":
        if n < 0:
            return (self ** (-n)).inverse()
        if n == 0:
            return ONE
        # left to right over the bits after the leading one: x**3 is two products
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def conj(self) -> "CycQ":
        """Galois conjugate w -> w^2, i.e. r + s*w -> (r - s) - s*w."""
        return CycQ(self.r - self.s, -self.s)

    def norm_rational(self):
        """u * conj(u) = r^2 - r*s + s^2, a nonnegative rational."""
        return self.r * self.r - self.r * self.s + self.s * self.s

    def inverse(self) -> "CycQ":
        n = self.norm_rational()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conj()
        return CycQ(c.r / n, c.s / n)

    def __truediv__(self, other) -> "CycQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycQ":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def is_rational(self) -> bool:
        return self.s == 0


def _as_fraction(value) -> Fraction:
    if isinstance(value, _RATIONAL_TYPES):
        return Fraction(value)
    raise TypeError(f"a part of a CycQ must be an int or a Fraction, not {type(value).__name__}")


def _coerce(value) -> "CycQ":
    if isinstance(value, CycQ):
        return value
    if isinstance(value, _RATIONAL_TYPES):
        return CycQ(value)
    return NotImplemented


def numerators(scalars) -> tuple:
    """(d, [(p, q), ...]) with each scalar equal to (p + q*w) / d, where d > 0
    is the least common denominator of all their rational parts."""
    d = math.lcm(*(part.denominator for c in scalars for part in (c.r, c.s)))
    return d, [
        (c.r.numerator * (d // c.r.denominator), c.s.numerator * (d // c.s.denominator))
        for c in scalars
    ]


def from_numerators(d: int, rs, ss) -> tuple:
    """The scalars (r + s*w) / d for r, s in zip(rs, ss); the inverse of numerators."""
    return tuple(CycQ(Fraction(r, d), Fraction(s, d)) for r, s in zip(rs, ss))


ZERO = CycQ(0)
ONE = CycQ(1)
OMEGA = CycQ(0, 1)
OMEGA2 = OMEGA * OMEGA
HALF = CycQ(Fraction(1, 2))

# w^k for k = 0, 1, 2; used by the basis-product reduction everywhere.
OMEGA_POW = (ONE, OMEGA, OMEGA2)
