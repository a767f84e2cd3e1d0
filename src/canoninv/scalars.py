"""Exact scalar arithmetic for invariant computations.

Three coefficient backends are supported:

* plain rationals (``fractions.Fraction``) for the crystallographic groups,
* the real quadratic extension Q(sqrt 5), needed by the H-type groups and
  the pentagonal/decagonal dihedral groups,
* double-precision floats for dihedral groups I2(m) whose mirror angles do
  not live in either exact field.

A computation fixes one backend (a :class:`Field`); mixing coefficients from
different backends raises.  Plain ints and Fractions embed into Q(sqrt 5),
so ``QuadExt(a, 0)`` compares (and hashes) equal to the rational ``a``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

SQRT5 = math.sqrt(5.0)

_RAT_RE = r"-?\d+(?:/\d+)?"
_QUAD_RE = re.compile(rf"^(?P<a>{_RAT_RE})(?P<sign>[+-])(?P<b>\d+(?:/\d+)?)\*sqrt5$")


class QuadExt:
    """Number a + b*sqrt(5) with rational components, kept in lowest terms."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    @staticmethod
    def _coerce(other):
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0)
        return None

    def __add__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self):
        # (a + b s5)^-1 = (a - b s5) / (a^2 - 5 b^2); the norm never vanishes
        # for a nonzero element because sqrt 5 is irrational.
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return QuadExt(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadExt(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sign(self):
        """Exact sign of the real embedding (with sqrt 5 > 0)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: the sign is decided by comparing a^2 with 5 b^2.
        # Equality is impossible for nonzero rational a, b.
        dominant_a = a * a > 5 * b * b
        return 1 if (a > 0) == dominant_a else -1

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __lt__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = QuadExt._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * SQRT5

    def __str__(self):
        if self.b == 0:
            return _format_fraction(self.a)
        sign = "+" if self.b >= 0 else "-"
        return f"{_format_fraction(self.a)}{sign}{_format_fraction(abs(self.b))}*sqrt5"

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r})"


def to_float(x):
    """Nearest double of a scalar from any backend."""
    return float(x)


def is_positive(x):
    """Exact positivity test under the real embedding (floats compared to 0)."""
    if isinstance(x, QuadExt):
        return x.sign() > 0
    return x > 0


def _format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Field:
    """A coefficient backend: coercion, parsing and formatting of scalars."""

    name = "?"

    def coerce(self, v):
        raise NotImplementedError

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    def is_zero(self, v):
        return not v

    def parse(self, s):
        """Scalar from its text form; a malformed one raises ValueError naming it."""
        try:
            return self._parse(s)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ValueError(f"bad coefficient {s!r}: {exc}") from None

    def format(self, v):
        raise NotImplementedError

    def __repr__(self):
        return f"<field {self.name}>"


class RationalField(Field):
    name = "Q"

    def coerce(self, v):
        if type(v) is Fraction:
            return v
        if isinstance(v, QuadExt):
            if v.b != 0:
                raise TypeError("cannot coerce a sqrt5 element into Q")
            return v.a
        if isinstance(v, float):
            raise TypeError("cannot coerce a float into Q; use an explicit Fraction")
        return Fraction(v)

    def _parse(self, s):
        return Fraction(s)

    def format(self, v):
        return _format_fraction(v)


class SqrtFiveField(Field):
    name = "Q(sqrt5)"

    def coerce(self, v):
        if isinstance(v, QuadExt):
            return v
        if isinstance(v, float):
            raise TypeError("cannot coerce a float into Q(sqrt5)")
        return QuadExt(v, 0)

    def _parse(self, s):
        m = _QUAD_RE.match(s)
        if m is None:
            return QuadExt(Fraction(s), 0)
        b = Fraction(m.group("b"))
        if m.group("sign") == "-":
            b = -b
        return QuadExt(Fraction(m.group("a")), b)

    def format(self, v):
        v = self.coerce(v)
        sign = "+" if v.b >= 0 else "-"
        return f"{_format_fraction(v.a)}{sign}{_format_fraction(abs(v.b))}*sqrt5"


class FloatField(Field):
    name = "float"

    def coerce(self, v):
        return float(v)

    def is_zero(self, v):
        return v == 0.0

    def _parse(self, s):
        return float(s)

    def format(self, v):
        return repr(v)


QQ = RationalField()
QSQRT5 = SqrtFiveField()
FLOAT = FloatField()

_FIELDS = {f.name: f for f in (QQ, QSQRT5, FLOAT)}
GOLDEN = QuadExt(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt 5) / 2


def field_by_name(name: str) -> Field:
    try:
        return _FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown field {name!r}; expected one of {sorted(_FIELDS)}") from None
