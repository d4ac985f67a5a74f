"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are polynomials in zeta_N with rational coefficients, reduced
modulo the N-th cyclotomic polynomial, so every element is a vector of
phi(N) fractions.  All operations are exact; there are no floats here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

Rat = Union[int, Fraction]

DEFAULT_FIELD_ORDER = 6


def default_field_order(family: str) -> int:
    """Q(zeta_12) for F4, whose layers need 12th roots of unity; else the default."""
    return 12 if family == "F" else DEFAULT_FIELD_ORDER


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Exact division of integer polynomials, coefficients low to high.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // den[-1]
        out[shift] = q
        for i, d in enumerate(den):
            num[shift + i] -= q * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return out, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if rem != [0]:
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(poly)


class CyclotomicField:
    """The field Q(zeta_N), with zeta_N a primitive N-th root of unity.

    Instances are interned by order, so identical orders share one object.
    """

    _cache: dict[int, "CyclotomicField"] = {}

    def __new__(cls, order: int = DEFAULT_FIELD_ORDER):
        inst = cls._cache.get(order)
        if inst is None:
            inst = super().__new__(cls)
            cls._cache[order] = inst
        return inst

    def __init__(self, order: int = DEFAULT_FIELD_ORDER):
        if getattr(self, "order", None) == order:
            return
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1

    def __repr__(self) -> str:
        return f"CyclotomicField({self.order})"

    def element(self, coeffs) -> FieldElement:
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            vec = self._reduce(vec)
        vec += [Fraction(0)] * (self.degree - len(vec))
        return FieldElement(self, tuple(vec))

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        vec = list(vec)
        mod = self.modulus
        for i in range(len(vec) - 1, self.degree - 1, -1):
            c = vec[i]
            if c:
                for j in range(len(mod) - 1):
                    vec[i - self.degree + j] -= c * mod[j]
                vec[i] = Fraction(0)
        return vec[: self.degree]

    def zero(self) -> FieldElement:
        return self.element([])

    def one(self) -> FieldElement:
        return self.element([1])

    def from_rational(self, q: Rat) -> FieldElement:
        return self.element([Fraction(q)])

    def zeta(self, power: int = 1) -> FieldElement:
        """zeta_N ** power, for any integer power."""
        power %= self.order
        vec = [Fraction(0)] * (power + 1)
        vec[power] = Fraction(1)
        return self.element(vec)

    def root_exponent(self, k: int, power: int = 1) -> int:
        """e with zeta_N ** e the power-th power of a primitive k-th root of unity.

        Available only when k | N.
        """
        if k < 1 or self.order % k != 0:
            raise ValueError(f"no {k}-th root of unity in Q(zeta_{self.order});"
                             " enlarge the field order")
        return (self.order // k) * power

    def root_of_unity(self, k: int, power: int = 1) -> FieldElement:
        """A primitive k-th root of unity, available only when k | N."""
        return self.zeta(self.root_exponent(k, power))

    def coerce(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field.order != self.order:
                raise ValueError("field order mismatch")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into {self!r}")

    def parse(self, text: str) -> FieldElement:
        """Inverse of str(element); accepts forms like '1/2 - 3*z^2'."""
        text = text.strip().replace("-", "+-")
        total = self.zero()
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                continue
            neg = chunk.startswith("-")
            if neg:
                chunk = chunk[1:].strip()
            if "z" in chunk:
                head, _, tail = chunk.partition("z")
                head = head.rstrip("*").strip()
                coeff = Fraction(head) if head else Fraction(1)
                power = int(tail[1:]) if tail.startswith("^") else 1
            else:
                coeff = Fraction(chunk)
                power = 0
            term = self.zeta(power) * coeff
            total = total - term if neg else total + term
        return total


class FieldElement:
    """An element of Q(zeta_N); supports field arithmetic and hashing."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _lift(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field.order != self.field.order:
                raise ValueError("field order mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field,
                            tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field,
                            tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        deg = self.field.degree
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        return FieldElement(self.field, tuple(self.field._reduce(prod)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        # Extended Euclid in Q[x] against the cyclotomic modulus.
        mod = [Fraction(c) for c in self.field.modulus]
        r0, r1 = mod, list(self.coeffs)
        while len(r1) > 1 and r1[-1] == 0:
            r1.pop()
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            if len(r1) == 1:
                c = r1[0]
                return self.field.element([x / c for x in s1])
            q, r = _rational_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, s0, r1, s1 = r1, s1, r, s

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        out = self.field.one()
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self == 1

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            mag = abs(c)
            var = "z" if i == 1 else f"z^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self} in Q(zeta_{self.field.order})>"


def _rational_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1] / den[-1]
        q[shift] = c
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
