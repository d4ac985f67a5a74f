"""Exact arithmetic in the cyclotomic field Q(zeta_N).

An element is a polynomial in zeta_N of degree below phi(N), kept as
phi(N) integer numerators over one positive integer denominator (Cohen,
A Course in Computational Algebraic Number Theory, 4.2).  The form is
canonical: the denominator is coprime to the numerators and zero has
denominator 1, so equality is a tuple comparison.

Each field stores, once, the integer coordinates of zeta^j reduced
modulo the cyclotomic polynomial for every j < N, and from them a
bilinear product table: for each coordinate k, the (i, j, c) with
zeta^i * zeta^j contributing c * zeta^k.  A product is one pass over
that table or, when an operand is rational, a scaling of the other's
numerators.  A Galois conjugate sigma_k (zeta -> zeta^k) is the power
table read at the exponents i*k mod N, so the inverse
x^{-1} = prod_{k != 1} sigma_k(x) / N(x) needs integer products and one
rational division.  int and Fraction operands are used as they are,
never lifted to field elements.  All operations are exact; there are
no floats here.  Elements are unhashable: a rational one equals its
int or Fraction, whose hash it cannot match.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

Rat = Union[int, Fraction]

DEFAULT_FIELD_ORDER = 6

# building Q(zeta_N) costs time and memory growing faster than N (about 2 s
# at N = 5000), so orders from outside input are bounded; E8 needs N = 60
MAX_FIELD_ORDER = 120


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


# one term of the str() form: sign, then "c", "c*z^k", "z^k" (c = p or p/q)
_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)(\s*\*\s*z(?:\^(\d+))?)?"
                   r"|z(?:\^(\d+))?)\s*")


class CyclotomicField:
    """The field Q(zeta_N), with zeta_N a primitive N-th root of unity.

    Instances are interned by order, so identical orders share one object.
    """

    _cache: dict[int, "CyclotomicField"] = {}

    def __new__(cls, order: int = DEFAULT_FIELD_ORDER):
        inst = cls._cache.get(order)
        if inst is None:
            if order < 1:
                raise ValueError("order must be positive")
            if order > MAX_FIELD_ORDER:
                raise ValueError(f"field order {order} exceeds the maximum "
                                 f"{MAX_FIELD_ORDER}")
            inst = super().__new__(cls)
            cls._cache[order] = inst
        return inst

    def __init__(self, order: int = DEFAULT_FIELD_ORDER):
        if getattr(self, "order", None) == order:
            return
        self.modulus = cyclotomic_polynomial(order)
        self.degree = phi = len(self.modulus) - 1
        # powers[j]: nonzero (index, coefficient) pairs of zeta^j mod Phi_N
        vec = [1] + [0] * phi
        powers = []
        for _ in range(order):
            powers.append([(i, c) for i, c in enumerate(vec[:phi]) if c])
            vec = [0] + vec[:phi]
            top = vec[phi]
            if top:
                vec = [v - top * m for v, m in zip(vec, self.modulus)]
        self._powers = powers
        # table[k]: the (i, j, c) with zeta^i * zeta^j contributing c * zeta^k
        table: list[list[tuple[int, int, int]]] = [[] for _ in range(phi)]
        for i in range(phi):
            for j in range(phi):
                for k, c in powers[(i + j) % order]:
                    table[k].append((i, j, c))
        self._table = table
        self._conjugates = [k for k in range(2, order) if gcd(k, order) == 1]
        self._one = (1,) + (0,) * (phi - 1)
        self._zero = FieldElement(self, (0,) * phi, 1)
        self.order = order

    def __repr__(self) -> str:
        return f"CyclotomicField({self.order})"

    def element(self, coeffs) -> FieldElement:
        """sum_j coeffs[j] * zeta^j, for any number of rational coefficients."""
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        return _canonical(self, self._fold(
            (j, c.numerator * (den // c.denominator))
            for j, c in enumerate(fracs)), den)

    def _fold(self, terms) -> list[int]:
        """Integer coordinates of sum c * zeta^e over the (e, c) in terms."""
        out = [0] * self.degree
        powers, order = self._powers, self.order
        for e, c in terms:
            if c:
                for i, p in powers[e % order]:
                    out[i] += c * p
        return out

    def _mul_nums(self, a, b) -> list[int]:
        """Integer coordinates of the product of numerator tuples a and b."""
        out = []
        for terms in self._table:
            s = 0
            for i, j, c in terms:
                s += c * a[i] * b[j]
            out.append(s)
        return out

    def zero(self) -> FieldElement:
        """The field's zero; elements are immutable, so it is shared."""
        return self._zero

    def one(self) -> FieldElement:
        return FieldElement(self, self._one, 1)

    def from_rational(self, q: Rat) -> FieldElement:
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)

    def zeta(self, power: int = 1) -> FieldElement:
        """zeta_N ** power, for any integer power, read off the power table."""
        nums = [0] * self.degree
        for i, c in self._powers[power % self.order]:
            nums[i] = c
        return FieldElement(self, tuple(nums), 1)

    def root_exponent(self, k: int) -> int:
        """e with zeta_N ** e a primitive k-th root of unity; needs k | N."""
        if k < 1 or self.order % k != 0:
            raise ValueError(f"Q(zeta_{self.order}) has no primitive root of "
                             f"unity of order {k}; enlarge the field order "
                             f"to a multiple of {k}")
        return self.order // k

    def coerce(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field.order != self.order:
                raise ValueError("field order mismatch")
            return value
        if isinstance(value, int):
            return FieldElement(self, (int(value),) + (0,) * (self.degree - 1), 1)
        if isinstance(value, Fraction):
            return self.from_rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into {self!r}")

    def parse(self, text: str) -> FieldElement:
        """Inverse of str(element): signed terms c, c*z^k or z^k, c = p or p/q.

        Anything else (a stray token, a dangling '*', an empty term, a
        zero denominator) raises ValueError.
        """
        if not isinstance(text, str):
            raise ValueError(f"field element must be a string, got {text!r}")
        # integer numerators of the coefficients of zeta^0 .. zeta^(N-1)
        # over one common denominator
        nums, den = [0] * self.order, 1
        pos = 0
        while pos == 0 or pos < len(text):
            m = _TERM.match(text, pos)
            if m is None or m.end() == pos or (pos and m.group(1) is None):
                raise ValueError(f"cannot parse field element {text!r}")
            sign, coeff, starred, p_star, p_bare = m.groups()
            if coeff is None:
                p, q, power = 1, 1, int(p_bare or 1)
            else:
                p, _, q = coeff.partition("/")
                p, q = int(p), int(q or 1)
                if q == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                power = int(p_star or 1) if starred else 0
            if den % q:
                scale = q // gcd(den, q)
                nums = [x * scale for x in nums]
                den *= scale
            nums[power % self.order] += (-p if sign == "-" else p) * (den // q)
            pos = m.end()
        return _canonical(self, self._fold(enumerate(nums)), den)


def _canonical(field: CyclotomicField, nums, den: int) -> "FieldElement":
    """nums/den with the common factor and the sign moved out of den."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        return FieldElement(field, tuple(n // g for n in nums), den // g)
    return FieldElement(field, tuple(nums), den)


class FieldElement:
    """An element of Q(zeta_N): integer numerators `nums` over `den` > 0."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CyclotomicField, nums: tuple[int, ...], den: int):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates in 1, zeta, ..., zeta^(phi-1) as fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def _check(self, other: "FieldElement") -> None:
        if other.field is not self.field and other.field.order != self.field.order:
            raise ValueError("field order mismatch")

    def __add__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            a, b = self.den, other.den
            if a == b:
                return _canonical(self.field, [x + y for x, y in
                                               zip(self.nums, other.nums)], a)
            return _canonical(self.field, [x * b + y * a for x, y in
                                           zip(self.nums, other.nums)], a * b)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            d = self.den
            return _canonical(self.field, [self.nums[0] * q + p * d]
                              + [x * q for x in self.nums[1:]], d * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            a, b = self.den, other.den
            if a == b:
                return _canonical(self.field, [x - y for x, y in
                                               zip(self.nums, other.nums)], a)
            return _canonical(self.field, [x * b - y * a for x, y in
                                           zip(self.nums, other.nums)], a * b)
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            a, b = self.nums, other.nums
            # a rational operand scales the other's numerators
            if not any(b[1:]):
                nums = [x * b[0] for x in a]
            elif not any(a[1:]):
                nums = [a[0] * y for y in b]
            else:
                nums = self.field._mul_nums(a, b)
            return _canonical(self.field, nums, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _canonical(self.field, [x * p for x in self.nums],
                              self.den * q)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """prod of the conjugates sigma_k(x), k != 1, over the norm N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        field, nums = self.field, self.nums
        if not any(nums[1:]):
            return _canonical(field, (self.den,) + (0,) * (field.degree - 1),
                              nums[0])
        prod = None
        for k in field._conjugates:
            # sigma_k: zeta^i -> zeta^(i*k mod N)
            conj = field._fold((i * k, x) for i, x in enumerate(nums))
            prod = conj if prod is None else field._mul_nums(prod, conj)
        # nums * prod is the norm of nums: an integer in coordinate 0
        norm = sum(c * nums[i] * prod[j] for i, j, c in field._table[0])
        return _canonical(field, [x * self.den for x in prod], norm)

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() if other == 1 else self.inverse() * other
        return NotImplemented

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        out = self.field.one()
        base = self
        while exp:
            if exp & 1:
                out = out * base
            exp >>= 1
            if exp:
                base = base * base
        return out

    def __eq__(self, other):
        if other.__class__ is int:
            nums = self.nums
            return self.den == 1 and nums[0] == other and not any(nums[1:])
        if isinstance(other, FieldElement):
            self._check(other)
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.nums[0] == other.numerator
                    and not any(self.nums[1:]))
        return NotImplemented

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums == self.field._one

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def __str__(self) -> str:
        parts = []
        den = self.den
        for i, n in enumerate(self.nums):
            if not n:
                continue
            g = gcd(n, den)
            mag = abs(n) // g if den == g else f"{abs(n) // g}/{den // g}"
            if i == 0:
                parts.append(f"-{mag}" if n < 0 else str(mag))
                continue
            var = "z" if i == 1 else f"z^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self} in Q(zeta_{self.field.order})>"

