"""Exact arithmetic in the cyclotomic field Q(zeta_N).

An element is a polynomial in zeta_N of degree below phi(N), kept as
phi(N) integer numerators over one positive integer denominator (Cohen,
A Course in Computational Algebraic Number Theory, 4.2).  The form is
canonical: the denominator is coprime to the numerators and zero has
denominator 1, so equality is a tuple comparison.

Each field stores, once, the integer coordinates of zeta^j reduced
modulo the cyclotomic polynomial for every j < N, keeps the numerators
and the string of each zeta^j in one table (zeta_table), and from the
coordinates compiles its product into one straight-line function of the
2*phi(N) numerators: the convolution c_s = sum_{i+j=s} a_i b_j, with
each c_s of s >= phi(N) folded into the coordinates of zeta^s.  A
product is one call of that function or, when an operand is rational, a
scaling of the other's numerators.  A Galois conjugate sigma_k (zeta ->
zeta^k) is the power table read at the exponents i*k mod N, so the
inverse x^{-1} = prod_{k != 1} sigma_k(x) / N(x) needs integer products,
a constant term for the norm N(x), and one rational division; x/(x - 1),
the Bethe weight's ratio, is nums/(nums - den) by the same steps.  int
and Fraction operands are used as they are, never lifted to field
elements.  Q itself is CyclotomicField(1).  All operations are exact;
there are no floats here.  Elements are unhashable: a rational one
equals its int or Fraction, whose hash it cannot match.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

Rat = Union[int, Fraction]

DEFAULT_FIELD_ORDER = 6

# building Q(zeta_N) compiles its product, phi(N)^2 terms, so its cost grows
# faster than N (cold: 22 ms at N = 105, 52 ms at the prime N = 113), and
# orders from outside input are bounded; E8 needs N = 60
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

    Instances are interned by order, so each order has one object and
    elements test their fields by identity.  The order is a required
    argument, so copy and pickle, which rebuild an instance with no
    arguments, raise TypeError instead of overwriting an interned field.
    """

    _cache: dict[int, "CyclotomicField"] = {}

    def __new__(cls, order: int):
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

    def __init__(self, order: int):
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
        # zeta_table[e]: the numerators and the string of zeta^e, e < N,
        # read by zeta and by the layers' characters
        table = []
        for power in powers:
            nums = [0] * phi
            for i, c in power:
                nums[i] = c
            nums = tuple(nums)
            table.append((nums, str(FieldElement(self, nums, 1))))
        self.zeta_table: tuple[tuple[tuple[int, ...], str], ...] = tuple(table)
        # the product of numerator tuples, and its constant term alone
        self._product = _straight_line(powers, phi)
        self._constant_term = _straight_line(powers, phi, 0)
        # sigma_k for each k != 1 coprime to N, as the exponents i*k mod N
        # that zeta^i goes to
        self._conjugates = [[i * k % order for i in range(phi)]
                            for k in range(2, order) if gcd(k, order) == 1]
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

    def _conjugate_product(self, nums) -> list[int]:
        """prod of sigma_k(nums) over the k != 1 coprime to N (phi(N) > 1):
        nums times it is the integer norm of nums."""
        prod = None
        for exponents in self._conjugates:
            conj = self._fold(zip(exponents, nums))
            prod = conj if prod is None else self._product(prod, conj)
        return prod

    def zero(self) -> FieldElement:
        """The field's zero; elements are immutable, so it is shared."""
        return self._zero

    def one(self) -> FieldElement:
        return FieldElement(self, self._one, 1)

    def from_rational(self, q: Rat) -> FieldElement:
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)

    def zeta(self, power: int) -> FieldElement:
        """zeta_N ** power, for any integer power, read off zeta_table."""
        return FieldElement(self, self.zeta_table[power % self.order][0], 1)

    def root_exponent(self, k: int) -> int:
        """e with zeta_N ** e a primitive k-th root of unity; needs k | N."""
        if k < 1 or self.order % k != 0:
            raise ValueError(f"Q(zeta_{self.order}) has no primitive root of "
                             f"unity of order {k}; enlarge the field order "
                             f"to a multiple of {k}")
        return self.order // k

    def coerce(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is not self:
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
    if den == 1:
        return FieldElement(field, tuple(nums), 1)
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        return FieldElement(field, tuple(n // g for n in nums), den // g)
    return FieldElement(field, tuple(nums), den)


def _straight_line(powers, phi: int, coord: int | None = None):
    """Compile the product of two numerator tuples a and b into one
    function of a and b: its coordinates as a tuple or, given coord, that
    coordinate alone as an integer.

    c_s = sum_{i+j=s} a_i b_j adds to coordinate k with the coefficient
    of zeta^k in zeta^s (powers[s mod N]); a c_s that feeds one
    coordinate with coefficient +-1 is written out in place, any other
    is computed once.
    """
    order = len(powers)
    coords = range(phi) if coord is None else [coord]
    terms = [[f"a{i}*b{s - i}" for i in range(max(0, s - phi + 1),
                                              min(s, phi - 1) + 1)]
             for s in range(2 * phi - 1)]
    wanted = set(coords)
    uses = [[(k, c) for k, c in powers[s % order] if k in wanted]
            for s in range(2 * phi - 1)]
    lines, out = [], {k: [] for k in coords}
    for s, (products, use) in enumerate(zip(terms, uses)):
        if len(use) == 1 and abs(use[0][1]) == 1:
            sign = "+" if use[0][1] == 1 else "-"
            out[use[0][0]] += [f"{sign} {t}" for t in products]
        elif use:
            lines.append(f"c{s} = {' + '.join(products)}")
            for k, c in use:
                out[k].append(f"{'+' if c > 0 else '-'} "
                              f"{'' if abs(c) == 1 else f'{abs(c)}*'}c{s}")
    sums = [" ".join(out[k]).lstrip("+ ") or "0" for k in coords]
    a_names = "".join(f"a{i}, " for i in range(phi))
    b_names = a_names.replace("a", "b")
    body = [f"{a_names}= a", f"{b_names}= b", *lines,
            "return " + (sums[0] if coord is not None else
                         "(" + ", ".join(sums) + ",)")]
    source = "def product(a, b):\n" + "".join(f"    {line}\n"
                                              for line in body)
    namespace: dict = {}
    exec(compile(source, f"<Q(zeta_{order}) product>", "exec"), namespace)
    return namespace["product"]


class FieldElement:
    """An element of Q(zeta_N): integer numerators `nums` over `den` > 0."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CyclotomicField, nums: tuple[int, ...], den: int):
        self.field = field
        self.nums = nums
        self.den = den

    def __add__(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("field order mismatch")
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
            if other.field is not self.field:
                raise ValueError("field order mismatch")
            a, b = self.den, other.den
            if a == b:
                return _canonical(self.field, [x - y for x, y in
                                               zip(self.nums, other.nums)], a)
            return _canonical(self.field, [x * b - y * a for x, y in
                                           zip(self.nums, other.nums)], a * b)
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("field order mismatch")
            a, b = self.nums, other.nums
            # a rational operand scales the other's numerators
            if not any(b[1:]):
                nums = [x * b[0] for x in a]
            elif not any(a[1:]):
                nums = [a[0] * y for y in b]
            else:
                nums = self.field._product(a, b)
            return _canonical(self.field, nums, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other.numerator, other.denominator)
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
        prod = field._conjugate_product(nums)
        # nums * prod is the norm of nums: an integer in coordinate 0
        norm = field._constant_term(nums, prod)
        return _canonical(field, [x * self.den for x in prod], norm)

    def over_minus_one(self) -> "FieldElement":
        """x/(x - 1), as nums/(nums - den) for x = nums/den.

        With m = nums - den (den taken off the constant coordinate) and
        prod the product of the conjugates of m,
        nums * prod = (m + den) * prod = N(m) + den * prod, so the
        quotient takes one conjugate product, the constant term N(m) and
        one canonical form.  x = 1 raises ZeroDivisionError.
        """
        field, nums, den = self.field, self.nums, self.den
        m = (nums[0] - den,) + nums[1:]
        if not any(nums[1:]):
            if not m[0]:
                raise ZeroDivisionError("x/(x - 1) at x = 1")
            return _canonical(field, nums, m[0])
        prod = field._conjugate_product(m)
        norm = field._constant_term(m, prod)
        return _canonical(field, [norm + den * prod[0]]
                          + [den * x for x in prod[1:]], norm)

    def scale(self, p: int, q: int) -> "FieldElement":
        """x * p/q for integers p and q != 0, with no Fraction built."""
        return _canonical(self.field, [x * p for x in self.nums],
                          self.den * q)

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
            if other.field is not self.field:
                raise ValueError("field order mismatch")
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
            if den == 1:
                mag = abs(n)
            else:
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

