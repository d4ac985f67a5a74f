"""Exact multivariate polynomials.

Coefficients may be int, Fraction or cyclotomic field elements; all
support the arithmetic protocol Poly relies on.  Poly never converts a
coefficient: variables, constants and their sums and products built
from ints keep int coefficients, so the Hecke normal forms and the
symbolic transports, which only add and multiply, run on plain integers.
There is no power operator, and no hash, as a constant equals its value.
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    """Multivariate polynomial: {exponent tuple: coefficient}, fixed arity."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if not c == 0}

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int, coeff=1) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): coeff})

    def _lift(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)) or hasattr(other, "coeffs"):
            return Poly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"Poly({self.terms})"
