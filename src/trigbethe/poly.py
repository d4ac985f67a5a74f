"""Exact multivariate polynomials.

Coefficients may be int, Fraction or the elements of any ring of the
scalar protocol (Q(zeta_N) in this package); Poly reads only +, -, *
and == on them.  Every operand that is not a Poly is lifted as a
constant, with no test of its type.  Poly never converts a coefficient:
variables, constants and their sums and products built from ints keep
int coefficients, so the Hecke normal forms and the symbolic
transports, which only add and multiply, run on plain integers.  There
is no power operator, and no hash, as a constant equals its value.
"""

from __future__ import annotations


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
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._lift(other).terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o, out = self._lift(other), {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == self._lift(other).terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"Poly({self.terms})"
