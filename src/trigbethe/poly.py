"""Exact multivariate polynomials and univariate rational functions.

Coefficients may be int, Fraction or cyclotomic field elements; all
support the arithmetic protocol these classes rely on.  Poly never
converts a coefficient: variables, constants and powers built from ints
keep int coefficients, so the Hecke normal forms and the symbolic
transports, which only add and multiply, run on plain integers.
Rational functions are kept normalized (monic denominator, common
factors cancelled) so that equality is structural.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


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

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError(f"negative power {exp} of a polynomial")
        out = Poly.constant(self.nvars, 1)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            exp >>= 1
            if exp:
                base = base * base
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, values: Sequence) -> object:
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                for _ in range(k):
                    term = term * v
            total = total + term
        return total

    def render(self, names: Sequence[str] | None = None) -> str:
        names = names or [f"x{i}" for i in range(self.nvars)]
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            mono = "*".join(
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(e) if k)
            if mono:
                bits.append(f"({c})*{mono}")
            else:
                bits.append(f"({c})")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


class UPoly:
    """Dense univariate polynomial over an exact field, low-to-high coeffs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __add__(self, o: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(o.coeffs))
        return UPoly([(self.coeffs[i] if i < len(self.coeffs) else 0)
                      + (o.coeffs[i] if i < len(o.coeffs) else 0)
                      for i in range(n)])

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, o: "UPoly") -> "UPoly":
        return self + (-o)

    def __mul__(self, o: "UPoly") -> "UPoly":
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a == 0:
                for j, b in enumerate(o.coeffs):
                    out[i + j] = out[i + j] + a * b
        return UPoly(out)

    def scale(self, s) -> "UPoly":
        return UPoly([c * s for c in self.coeffs])

    def divmod(self, den: "UPoly") -> tuple["UPoly", "UPoly"]:
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        lead = den.coeffs[-1]
        dd = den.degree
        q = [num[0] - num[0]] * max(1, len(num) - dd)
        for shift in range(len(num) - dd - 1, -1, -1):
            c = num[shift + dd] / lead
            q[shift] = c
            if not c == 0:
                for i, d in enumerate(den.coeffs):
                    num[shift + i] = num[shift + i] - c * d
        return UPoly(q), UPoly(num)

    def gcd(self, o: "UPoly") -> "UPoly":
        a, b = self, o
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a if a.is_zero() else a.monic()

    def monic(self) -> "UPoly":
        lead = self.coeffs[-1]
        if lead == 0:
            return self
        return UPoly([c / lead for c in self.coeffs])

    def evaluate(self, x):
        total = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            total = total * x + c
        return total

    def __eq__(self, o):
        return isinstance(o, UPoly) and self.coeffs == o.coeffs

    def __repr__(self) -> str:
        return "UPoly(" + ", ".join(str(c) for c in self.coeffs) + ")"


class RatFunc:
    """Univariate rational function p/q, normalized with monic denominator.

    Satisfies the scalar protocol used by the generic linear algebra, so
    matrices of RatFunc can be row reduced exactly and then specialized.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        num = UPoly([c / lead for c in num.coeffs])
        den = UPoly([c / lead for c in den.coeffs])
        self.num = num
        self.den = den

    @classmethod
    def from_scalar(cls, s) -> "RatFunc":
        if isinstance(s, int):
            s = Fraction(s)
        one = s - s + 1 if isinstance(s, Fraction) else _scalar_one(s)
        return cls(UPoly([s]), UPoly([one]))

    @classmethod
    def variable(cls, one=Fraction(1)) -> "RatFunc":
        zero = one - one
        return cls(UPoly([zero, one]), UPoly([one]))

    def _lift(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)) or hasattr(other, "coeffs"):
            return RatFunc.from_scalar(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

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
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((tuple(map(str, self.num.coeffs)),
                     tuple(map(str, self.den.coeffs))))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.evaluate(x) / d

    def at_zero(self):
        """Value at the origin; raises on a pole there."""
        if self.den.coeffs[0] == 0:
            raise ZeroDivisionError("pole at 0")
        return self.num.coeffs[0] / self.den.coeffs[0]

    def __repr__(self) -> str:
        if self.den.degree == 0 and self.den.coeffs[0] == 1:
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


def _scalar_one(s):
    if s == 0:
        # derive a unit from the element's own field when available
        fld = getattr(s, "field", None)
        if fld is not None:
            return fld.one()
        raise ValueError("cannot derive a unit from zero scalar")
    return s / s


def _ord_at_zero(p: UPoly) -> int:
    for i, c in enumerate(p.coeffs):
        if not c == 0:
            return i
    raise ValueError("zero polynomial has no finite order")


def valuation_at_zero(f: RatFunc) -> int:
    """Order of vanishing at 0; negative for a pole.  Zero is not allowed."""
    return _ord_at_zero(f.num) - _ord_at_zero(f.den)


def _eps_power(one, k: int) -> RatFunc:
    eps = RatFunc.variable(one)
    out = RatFunc.from_scalar(one)
    base = eps if k >= 0 else RatFunc.from_scalar(one) / eps
    for _ in range(abs(k)):
        out = out * base
    return out


def epsilon_limit_span(rows: Sequence[Sequence[RatFunc]]) -> list[list]:
    """Limit at 0 of the row space of a matrix over rational functions.

    Each row is scaled by a power of the variable until it is regular and
    nonzero at 0.  If the evaluated rows are independent they span the
    limit; otherwise a scalar dependency among the values is pushed one
    order deeper (the dependent combination vanishes at 0, so dividing it
    by the variable stays inside the row space).  Returns the canonical
    reduced basis of the limit subspace.
    """
    from .linalg import nullspace, rref

    work = [list(r) for r in rows if any(not c.is_zero() for c in r)]
    if not work:
        return []
    sample = next(c for r in work for c in r if not c.is_zero())
    one = _scalar_one(sample.num.coeffs[_ord_at_zero(sample.num)])

    for _ in range(10_000):
        for i, row in enumerate(work):
            v = min(valuation_at_zero(c) for c in row if not c.is_zero())
            if v:
                scale = _eps_power(one, -v)
                work[i] = [c * scale for c in row]
        vals = [[c.at_zero() for c in row] for row in work]
        deps = nullspace([[vals[i][j] for i in range(len(work))]
                          for j in range(len(vals[0]))])
        if not deps:
            return rref(vals)[0]
        c = deps[0]
        idx = next(i for i, ci in enumerate(c) if not ci == 0)
        combined = [sum((ci * entry for ci, entry in zip(c, col)),
                        start=RatFunc.from_scalar(one - one))
                    for col in zip(*work)]
        if all(e.is_zero() for e in combined):
            work.pop(idx)       # the rows were dependent as functions
        else:
            work[idx] = combined
        if not work:
            return []
    raise RuntimeError("limit computation did not stabilize in 10000 steps")
