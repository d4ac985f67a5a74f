"""Exact oracles shared by the tests; no command-line path uses them.

- UPoly and RatFunc: univariate polynomials and rational functions over
  an exact field.  Rational functions are kept normalized (monic
  denominator, common factors cancelled), so equality is structural, and
  they obey the scalar protocol of trigbethe.linalg, so matrices of them
  row-reduce exactly.  They lift int, Fraction and field elements by
  type, and RatFunc has over_minus_one, so bethe_weight takes it.
  valuation_at_zero and epsilon_limit_span take the exact limit at 0 of
  a row span along a symbolic path.
- mat_mul: the dense matrix product; det: the determinant, by
  elimination; row_space_equal: equal row spaces, by comparing rrefs; batch_hermite_form: the Hermite form of a whole integer
  matrix, column by column; evaluate: a Poly at a point.
- sample_q: a seeded torus point off the arrangement, for the Hecke
  family; hecke_is_zero: whether a Hecke element is zero;
  product_cleared_numerator: a commutator-table coefficient cleared of
  its denominators by Poly products, the reference of the packed
  hecke.cleared_numerator; holonomy_image: the degree-one map into the
  Hecke algebra at a numeric t with the old -x/t sign on the tau block,
  kept as the known-wrong variant that a test pins.
- bethe_rows and gaudin: the Bethe family of a holonomy space at an
  interior torus point, read through bethe_family, and the rational
  Gaudin family.
- table_product: the product of two numerator tuples of Q(zeta_N) by one
  pass over the bilinear table (i, j, c), zeta^i * zeta^j contributing
  c * zeta^k, the reference of the field's compiled product.
- char_value: a character at a torus point, by powers of field
  elements; powered_point_on_layer: a point of a layer built from them,
  the reference of layers.point_on_layer, which reads exponents.
- roots_span_by_fold: whether a layer's roots span its lattice, by
  Hermite insertions root by root, the reference of the flag the layer
  walk records (Layer.roots_span_lattice).
- restricted_ambient: the sub-arrangement of the roots supported on a
  set of simple roots, in that set's coordinates, whose own walk is the
  reference of the sub-arrangements read from one walk (subset_layers);
  it stands in for the root system with what the walk reads of it.
- root_neighbours: each positive root's neighbours in the
  non-orthogonality graph, by the pairing of every pair, the reference
  of the graph is_indecomposable reads from the root system's tables.
- ModularRing and Mod: the prime field F_p with zeta_N sent to a
  primitive N-th root mod p, which provides the scalar protocol the point
  construction reads (the ring's zero and coerce; +, -, *, /, 1/x, ==,
  is_zero, is_one, over_minus_one and scale on an element); its image
  reduces Q(zeta_N) into it.  modular_reduced rebuilds a point over it.
- The spin chain and the type-A identities over Q, the reference of the
  integer checks: dense chain operators from Kronecker products of the
  one-site matrices (dense_place, dense_casimir_pair, ...), the k-th
  trigonometric element and a represented pair vector as rational
  (coefficient, operator key) terms, dense_integer_combination (rational
  terms with cleared denominators),
  and the per-sample verdicts of check commutativity (spin_failures) and
  check typea (typea_verdicts) at a rational point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from trigbethe.bethe import HolonomySpace, XPoint, stratum_values
from trigbethe.field import CyclotomicField, FieldElement
from trigbethe.hecke import HeckeAlgebra, q_power
from trigbethe.lattice import hermite_insert, smith_normal_form
from trigbethe.layers import Layer
from trigbethe.linalg import nullspace, rref
from trigbethe.poly import Poly
from trigbethe.roots import (Coords, IntMatrix, RootSystem, gram_inner,
                             root_chain)


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def row_space_equal(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    return rref(a)[0] == rref(b)[0]


def det(a: Sequence[Sequence]) -> object:
    """Determinant by exact elimination with division; an int pivot is
    inverted as a Fraction, so an integer matrix gives an exact result."""
    mat = [list(r) for r in a]
    n = len(mat)
    if n == 0:
        return Fraction(1)
    sign_flip = False
    result = None
    for c in range(n):
        pr = next((i for i in range(c, n) if not mat[i][c] == 0), None)
        if pr is None:
            x = mat[0][0]
            return x - x  # structural zero of the right scalar type
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            sign_flip = not sign_flip
        piv = mat[c][c]
        result = piv if result is None else result * piv
        inv = Fraction(1, piv) if isinstance(piv, int) else 1 / piv
        for i in range(c + 1, n):
            if not mat[i][c] == 0:
                f = mat[i][c] * inv
                mat[i] = [a_ - f * b_ for a_, b_ in zip(mat[i], mat[c])]
    return -result if sign_flip else result


def batch_hermite_form(rows):
    """Row-style Hermite form of a whole matrix at once, column by column:
    the independent oracle for the insertion-built hermite_normal_form."""
    M = [list(map(int, r)) for r in rows if any(r)]
    if not M:
        return ()
    n = len(M[0])
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, len(M)) if M[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(M[i][c]))
            M[r], M[piv] = M[piv], M[r]
            clean = True
            for i in range(r + 1, len(M)):
                if M[i][c]:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    if M[i][c]:
                        clean = False
            if clean:
                break
        if r < len(M) and M[r][c]:
            if M[r][c] < 0:
                M[r] = [-a for a in M[r]]
            for i in range(r):  # entries above a pivot reduced into [0, pivot)
                q = M[i][c] // M[r][c]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            r += 1
            if r == len(M):
                break
    return tuple(tuple(row) for row in M[:r])


def evaluate(p: Poly, values: Sequence):
    """p at the point values, one value per variable."""
    total = 0
    for e, c in p.terms.items():
        term = c
        for v, k in zip(values, e):
            for _ in range(k):
                term = term * v
        total = total + term
    return total


def sample_q(rs: RootSystem, seed: int) -> tuple[Fraction, ...]:
    """Seeded torus point with no root power equal to 1."""
    rng = random.Random(f"hecke-q-{rs.label}-{seed}")
    while True:
        q = tuple(Fraction(rng.randint(2, 60), rng.randint(2, 60))
                  for _ in range(rs.rank))
        if all(q_power(q, a) != 1 for a in rs.positive_roots):
            return q


def hecke_is_zero(a: dict) -> bool:
    """Whether a Hecke element {group element: Poly} is zero."""
    return all(p.is_zero() for p in a.values())


def product_cleared_numerator(rs: RootSystem, coeff: dict) -> Poly:
    """sum over the monomials of coeff of its value times u_b or 1 - u_b
    for each involved root b (u_b = q^b, as the monomial holds b or not),
    one Poly product per factor."""
    involved = sorted({b for mono in coeff for b in mono})
    one = Poly.constant(rs.rank, 1)
    u = {b: Poly(rs.rank, {rs.positive_roots[b]: 1}) for b in involved}
    out = Poly(rs.rank)
    for mono, val in coeff.items():
        term = Poly.constant(rs.rank, val)
        for b in involved:
            term = term * (u[b] if b in mono else one - u[b])
        out = out + term
    return out


def holonomy_image(alg: HeckeAlgebra, space: HolonomySpace, vec, tval
                   ) -> dict[tuple[IntMatrix, tuple[int, ...]], Fraction]:
    """Degree-one correspondence at numeric t: each t_alpha becomes
    (reflection - identity), each tau block -1/t times an x."""
    out: dict[tuple[IntMatrix, tuple[int, ...]], Fraction] = {}
    zero_e = (0,) * alg.n

    def bump(key, val):
        out[key] = out.get(key, Fraction(0)) + val

    for idx, a in enumerate(space.pos):
        c = vec[idx].as_rational()
        if c:
            bump((alg.rs.reflection_in_root(a), zero_e), c)
            bump((alg.ident, zero_e), -c)
    for i in range(alg.n):
        c = vec[space.npos + i].as_rational()
        if c:
            e = [0] * alg.n
            e[i] = 1
            bump((alg.ident, tuple(e)), -c / Fraction(tval))
    return {k: v for k, v in out.items() if v != 0}


def bethe_rows(space: HolonomySpace, point, hs) -> list[list]:
    """The Bethe vectors at an interior torus point, one per h in hs."""
    rank = space.rs.rank
    return space.bethe_family(stratum_values(space.rs, range(rank), point), hs)


@cache
def _product_table(field: CyclotomicField) -> list[list[tuple[int, int, int]]]:
    """table[k]: the (i, j, c) with zeta^i * zeta^j contributing c * zeta^k,
    read off the field's power table."""
    phi, order = field.degree, field.order
    table: list[list[tuple[int, int, int]]] = [[] for _ in range(phi)]
    for i in range(phi):
        for j in range(phi):
            for k, c in field._powers[(i + j) % order]:
                table[k].append((i, j, c))
    return table


def table_product(field: CyclotomicField, a, b) -> list[int]:
    """Integer coordinates of the product of numerator tuples a and b."""
    return [sum(c * a[i] * b[j] for i, j, c in terms)
            for terms in _product_table(field)]


def char_value(field: CyclotomicField, point, coords) -> FieldElement:
    """prod_i point[i] ** coords[i]: the character e^coords at a torus point."""
    out = None
    for y, k in zip(point, coords):
        if k:
            term = y if k == 1 else y ** k
            out = term if out is None else out * term
    return field.one() if out is None else out


def char_values(layer: Layer) -> tuple[FieldElement, ...]:
    """The layer's character values: zeta_N^e for each e in char_exps."""
    return tuple(layer.field.zeta(e) for e in layer.char_exps)


def powered_point_on_layer(layer: Layer, params: Sequence[Fraction] = ()
                           ) -> tuple[FieldElement, ...]:
    """point_on_layer as first written: with U B V = [I 0] the Smith form
    of the saturated basis, every value on the basis Vinv of Z^n is lifted
    into Q(zeta_N), a character value for i < r and a parameter (default
    1) beyond, and coordinate j is their product to the powers V[j]."""
    field, n = layer.field, layer.ambient_dim
    sf = smith_normal_form([list(r) for r in layer.basis], ncols=n)
    assert all(d == 1 for d in sf.divisors), "layer lattice must be saturated"
    r = sf.rank
    values = [field.zeta(layer.char_exponent(sf.Vinv[i])) for i in range(r)]
    values += [field.from_rational(p) for p in params]
    values += [field.one()] * (n - len(values))
    return tuple(char_value(field, values, sf.V[j]) for j in range(n))


class SubArrangement(NamedTuple):
    """Positive roots in positive-root order in Z^rank, with what the
    layer walk reads of a root system: rank, positive_roots,
    positive_index and chain."""

    rank: int
    positive_roots: tuple[Coords, ...]

    @property
    def positive_index(self) -> dict[Coords, int]:
        return {a: k for k, a in enumerate(self.positive_roots)}

    def chain(self, subset: Iterable[int]) -> tuple:
        """The height chain over the coordinate vectors, built afresh on
        every call; the walk reads it over all of them."""
        assert tuple(subset) == tuple(range(self.rank))
        units = [tuple(int(i == j) for j in range(self.rank))
                 for i in range(self.rank)]
        return tuple(root_chain(self.positive_roots, units))


def restricted_ambient(rs: RootSystem, subset: Sequence[int]
                       ) -> SubArrangement:
    """The sub-arrangement of the roots supported on a set of simple roots."""
    idx = sorted(subset)
    return SubArrangement(len(idx), tuple(
        tuple(r[i] for i in idx) for r in rs.roots_with_support_in(idx)))


def root_neighbours(rs: RootSystem) -> dict[Coords, set[Coords]]:
    """Each positive root's neighbours: the other positive roots it pairs
    nontrivially with."""
    pos = rs.positive_roots
    return {a: {b for b in pos if b != a and gram_inner(rs.gram, a, b)}
            for a in pos}


def roots_span_by_fold(layer: Layer) -> bool:
    """Whether the layer's roots span its lattice.  The roots lie in the
    saturated lattice the basis spans, so their Hermite form, folded root
    by root, cannot change once it equals the basis; the fold stops
    there."""
    hnf: tuple = ()
    for a in layer.roots_pos:
        if hnf == layer.basis:
            break
        hnf = hermite_insert(hnf, a)
    return hnf == layer.basis


def gaudin(space: HolonomySpace, chi: Sequence, h_coords: Sequence) -> list:
    """Rational family: t-coefficients alpha(h)/alpha(chi), no tau part."""
    terms = {}
    for a in space.pos:
        achi = space.alpha_of_h(a, chi)
        if achi == 0:
            raise ZeroDivisionError(f"direction chi vanishes on root {a}")
        terms[a] = space.alpha_of_h(a, h_coords) / achi
    return space.vector(terms)


def root_of_unity_mod(p: int, order: int) -> int:
    """An element of multiplicative order exactly `order` mod the prime p,
    which needs order | p - 1."""
    assert (p - 1) % order == 0
    primes = [q for q in range(2, order + 1)
              if order % q == 0 and all(q % d for d in range(2, q))]
    for g in range(2, p):
        z = pow(g, (p - 1) // order, p)
        if all(pow(z, order // q, p) != 1 for q in primes):
            return z
    raise ValueError(f"no root of unity of order {order} mod {p}")


class ModularRing(NamedTuple):
    """F_p, with zeta_N sent to z: image is a ring map from Q(zeta_N)
    exactly when z is a primitive N-th root of unity mod p, and a value
    whose denominator p divides (a bad reduction) raises ZeroDivisionError."""

    p: int
    order: int
    z: int

    def zero(self) -> Mod:
        return Mod(self, 0)

    def coerce(self, value) -> Mod:
        value = Fraction(value)
        return Mod(self, value.numerator) / value.denominator

    def image(self, x: FieldElement) -> Mod:
        """x = sum nums[i] zeta^i / den, with zeta sent to z."""
        return Mod(self, sum(c * pow(self.z, i, self.p)
                             for i, c in enumerate(x.nums))) / x.den


class Mod:
    """A residue mod ring.p; int and Fraction operands are reduced too."""

    __slots__ = ("ring", "v")
    __hash__ = None

    def __init__(self, ring: ModularRing, v: int):
        self.ring = ring
        self.v = v % ring.p

    def _value(self, other) -> int | None:
        if isinstance(other, Mod):
            assert other.ring == self.ring
            return other.v
        if isinstance(other, int):
            return other
        if isinstance(other, Fraction):
            return other.numerator * self._inverse(other.denominator)
        return None

    def _inverse(self, v: int) -> int:
        if v % self.ring.p == 0:
            raise ZeroDivisionError(f"{v} is 0 mod {self.ring.p}")
        return pow(v, -1, self.ring.p)

    def __add__(self, other):
        o = self._value(other)
        return NotImplemented if o is None else Mod(self.ring, self.v + o)

    __radd__ = __add__

    def __neg__(self):
        return Mod(self.ring, -self.v)

    def __sub__(self, other):
        o = self._value(other)
        return NotImplemented if o is None else Mod(self.ring, self.v - o)

    def __rsub__(self, other):
        o = self._value(other)
        return NotImplemented if o is None else Mod(self.ring, o - self.v)

    def __mul__(self, other):
        o = self._value(other)
        return NotImplemented if o is None else Mod(self.ring, self.v * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._value(other)
        return NotImplemented if o is None \
            else Mod(self.ring, self.v * self._inverse(o))

    def __rtruediv__(self, other):
        o = self._value(other)
        return NotImplemented if o is None \
            else Mod(self.ring, o * self._inverse(self.v))

    def __eq__(self, other):
        o = self._value(other)
        return NotImplemented if o is None else (self.v - o) % self.ring.p == 0

    def is_zero(self) -> bool:
        return self.v == 0

    def is_one(self) -> bool:
        return self.v == 1

    def over_minus_one(self) -> Mod:
        return self / (self - 1)

    def scale(self, p: int, q: int) -> Mod:
        return self * p / q


def modular_reduced(rs: RootSystem, ring: ModularRing, x: XPoint) -> list:
    """The rref rows of x rebuilt over ring on rs by XPoint.at, its torus
    point y reduced into ring."""
    y = tuple(map(ring.image, x.point))
    return XPoint.at(rs, ring, x.word, x.subset, y, x.chart.sets,
                     x.tvals).reduced


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
        # a field element has no quotient operator: scale by 1/lead
        inv = 1 / den.coeffs[-1]
        dd = den.degree
        q = [num[0] - num[0]] * max(1, len(num) - dd)
        for shift in range(len(num) - dd - 1, -1, -1):
            c = num[shift + dd] * inv
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
        inv = 1 / lead
        return UPoly([c * inv for c in self.coeffs])

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
        inv = 1 / den.coeffs[-1]
        num = UPoly([c * inv for c in num.coeffs])
        den = UPoly([c * inv for c in den.coeffs])
        self.num = num
        self.den = den

    @classmethod
    def from_scalar(cls, s) -> "RatFunc":
        if isinstance(s, int):
            s = Fraction(s)
        return cls(UPoly([s]), UPoly([_scalar_one(s)]))

    @classmethod
    def variable(cls, one=Fraction(1)) -> "RatFunc":
        zero = one - one
        return cls(UPoly([zero, one]), UPoly([one]))

    def _lift(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
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

    def over_minus_one(self) -> "RatFunc":
        return self / (self - 1)

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.evaluate(x) * (1 / d)

    def at_zero(self):
        """Value at the origin; raises on a pole there."""
        if self.den.coeffs[0] == 0:
            raise ZeroDivisionError("pole at 0")
        return self.num.coeffs[0] * (1 / self.den.coeffs[0])

    def __repr__(self) -> str:
        if self.den.degree == 0 and self.den.coeffs[0] == 1:
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


def _scalar_one(s):
    """The unit of the ring of s: Q(zeta_N) for a field element, else Q."""
    return s.field.one() if isinstance(s, FieldElement) else Fraction(1)


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


# ----------------------------------------------------------------------
# the spin chain and the type-A identities over Q

HALF = Fraction(1, 2)
ID2 = [[1, 0], [0, 1]]
E = [[0, 1], [0, 0]]
F = [[0, 0], [1, 0]]
H = [[1, 0], [0, -1]]
_UNITS = [(a, b) for a in (0, 1) for b in (0, 1)]


def kron(a, b):
    """Kronecker product, blocks of b scaled by entries of a."""
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def dense_add(a, b, s=1):
    return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(a, s):
    return [[s * x for x in row] for row in a]


def dense_place(factors, n):
    """The tensor product of factors[slot] (the identity elsewhere)."""
    mats = [factors.get(slot, ID2) for slot in range(1, n + 1)]
    mat = mats[0]
    for m in mats[1:]:
        mat = kron(mat, m)
    return mat if mats else [[Fraction(1)]]


def dense_casimir_pair(i, j, n):
    out = dense_add(dense_place({i: E, j: F}, n), dense_place({i: F, j: E}, n))
    return dense_add(out, dense_place({i: H, j: H}, n), HALF)


def dense_lowering_pair(i, j, n):
    return dense_place({i: F, j: E}, n)


def dense_trig_hamiltonian(theta, z, k, n):
    """The k-th trigonometric element at z, unscaled."""
    zk = Fraction(z[k - 1])
    out = dense_scale(dense_place({k: theta}, n), 1 / zk)
    for j in range(1, n + 1):
        if j != k:
            out = dense_add(out, dense_casimir_pair(k, j, n),
                            1 / (zk - z[j - 1]))
            out = dense_add(out, dense_lowering_pair(k, j, n), -1 / zk)
    return out


def dense_represent_pair_vector(pairs, coeffs, theta, n):
    out = [[Fraction(0)] * 2 ** n for _ in range(2 ** n)]
    for (i, j), c in zip(pairs, coeffs):
        if i == 0:
            block = dense_place({j: theta}, n)
            for l in range(1, n + 1):
                if l != j:
                    block = dense_add(block, dense_lowering_pair(j, l, n), -1)
        else:
            block = dense_casimir_pair(i, j, n)
        out = dense_add(out, block, c)
    return out


@cache
def dense_chain_operator(key: tuple, n: int) -> tuple[tuple[int, ...], ...]:
    """A constant operator of spin.chain_operators, from Kronecker
    products: ("unit", k, a, b), ("lower", i, j) or ("omega2", i, j)."""
    if key[0] == "unit":
        _, k, a, b = key
        unit = [[int((r, c) == (a, b)) for c in (0, 1)] for r in (0, 1)]
        mat = dense_place({k: unit}, n)
    elif key[0] == "lower":
        mat = dense_lowering_pair(key[1], key[2], n)
    else:
        mat = dense_scale(dense_casimir_pair(key[1], key[2], n), 2)
    return tuple(tuple(int(x) for x in row) for row in mat)


def hamiltonian_terms(theta, z, k, n):
    """The k-th trigonometric element at the rational point z as
    (coefficient, operator key) terms: the twist at slot k over z_k,
    Casimir simple fractions, minus lowering terms over z_k."""
    zk = Fraction(z[k - 1])
    terms = [(theta[a][b] / zk, ("unit", k, a, b)) for a, b in _UNITS]
    for j in range(1, n + 1):
        if j != k:
            terms.append((HALF / (zk - z[j - 1]),
                          ("omega2", min(j, k), max(j, k))))
            terms.append((-1 / zk, ("lower", k, j)))
    return terms


def pair_vector_terms(pairs, coeffs, theta, n):
    """A pair-generator vector on {0..n}, represented on the chain, as
    rational (coefficient, operator key) terms."""
    terms = []
    for (i, j), c in zip(pairs, coeffs):
        if c == 0:
            continue
        if i == 0:
            terms += [(c * theta[a][b], ("unit", j, a, b)) for a, b in _UNITS]
            terms += [(-c, ("lower", j, l)) for l in range(1, n + 1) if l != j]
        else:
            terms.append((c * HALF, ("omega2", i, j)))
    return terms


def dense_integer_combination(terms, n):
    """sum c * dense_chain_operator(key, n) over rational terms, times the
    lcm of their denominators: an integer matrix, zero exactly when the
    combination is."""
    d = lcm(*(Fraction(c).denominator for c, _ in terms))
    out = [[0] * 2 ** n for _ in range(2 ** n)]
    for c, key in terms:
        ci = int(c * d)
        if ci:
            out = dense_add(out, dense_chain_operator(key, n), ci)
    return out


def _bethe_image(z, k):
    """The reindexed k-th trigonometric element at z over Q, as
    {pair of {0..n}: coefficient}: tau_k sent to -(sum of {c,k}, c < k),
    pair {i,j} weighted -u/(u-1), u = z_i/z_j, signed by the side of k."""
    out = {(c, k): Fraction(-1) for c in range(k)}
    for j in range(1, len(z) + 1):
        if j != k:
            i_, j_ = min(j, k), max(j, k)
            u = Fraction(z[i_ - 1]) / z[j_ - 1]
            weight = -u / (u - 1)
            out[i_, j_] = out.get((i_, j_), 0) + (weight if i_ == k
                                                  else -weight)
    return out


def _rational_element(points, k):
    """sum of pairs {k,j}/(p_k - p_j) as {pair: coefficient}."""
    return {(min(j, k), max(j, k)): 1 / Fraction(points[k] - points[j])
            for j in range(len(points)) if j != k}


def spin_failures(z, theta):
    """The failing identities of check commutativity at the rational point
    z, in its wording: [H_i, H_j] = 0 and image + z_k H_k = 0, on dense
    integer operators."""
    n = len(z)
    pairs = list(combinations(range(n + 1), 2))
    hams = [dense_integer_combination(hamiltonian_terms(theta, z, k, n), n)
            for k in range(1, n + 1)]
    failed = [f"[H{i + 1},H{j + 1}] != 0"
              for i, j in combinations(range(n), 2)
              if mat_mul(hams[i], hams[j]) != mat_mul(hams[j], hams[i])]
    for k in range(1, n + 1):
        image = _bethe_image(z, k)
        terms = pair_vector_terms(pairs, [image.get(p, 0) for p in pairs],
                                  theta, n)
        terms += [(z[k - 1] * c, key)
                  for c, key in hamiltonian_terms(theta, z, k, n)]
        if any(any(row) for row in dense_integer_combination(terms, n)):
            failed.append(f"image(k={k}) != -z_k H_k")
    return failed


def typea_verdicts(z):
    """check typea at the rational point z over Q: the k whose image is
    not -z_k times the rational element k at (0, z), and whether the
    images span what the rational elements at every index span."""
    n = len(z)
    pairs = list(combinations(range(n + 1), 2))
    points = [0, *z]
    images = [[_bethe_image(z, k).get(p, 0) for p in pairs]
              for k in range(1, n + 1)]
    elements = [[_rational_element(points, k).get(p, 0) for p in pairs]
                for k in range(n + 1)]
    bad = [k for k in range(1, n + 1)
           if images[k - 1] != [-z[k - 1] * c for c in elements[k]]]
    return bad, row_space_equal(images, elements)
