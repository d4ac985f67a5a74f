"""Operator algebra with group part and polynomial part, in normal form.

Elements are dicts {Weyl matrix: polynomial}, read as sum of w * p_w(x)
with the group element on the left.  The polynomial ring has one x per
simple root plus a central deformation variable t (the last variable).
The defining relation moves a variable across a generator,

    x_g * s_i  =  s_i * x_{g s_i} + sign * t * g_i,

g a row of coefficients and relation_sign the sign (+1 in the algebra
itself; -1 is the control of check hecke).  By induction along a
reduced word it gives one closed exchange formula for any Weyl element v:

    x_k * v  =  v * x_{row k of v} + sign * t * sum_b b_k * s_b v,

b over the inversion set of v (the positive roots sent negative by
v^{-1}, RootSystem.inversion_set, the tables that HolonomySpace.rho
reads too).  x_times applies it term by term and is its one
implementation; the reflections s_b and the products s_b v come from
the root system's tables, shared by every algebra of a type.

The commuting degree-one family (bmo, family) weights the reflection in
each positive root by the Bethe weight u/(1-u) of bethe.bethe_weight, u
the root's power of the torus point.  check hecke proves that it
commutes for every q at once, in two parts on integer tables:

1. commutator_table writes [Q_i, Q_j] as a polynomial in indeterminate
   weights c_a, from the commutators [x_k, s_b] and the products
   s_a s_b.  x_reflection_commutator reads [x_k, s_b] straight off the
   exchange formula: x_times(k, s_b) minus s_b x_k, which is already in
   normal form.  Its x-degree is at most one, so nothing grows in x.
2. exact_commutator_check substitutes c_a = u_a/(1-u_a), clears the
   denominators and tests each coefficient as a polynomial in q
   (cleared_numerator).  Its factors u_b and 1 - u_b are multiplied on
   Kronecker-packed integer exponents, as a shift, or a shift and a
   subtraction, of an {int: coefficient} dict, unpacked once at the end.

Coefficients are ints throughout the normal forms and the commutator
table; rationals enter only with a given q (bmo, family), whose root
powers are read in Q = CyclotomicField(1) for the Bethe weight.  The general
product (multiply, move_across_word: p_1 moved across a reduced word of
w_2, RootSystem.word_of, so no product enumerates the Weyl group) and
commutator stay for the tests, which take them as the oracle of part 1,
and for the commutators of the family at a given q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .bethe import bethe_weight
from .field import CyclotomicField
from .poly import Poly
from .roots import IntMatrix, RootSystem, int_mat_mul

HeckeElem = dict[IntMatrix, Poly]
# {(group element, exponent of x_1..x_n, t): {c-monomial: integer}}, a
# c-monomial being the sorted tuple of its positive-root indices
CommutatorTable = dict[tuple[IntMatrix, tuple[int, ...]],
                       dict[tuple[int, ...], int]]


def q_power(qvals: Sequence[Fraction], alpha: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for q, a in zip(qvals, alpha):
        out *= Fraction(q) ** a
    return out


class HeckeAlgebra:
    def __init__(self, rs: RootSystem, relation_sign: int = 1):
        self.rs = rs
        self.n = rs.rank
        self.nvars = rs.rank + 1          # x_1..x_n and the central t
        self.relation_sign = relation_sign
        self.ident: IntMatrix = rs.identity
        self.tvar = Poly.variable(self.nvars, self.n)
        # exponent of x_j, j < n
        self._units = [tuple(int(i == j) for i in range(self.nvars))
                       for j in range(self.n)]

    # ------------------------------------------------------------------
    # basic elements

    def x(self, k: int) -> HeckeElem:
        return {self.ident: Poly.variable(self.nvars, k)}

    def group(self, w: IntMatrix) -> HeckeElem:
        return {w: Poly.constant(self.nvars, 1)}

    def scale(self, a: HeckeElem, s) -> HeckeElem:
        return self._prune({w: p * s for w, p in a.items()})

    def add(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        out = dict(a)
        for w, p in b.items():
            out[w] = out.get(w, Poly(self.nvars)) + p
        return self._prune(out)

    def sub(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        return self.add(a, self.scale(b, -1))

    def _prune(self, a: HeckeElem) -> HeckeElem:
        return {w: p for w, p in a.items() if not p.is_zero()}

    # ------------------------------------------------------------------
    # the exchange move

    def x_times(self, k: int, a: HeckeElem) -> HeckeElem:
        """x_k * a in normal form, by the exchange formula: for each term
        v * q of a, x_k v = v x_{row k of v} + sign t sum_b b_k s_b v over
        the inversion set of v."""
        out: HeckeElem = {}
        zero = Poly(self.nvars)
        for v, q in a.items():
            moved = Poly(self.nvars, {self._units[j]: c
                                      for j, c in enumerate(v[k]) if c}) * q
            out[v] = out.get(v, zero) + moved
            tq = self.tvar * q
            for beta in self.rs.inversion_set(v):
                if beta[k]:
                    u = self.rs.product(self.rs.reflection_in_root(beta), v)
                    out[u] = out.get(u, zero) + \
                        tq * (self.relation_sign * beta[k])
        return self._prune(out)

    def move_across_word(self, p: Poly, word: Sequence[int]) -> HeckeElem:
        """Normal form of p * (product of generators along the word): each
        monomial starts as w times its t-power and coefficient, and its
        x factors enter from the left by x_times."""
        w = self.rs.matrix_of_word(word)
        out: HeckeElem = {}
        for e, c in p.terms.items():
            term = {w: Poly(self.nvars, {(0,) * self.n + e[self.n:]: c})}
            for k in range(self.n):
                for _ in range(e[k]):
                    term = self.x_times(k, term)
            for v, q in term.items():
                out[v] = out.get(v, Poly(self.nvars)) + q
        return self._prune(out)

    def multiply(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        """a b in normal form; a group product with an identity factor is
        the other factor, so only the rest are multiplied out."""
        out: HeckeElem = {}
        for w1, p1 in a.items():
            one = w1 == self.ident
            for w2, p2 in b.items():
                moved = self.move_across_word(p1, self.rs.word_of(w2))
                for v, pv in moved.items():
                    key = v if one else w1 if v == self.ident \
                        else int_mat_mul(w1, v)
                    out[key] = out.get(key, Poly(self.nvars)) + pv * p2
        return self._prune(out)

    def commutator(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        return self.sub(self.multiply(a, b), self.multiply(b, a))

    # ------------------------------------------------------------------
    # the commuting family and the degree-one correspondence

    def bmo(self, k: int, qvals: Sequence[Fraction]) -> HeckeElem:
        """Deformed degree-one family member for the k-th dual basis vector.

        Each positive root a with u = q^a contributes t * c * a_k times
        (reflection in a minus identity), with c = bethe_weight(u) =
        u/(1-u), u read in Q = CyclotomicField(1).
        """
        out = self.x(k)
        rationals = CyclotomicField(1)
        for a in self.rs.positive_roots:
            ah = a[k]
            if not ah:
                continue
            c = bethe_weight(rationals.coerce(q_power(qvals, a)))
            coeff = self.tvar * (c * ah)
            out = self.add(out, {self.rs.reflection_in_root(a): coeff,
                                 self.ident: -coeff})
        return out

    def family(self, qvals: Sequence[Fraction]) -> list[HeckeElem]:
        return [self.bmo(k, qvals) for k in range(self.n)]

    # ------------------------------------------------------------------
    # the family's commutators for indeterminate weights

    def x_reflection_commutator(self, k: int, b: int) -> HeckeElem:
        """[x_k, s_b] in normal form, s_b the reflection in the b-th
        positive root; computed once per type and relation sign."""
        def build():
            refl = self.rs.reflection_in_root(self.rs.positive_roots[b])
            # x_k s_b by the exchange formula, minus s_b x_k, which is
            # already in normal form
            out = self.x_times(k, self.group(refl))
            out[refl] = out.get(refl, Poly(self.nvars)) - \
                Poly.variable(self.nvars, k)
            return self._prune(out)
        return self.rs.memo("x_comm", (self.relation_sign, k, b), build)

    def commutator_table(self, i: int, j: int) -> CommutatorTable:
        """[Q_i, Q_j] of the family with each weight c_a an indeterminate.

        Q_k = x_k + t sum_a a_k c_a (s_a - 1) with t central, so
            [Q_i, Q_j] = t sum_b c_b (b_j [x_i, s_b] - b_i [x_j, s_b])
                         + t^2 sum_{a<b} d_ab c_a c_b (s_a s_b - s_b s_a),
        d_ab = a_i b_j - a_j b_i; the second sum is
        t^2 sum_{a,b} d_ab c_a c_b (s_a - 1)(s_b - 1) with the terms of
        (a, b) and (b, a) combined.  Zero coefficients are dropped.
        """
        pos = self.rs.positive_roots
        table: CommutatorTable = {}

        def bump(w, e, mono, val):
            entry = table.setdefault((w, e), {})
            entry[mono] = entry.get(mono, 0) + val

        for b, beta in enumerate(pos):
            for k, weight in ((i, beta[j]), (j, -beta[i])):
                if not weight:
                    continue
                for w, p in self.x_reflection_commutator(k, b).items():
                    for e, c in p.terms.items():
                        bump(w, e[:self.n] + (e[self.n] + 1,), (b,), weight * c)
        refl = [self.rs.reflection_in_root(a) for a in pos]
        t2 = (0,) * self.n + (2,)
        for a, alpha in enumerate(pos):
            for b in range(a + 1, len(pos)):
                d = alpha[i] * pos[b][j] - alpha[j] * pos[b][i]
                if not d:
                    continue
                ab = self.rs.product(refl[a], refl[b])
                ba = self.rs.product(refl[b], refl[a])
                if ab != ba:
                    bump(ab, t2, (a, b), d)
                    bump(ba, t2, (a, b), -d)
        out: CommutatorTable = {}
        for key, coeff in table.items():
            coeff = {m: v for m, v in coeff.items() if v}
            if coeff:
                out[key] = coeff
        return out


def cleared_numerator(rs: RootSystem, coeff: dict[tuple[int, ...], int]
                      ) -> Poly:
    """A commutator-table coefficient as a polynomial in q.

    Each c_a becomes the Bethe weight u_a/(1 - u_a) of u_a = q^a, and the
    result is multiplied by prod (1 - u_g) over the roots g that occur in
    coeff.  The coefficient vanishes at every q off the arrangement
    exactly when this polynomial is zero.

    The products run on Kronecker-packed exponents: q^e becomes T^e(K),
    e(K) = sum_i e_i K^i, with K one more than the largest sum of the
    involved roots in any coordinate.  No exponent a product reaches
    exceeds that sum, so the packing is injective on them; a factor u_b
    is a shift by u_b(K), a factor 1 - u_b a shift and a subtraction.
    """
    pos = rs.positive_roots
    involved = sorted({b for mono in coeff for b in mono})
    base = 1 + max((sum(pos[b][i] for b in involved)
                    for i in range(rs.rank)), default=0)
    shift = {b: sum(c * base ** i for i, c in enumerate(pos[b]))
             for b in involved}
    packed: dict[int, object] = {}
    for mono, val in coeff.items():
        term = {sum(shift[b] for b in involved if b in mono): val}
        for b in involved:
            if b in mono:
                continue
            s = shift[b]
            moved = dict(term)
            for e, c in term.items():
                moved[e + s] = moved.get(e + s, 0) - c
            term = moved
        for e, c in term.items():
            packed[e] = packed.get(e, 0) + c
    terms = {}
    for e, c in packed.items():
        if c:
            exps = []
            for _ in range(rs.rank):
                e, r = divmod(e, base)
                exps.append(r)
            terms[tuple(exps)] = c
    return Poly(rs.rank, terms)


def exact_commutator_check(alg: HeckeAlgebra, first_only: bool = False
                           ) -> tuple[int, list[tuple[int, int, IntMatrix]]]:
    """Test every coefficient of every [Q_i, Q_j], i < j, as a polynomial in q.

    Returns the number of coefficients tested and the (i, j, group element)
    of each one that is not zero for all q; first_only stops at the first.
    """
    tested, bad = 0, []
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            for (w, _), coeff in alg.commutator_table(i, j).items():
                tested += 1
                if not cleared_numerator(alg.rs, coeff).is_zero():
                    bad.append((i, j, w))
                    if first_only:
                        return tested, bad
    return tested, bad
