"""Operator algebra with group part and polynomial part, in normal form.

Elements are dicts {Weyl matrix: polynomial}, read as sum of w * p_w(x)
with the group element on the left.  The polynomial ring has one x per
simple root plus a central deformation variable t (the last variable).
The defining exchange rule moves a variable across a generator:

    x_g * s_i  =  s_i * x_{s_i(g)} + t * <g against the i-th root>

and products are computed by moving polynomials across reduced words,
found from right descents (RootSystem.word_of), so no product
enumerates the Weyl group; the group part steps from w to w s_i by a
column update (RootSystem.times_generator).  Moving a polynomial across
s_i substitutes x_k by the k-th row of s_i's matrix; the image of each
monomial under that substitution is expanded once and kept in a table
on the algebra (monomial_image), so no table outlives its HeckeAlgebra.
Coefficients are ints throughout the normal forms and the commutator
table; Fractions enter only with a sampled q (bmo, family) or a numeric
t (at_numeric_t, holonomy_image).  The commuting degree-one family (bmo,
family) weights the reflection in each positive root by the Bethe
weight u/(1-u) of bethe.bethe_weight, u the root's power of the torus
point.  Its commutators are checked for every q at once:
commutator_table writes [Q_i, Q_j] as a polynomial in indeterminate
weights c_a, from the products [x_k, s_a] and s_a s_b, and
exact_commutator_check substitutes c_a = u_a/(1-u_a), clears the
denominators and tests each coefficient as a polynomial in q
(cleared_numerator).  A fixed degree cap (HeckeAlgebra.degree_cap)
guards against runaway polynomial growth; families used here stay
within degree two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .bethe import bethe_weight
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


def sample_q(rs: RootSystem, seed: int) -> tuple[Fraction, ...]:
    """Seeded torus point with no root power equal to 1."""
    import random
    rng = random.Random(f"hecke-q-{rs.label}-{seed}")
    while True:
        q = tuple(Fraction(rng.randint(2, 60), rng.randint(2, 60))
                  for _ in range(rs.rank))
        if all(q_power(q, a) != 1 for a in rs.positive_roots):
            return q


class HeckeAlgebra:
    # products whose x-degree exceeds this raise RuntimeError
    degree_cap = 4

    def __init__(self, rs: RootSystem, relation_sign: int = 1):
        self.rs = rs
        self.n = rs.rank
        self.nvars = rs.rank + 1          # x_1..x_n and the central t
        self.relation_sign = relation_sign
        self.ident: IntMatrix = rs.identity
        self.tvar = Poly.variable(self.nvars, self.n)
        # [x_k, s_a] per (k, positive-root index), see x_reflection_commutator
        self._x_comms: dict[tuple[int, int], HeckeElem] = {}
        # (generator index, exponent) -> image of that monomial, filled
        # on first use by monomial_image
        self._images: dict[tuple[int, tuple[int, ...]], Poly] = {}
        # linear substitution polys: the i-th generator sends x_k to the
        # combination read off the k-th row of its root-side matrix
        self._subst: list[list[Poly]] = []
        for i in range(self.n):
            m = rs.simple_reflection(i)
            row = []
            for k in range(self.n):
                p = Poly(self.nvars)
                for j in range(self.n):
                    if m[k][j]:
                        p = p + Poly.variable(self.nvars, j, m[k][j])
                row.append(p)
            self._subst.append(row)

    # ------------------------------------------------------------------
    # basic elements

    def zero(self) -> HeckeElem:
        return {}

    def one(self) -> HeckeElem:
        return {self.ident: Poly.constant(self.nvars, 1)}

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

    def is_zero(self, a: HeckeElem) -> bool:
        return all(p.is_zero() for p in a.values())

    def _prune(self, a: HeckeElem) -> HeckeElem:
        return {w: p for w, p in a.items() if not p.is_zero()}

    def _x_degree(self, p: Poly) -> int:
        return max((sum(e[:self.n]) for e in p.terms), default=0)

    # ------------------------------------------------------------------
    # the exchange move

    def monomial_image(self, i: int, e: tuple[int, ...]) -> Poly:
        """The monomial with exponent e after x_k -> row-k combination
        for the i-th generator, t untouched; expanded once per algebra."""
        key = (i, e)
        img = self._images.get(key)
        if img is None:
            img = Poly.constant(self.nvars, 1)
            for k in range(self.n):
                if e[k]:
                    img = img * self._subst[i][k] ** e[k]
            if e[self.n]:
                img = img * self.tvar ** e[self.n]
            self._images[key] = img
        return img

    def apply_generator_subst(self, p: Poly, i: int) -> Poly:
        """x_k -> row-k combination for the i-th generator; t untouched."""
        out: dict = {}
        for e, c in p.terms.items():
            for e2, c2 in self.monomial_image(i, e).terms.items():
                out[e2] = out.get(e2, 0) + c * c2
        return Poly(self.nvars, out)

    def _corr_monomial(self, e: tuple[int, ...], i: int) -> Poly:
        """Correction term of one monomial against the i-th generator."""
        k = next((k for k in range(self.n) if e[k]), None)
        if k is None:
            return Poly(self.nvars)
        rest = list(e)
        rest[k] -= 1
        rest_e = tuple(rest)
        rest_poly = Poly(self.nvars, {rest_e: 1})
        out = Poly(self.nvars)
        if k == i:
            out = out + self.apply_generator_subst(rest_poly, i)
        tail = self._corr_monomial(rest_e, i)
        if not tail.is_zero():
            out = out + Poly.variable(self.nvars, k) * tail
        return out

    def corr(self, p: Poly, i: int) -> Poly:
        out = Poly(self.nvars)
        for e, c in p.terms.items():
            piece = self._corr_monomial(e, i)
            if not piece.is_zero():
                out = out + piece * c
        return out

    def move_across_word(self, p: Poly, word: Sequence[int]) -> HeckeElem:
        """Normal form of p * (product of generators along the word)."""
        result: HeckeElem = {self.ident: p}
        sign = self.relation_sign
        for i in word:
            nxt: HeckeElem = {}
            for w, poly in result.items():
                wnext = self.rs.times_generator(w, i)
                moved = self.apply_generator_subst(poly, i)
                nxt[wnext] = nxt.get(wnext, Poly(self.nvars)) + moved
                c = self.corr(poly, i)
                if not c.is_zero():
                    nxt[w] = nxt.get(w, Poly(self.nvars)) + self.tvar * c * sign
            result = self._prune(nxt)
        return result

    def multiply(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        out: HeckeElem = {}
        for w1, p1 in a.items():
            for w2, p2 in b.items():
                moved = self.move_across_word(p1, self.rs.word_of(w2))
                for v, pv in moved.items():
                    key = int_mat_mul(w1, v)
                    out[key] = out.get(key, Poly(self.nvars)) + pv * p2
        out = self._prune(out)
        for p in out.values():
            if self._x_degree(p) > self.degree_cap:
                raise RuntimeError(
                    f"polynomial degree exceeded the cap {self.degree_cap}")
        return out

    def commutator(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        return self.sub(self.multiply(a, b), self.multiply(b, a))

    # ------------------------------------------------------------------
    # the commuting family and the degree-one correspondence

    def bmo(self, k: int, qvals: Sequence[Fraction]) -> HeckeElem:
        """Deformed degree-one family member for the k-th dual basis vector.

        Each positive root a with u = q^a contributes t * c * a_k times
        (reflection in a minus identity), with c = bethe_weight(u) =
        u/(1-u).
        """
        out = self.x(k)
        for a in self.rs.positive_roots:
            ah = a[k]
            if not ah:
                continue
            c = bethe_weight(q_power(qvals, a))
            coeff = self.tvar * (c * ah)
            refl = self.rs.reflection_in_root(a)
            out = self.add(out, {refl: coeff, self.ident: -coeff})
        return out

    def family(self, qvals: Sequence[Fraction]) -> list[HeckeElem]:
        return [self.bmo(k, qvals) for k in range(self.n)]

    # ------------------------------------------------------------------
    # the family's commutators for indeterminate weights

    def x_reflection_commutator(self, k: int, b: int) -> HeckeElem:
        """[x_k, s_b] in normal form, s_b the reflection in the b-th
        positive root; computed once per algebra."""
        key = (k, b)
        if key not in self._x_comms:
            refl = self.rs.reflection_in_root(self.rs.positive_roots[b])
            self._x_comms[key] = self.commutator(self.x(k), self.group(refl))
        return self._x_comms[key]

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
                ab = int_mat_mul(refl[a], refl[b])
                ba = int_mat_mul(refl[b], refl[a])
                if ab != ba:
                    bump(ab, t2, (a, b), d)
                    bump(ba, t2, (a, b), -d)
        out: CommutatorTable = {}
        for key, coeff in table.items():
            coeff = {m: v for m, v in coeff.items() if v}
            if coeff:
                out[key] = coeff
        return out

    def at_numeric_t(self, a: HeckeElem, tval: Fraction
                     ) -> dict[tuple[IntMatrix, tuple[int, ...]], Fraction]:
        """Flatten to exact coordinates over (group element, x-monomial)."""
        out: dict[tuple[IntMatrix, tuple[int, ...]], Fraction] = {}
        for w, p in a.items():
            for e, c in p.terms.items():
                key = (w, e[:self.n])
                val = Fraction(c) * Fraction(tval) ** e[self.n]
                out[key] = out.get(key, Fraction(0)) + val
        return {k: v for k, v in out.items() if v != 0}

    def holonomy_image(self, space, vec, tval: Fraction
                       ) -> dict[tuple[IntMatrix, tuple[int, ...]], Fraction]:
        """Degree-one correspondence at numeric t: each t_alpha becomes
        (reflection - identity), each tau block -1/t times an x."""
        out: dict[tuple[IntMatrix, tuple[int, ...]], Fraction] = {}
        zero_e = (0,) * self.n

        def bump(key, val):
            out[key] = out.get(key, Fraction(0)) + val

        for idx, a in enumerate(space.pos):
            c = vec[idx]
            if c == 0:
                continue
            cf = c.as_rational() if hasattr(c, "as_rational") else Fraction(c)
            refl = self.rs.reflection_in_root(a)
            bump((refl, zero_e), cf)
            bump((self.ident, zero_e), -cf)
        for i in range(self.n):
            c = vec[space.npos + i]
            if c == 0:
                continue
            cf = c.as_rational() if hasattr(c, "as_rational") else Fraction(c)
            e = [0] * self.n
            e[i] = 1
            bump((self.ident, tuple(e)), -cf / Fraction(tval))
        return {k: v for k, v in out.items() if v != 0}


def cleared_numerator(rs: RootSystem, coeff: dict[tuple[int, ...], int]
                      ) -> Poly:
    """A commutator-table coefficient as a polynomial in q.

    Each c_a becomes the Bethe weight u_a/(1 - u_a) of u_a = q^a, and the
    result is multiplied by prod (1 - u_g) over the roots g that occur in
    coeff.  The coefficient vanishes at every q off the arrangement
    exactly when this polynomial is zero.
    """
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


def all_reduced_words(rs: RootSystem, w: IntMatrix) -> list[tuple[int, ...]]:
    """Every shortest generator word for w (used to verify the exchange
    move is independent of the chosen word)."""
    target_len = len(rs.word_of(w))
    if target_len == 0:
        return [()]
    out = []
    for i in range(rs.rank):
        prev = rs.times_generator(w, i)
        if len(rs.word_of(prev)) == target_len - 1:
            out.extend(u + (i,) for u in all_reduced_words(rs, prev))
    return out

