"""Finite crystallographic root systems and their Weyl groups.

Roots are integer coordinate tuples in the simple-root basis; a root is
positive exactly when all coordinates are nonnegative.  Supported types:
A(n>=1), B(n>=2), C(n>=2), D(n>=4), G2, F4.  Short roots are normalized
to squared length 2; the symmetric pairing is recovered from the Cartan
matrix through the symmetrizing diagonal, so its Gram matrix is integral
and every pairing is computed in integers, like everything else here.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .lattice import smith_normal_form

Coords = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


def _chain_cartan(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def cartan_matrix(family: str, n: int) -> IntMatrix:
    """Cartan matrix with rows scaled by the row root: a_ij = 2(ai,aj)/(ai,ai)."""
    if family == "A" and n >= 1:
        a = _chain_cartan(n)
    elif family == "B" and n >= 2:
        a = _chain_cartan(n)
        a[n - 1][n - 2] = -2  # last simple root is short
    elif family == "C" and n >= 2:
        a = _chain_cartan(n)
        a[n - 2][n - 1] = -2  # last simple root is long
    elif family == "D" and n >= 4:
        a = _chain_cartan(n - 1)
        for row in a:
            row.append(0)
        a.append([0] * n)
        a[n - 1][n - 1] = 2
        a[n - 1][n - 3] = a[n - 3][n - 1] = -1
        a[n - 1][n - 2] = a[n - 2][n - 1] = 0
    elif family == "G" and n == 2:
        a = [[2, -3], [-1, 2]]  # first simple root short
    elif family == "F" and n == 4:
        a = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    else:
        raise ValueError(f"unsupported type {family}{n}")
    return tuple(tuple(r) for r in a)


def symmetrizers(family: str, n: int) -> tuple[int, ...]:
    """d_i = (a_i, a_i)/2 making diag(d) @ cartan symmetric."""
    if family in ("A", "D"):
        return (1,) * n
    if family == "B":
        return (2,) * (n - 1) + (1,)
    if family == "C":
        return (1,) * (n - 1) + (2,)
    if family == "G":
        return (1, 3)
    if family == "F":
        return (2, 2, 1, 1)
    raise ValueError(f"unsupported family {family}")


def gram_inner(gram: Sequence[Sequence[int]], a: Sequence[int],
               b: Sequence[int]) -> int:
    """(a, b) for the symmetric pairing whose Gram matrix is gram."""
    return sum(x * g * y for x, row in zip(a, gram) for g, y in zip(row, b))


def nonorthogonal_edges(gram: Sequence[Sequence[int]],
                        roots: Sequence[Coords]) -> list[tuple[int, int]]:
    """Pairs i < j of roots with (roots[i], roots[j]) != 0."""
    n = len(roots)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if gram_inner(gram, roots[i], roots[j]) != 0]


def int_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    """Product of two integer matrices given as rows."""
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def root_chain(roots: Iterable[Coords], basis: Sequence[Coords]):
    """Yield (a, b, j) for every root a, by height: a = b + basis[j] with
    b zero or a root yielded earlier.  ValueError for a root no chain
    reaches, such as one outside the lattice of the basis."""
    seen: set[Coords] = set()
    for a in sorted(roots, key=sum):
        for j, e in enumerate(basis):
            b = tuple(map(sub, a, e))
            if b in seen or not any(b):
                break
        else:
            raise ValueError(f"{a} is not an integer combination of the base")
        seen.add(a)
        yield a, b, j


def chain_values(chain, base_values) -> dict:
    """{a: e^a} along a root chain, from base_values[j] = e^{basis[j]}:
    e^a = e^b * e^{basis[j]}, one product per root off the basis."""
    values: dict = {}
    for a, b, j in chain:
        values[a] = values[b] * base_values[j] if b in values \
            else base_values[j]
    return values


class WeylElement(NamedTuple):
    """Integer tables of one Weyl group element w (see RootSystem.element)."""

    inverse: IntMatrix            # w^{-1} in simple-root coordinates
    perm: tuple[int, ...]         # k -> index of |w(positive_roots[k])|
    inversions: tuple[Coords, ...]  # positive roots a with w^{-1}(a) < 0


_LABEL = re.compile(r"^([ABCDGF])(\d+)$")

# building a root system costs time growing like a high power of the rank
# (cold enumerate roots: 0.4 s at B16, 0.7 s at B20, 0.9 s at A24; the
# tables alone take 7 s at B32), so ranks from outside input are bounded
MAX_RANK = 16


@lru_cache(maxsize=None)
def root_system(label: str) -> "RootSystem":
    m = _LABEL.match(label.strip().upper())
    if not m:
        raise ValueError(f"bad type label {label!r}; expected e.g. A2, B3, G2")
    family, digits = m.groups()
    # compare lengths first: int() of a long digit string is slow
    if len(digits.lstrip("0")) > len(str(MAX_RANK)) or int(digits) > MAX_RANK:
        raise ValueError(f"rank {digits} of type {family} exceeds the "
                         f"maximum {MAX_RANK}")
    return RootSystem(family, int(digits))


class RootSystem:
    """All roots, the pairing, and the full Weyl group of one type."""

    def __init__(self, family: str, n: int):
        self.family = family
        self.rank = n
        self.label = f"{family}{n}"
        self.cartan = cartan_matrix(family, n)
        self.sym = symmetrizers(family, n)
        self.gram: list[list[int]] = [
            [self.sym[i] * self.cartan[i][j] for j in range(n)]
            for i in range(n)]
        self.simple_roots: list[Coords] = [
            tuple(int(i == j) for j in range(n)) for i in range(n)]
        self.identity: IntMatrix = tuple(self.simple_roots)
        self._gens = [self.simple_reflection(i) for i in range(n)]
        self.roots: list[Coords] = self._close_roots()
        self.root_set = frozenset(self.roots)
        self.positive_roots: list[Coords] = sorted(
            (r for r in self.roots if min(r) >= 0),
            key=lambda c: (sum(c), c))
        self._pos_index = {a: k for k, a in enumerate(self.positive_roots)}
        self._weyl: dict[IntMatrix, tuple[int, ...]] | None = None
        # reduced words, filled on demand by word_of
        self._words: dict[IntMatrix, tuple[int, ...]] = {self.identity: ()}
        self._elements: dict[IntMatrix, WeylElement] = {}
        # reflections and products of two elements, filled on demand by
        # reflection_in_root and product
        self._reflections: dict[Coords, IntMatrix] = {}
        self._products: dict[tuple[IntMatrix, IntMatrix], IntMatrix] = {}

    # ------------------------------------------------------------------
    # pairing

    def inner(self, a: Sequence[int], b: Sequence[int]) -> int:
        return gram_inner(self.gram, a, b)

    def norm2(self, a: Sequence[int]) -> int:
        return self.inner(a, a)

    def pairing(self, beta: Sequence[int], alpha: Sequence[int]) -> int:
        """<beta, alpha^vee> = 2(beta,alpha)/(alpha,alpha), an exact integer."""
        k, r = divmod(2 * self.inner(beta, alpha), self.norm2(alpha))
        if r:
            raise ValueError(f"<{tuple(beta)}, {tuple(alpha)}^vee> is not an integer")
        return k

    # ------------------------------------------------------------------
    # reflections and roots

    def simple_reflection(self, i: int) -> IntMatrix:
        n = self.rank
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i] = [int(i == j) - self.cartan[i][j] for j in range(n)]
        return tuple(tuple(r) for r in rows)

    def reflection_in_root(self, alpha: Sequence[int]) -> IntMatrix:
        """s_alpha, cached per root."""
        alpha = tuple(alpha)
        cached = self._reflections.get(alpha)
        if cached is None:
            n = self.rank
            cols = []
            for j in range(n):
                k = self.pairing(self.simple_roots[j], alpha)
                cols.append([int(i == j) - k * alpha[i] for i in range(n)])
            cached = self._reflections[alpha] = tuple(
                tuple(cols[j][i] for j in range(n)) for i in range(n))
        return cached

    def act(self, w: IntMatrix, coords: Sequence[int]) -> Coords:
        return tuple(sum(w[i][j] * coords[j] for j in range(self.rank))
                     for i in range(self.rank))

    def _close_roots(self) -> list[Coords]:
        seen: set[Coords] = set(self.simple_roots)
        frontier = list(seen)
        while frontier:
            nxt = []
            for r in frontier:
                for g in self._gens:
                    s = self.act(g, r)
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        return sorted(seen)

    def abs_root(self, coords: Sequence[int]) -> Coords:
        c = tuple(coords)
        if any(x < 0 for x in c):
            c = tuple(-x for x in c)
        if c not in self.root_set:
            raise ValueError(f"{coords} is not a root of {self.label}")
        return c

    def support(self, coords: Sequence[int]) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(coords) if c)

    def roots_with_support_in(self, simple_subset: Iterable[int]) -> list[Coords]:
        allowed = set(simple_subset)
        return [r for r in self.positive_roots
                if self.support(r) <= allowed]

    # ------------------------------------------------------------------
    # Weyl group

    def times_generator(self, w: IntMatrix, i: int) -> IntMatrix:
        """w s_i, by a column update: s_i alpha_j = alpha_j - a_ij alpha_i,
        so column j of w s_i is col_j(w) - a_ij col_i(w).  Only column i
        and the columns of its Dynkin neighbours change, and a row of w
        with a zero in column i is kept as it is."""
        a = self.cartan[i]
        out = []
        for row in w:
            r = row[i]
            out.append(tuple(x - c * r for x, c in zip(row, a)) if r else row)
        return tuple(out)

    def product(self, v: IntMatrix, w: IntMatrix) -> IntMatrix:
        """v w, cached per pair: check hecke forms the same products of
        reflections for every pair of family members and both signs."""
        cached = self._products.get((v, w))
        if cached is None:
            cached = self._products[v, w] = int_mat_mul(v, w)
        return cached

    def weyl_elements(self) -> dict[IntMatrix, tuple[int, ...]]:
        """Every group element, mapped to one shortest word in the generators."""
        if self._weyl is None:
            table: dict[IntMatrix, tuple[int, ...]] = {self.identity: ()}
            frontier = [self.identity]
            while frontier:
                nxt = []
                for w in frontier:
                    word = table[w]
                    for i in range(self.rank):
                        m = self.times_generator(w, i)
                        if m not in table:
                            table[m] = word + (i,)
                            nxt.append(m)
                frontier = nxt
            self._weyl = table
        return self._weyl

    def coxeter_order(self, i: int, j: int) -> int:
        """m_ij, the order of s_i s_j: 1 if i = j, else 2, 3, 4, 6 for
        a_ij a_ji = 0, 1, 2, 3."""
        if i == j:
            return 1
        return (2, 3, 4, 6)[self.cartan[i][j] * self.cartan[j][i]]

    def longest_element(self) -> IntMatrix:
        """w_0, built up by right multiplication with s_i while w alpha_i
        (column i of w) is positive, i.e. while that lengthens w."""
        w = self.identity
        while True:
            i = next((i for i in range(self.rank)
                      if all(row[i] >= 0 for row in w)), None)
            if i is None:
                return w
            w = self.times_generator(w, i)

    @property
    def weyl_order(self) -> int:
        """|W| = n! * det(Cartan) * the product of the highest root's coefficients.

        det(Cartan) is the index of the root lattice in the weight lattice,
        the product of the Cartan matrix's elementary divisors; the highest
        root is the unique positive root of greatest height.
        """
        return (math.factorial(self.rank)
                * math.prod(smith_normal_form(self.cartan).divisors)
                * math.prod(self.positive_roots[-1]))

    def matrix_of_word(self, word: Sequence[int]) -> IntMatrix:
        m = self.identity
        for i in word:
            if not 0 <= i < self.rank:
                raise ValueError(f"word letter {i} out of range for {self.label}")
            m = self.times_generator(m, i)
        return m

    def word_of(self, w: IntMatrix) -> tuple[int, ...]:
        """A reduced word of w, from right descents: if w sends the i-th
        simple root negative, word(w) = word(w s_i) + (i,).  Cached per
        element; the group is never enumerated.

        Each step shortens an element of W by one, so w is in W exactly
        when the reduction reaches the identity within |positive roots|
        steps; otherwise ValueError.
        """
        start, path = w, []
        while w not in self._words:
            i = next((i for i in range(self.rank) if any(row[i] < 0 for row in w)),
                     None)
            if i is None or len(path) == len(self.positive_roots):
                raise ValueError(f"{start} is not in the Weyl group of {self.label}")
            path.append((w, i))
            w = self.times_generator(w, i)
        word = self._words[w]
        for v, i in reversed(path):
            word = word + (i,)
            self._words[v] = word
        return word

    def element(self, w: IntMatrix) -> WeylElement:
        """The integer tables of one group element, cached on first use.

        Membership in W is decided by word_of; ValueError outside W.  A
        word s_{i_1} ... s_{i_k} of w gives w^{-1} = s_{i_k} ... s_{i_1},
        the matrix of the reversed word, in integers.  The positive-root
        permutation and the inversion set come from one pass of w over the
        positive roots.
        """
        cached = self._elements.get(w)
        if cached is not None:
            return cached
        inverse = self.matrix_of_word(self.word_of(w)[::-1])
        perm, flipped = [], set()
        for a in self.positive_roots:
            image = self.act(w, a)
            if min(image) < 0:
                image = tuple(-c for c in image)
                flipped.add(image)
            perm.append(self._pos_index[image])
        cached = WeylElement(inverse, tuple(perm), tuple(
            a for a in self.positive_roots if a in flipped))
        self._elements[w] = cached
        return cached

    def inverse_matrix(self, w: IntMatrix) -> IntMatrix:
        return self.element(w).inverse

    def inversion_set(self, w: IntMatrix) -> list[Coords]:
        """Positive roots sent negative by w^{-1} (i.e. in w(negatives))."""
        return list(self.element(w).inversions)

    # ------------------------------------------------------------------
    # subsystems

    def base_of(self, positive_subset: Iterable[Coords]) -> list[Coords]:
        """Indecomposable elements: the simple system of a closed subsystem."""
        pos = set(positive_subset)
        sums = set()
        for a in pos:
            for b in pos:
                s = tuple(x + y for x, y in zip(a, b))
                if s in pos:
                    sums.add(s)
        return sorted(pos - sums, key=lambda c: (sum(c), c))

    def nonorthogonal_edges(self, roots: Sequence[Coords]) -> list[tuple[int, int]]:
        return nonorthogonal_edges(self.gram, roots)

    def __repr__(self) -> str:
        return f"RootSystem({self.label})"
