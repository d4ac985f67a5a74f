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
from functools import cached_property, lru_cache
from operator import sub
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence, TypeVar

from .lattice import smith_normal_form

Coords = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]
T = TypeVar("T")


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

    word: tuple[int, ...]         # a reduced word of w
    inverse: IntMatrix            # w^{-1} in simple-root coordinates
    perm: tuple[int, ...]         # k -> index of |w(positive_roots[k])|
    inversions: tuple[Coords, ...]  # positive roots a with w^{-1}(a) < 0


_LABEL = re.compile(r"^([ABCDGF])(\d+)$")

# building a root system costs time growing like a high power of the rank
# (cold enumerate roots: 0.4 s at B16, 0.7 s at B20, 0.9 s at A24; the
# tables alone take 7 s at B32), so ranks from outside input are bounded
MAX_RANK = 16

# tabling the whole Weyl group (weyl_elements, from which a point stream
# draws its twists) costs time and memory linear in |W|: in process,
# 0.7 s and 33 MB at D6 (|W| = 23,040), 1.6 s and 42 MB at A7 (40,320),
# 1.8 s and 48 MB at B6 (46,080), while a cold A8 check all (362,880) took
# 37 s; requests that table W are refused above this order
MAX_WEYL_ORDER = 50_000


def root_system(label: str) -> "RootSystem":
    """The one RootSystem of a type, however spelled ("a02" is "A2")."""
    m = _LABEL.match(label.strip().upper())
    if not m:
        raise ValueError(f"bad type label {label!r}; expected e.g. A2, B3, G2")
    family, digits = m.groups()
    # compare lengths first: int() of a long digit string is slow
    if len(digits.lstrip("0")) > len(str(MAX_RANK)) or int(digits) > MAX_RANK:
        raise ValueError(f"rank {digits} of type {family} exceeds the "
                         f"maximum {MAX_RANK}")
    return _of_type(family, int(digits))


@lru_cache(maxsize=None)
def _of_type(family: str, n: int) -> "RootSystem":
    return RootSystem(family, n)


class RootSystem:
    """All roots, the pairing, and the full Weyl group of one type.

    A root system is the one cache of the finite data of its type: tables
    filled on first use by memo(), in rs.tables.  Name, key and reader:
    - "weyl", None: all of W with shortest words (weyl_elements);
    - "element", w: its WeylElement, a reduced word included (element,
      word_of, inverse_matrix, inversion_set);
    - "reflection", alpha: s_alpha (reflection_in_root);
    - "product", (v, w): v w (product);
    - "chain", a subset of the simple roots: the height chain of the roots
      supported on it (chain; the layer walk reads the full set's);
    - "centralizer", centralized roots: their base and the integer h
      they kill (bethe.centralizer_entry);
    - "chart", (centralized roots, members): the Chart of the members, or
      None when they are not nested on the base's diagram (bethe.chart_of);
    - "families", a base: its maximal nested sets (PointStream._draw);
    - "space", field: the HolonomySpace (HolonomySpace.of);
    - "rho", w: rho(w), integer, so one for every field (HolonomySpace.rho);
    - "pattern", (field, h): what a Bethe row at h fills (bethe_pattern);
    - "x_comm", (relation sign, k, b): [x_k, s_b]
      (HeckeAlgebra.x_reflection_commutator);
    - "graph", None: the non-orthogonality graph of the positive roots,
      by index in positive_index (layers.is_indecomposable);
    - "draw", field: the subsets of the simple roots, largest first, the
      shortlex words of W, and the layers of the full arrangement with
      their subset_layers (PointStream._draw).
    No key is a point's y or t or a seed.  Every entry is immutable or
    never changed once built, so every point and request of the process
    shares it; the tables die with the root system, and nothing is built
    at import time.  positive_index numbers the positive roots in their
    order, once, for every reader.
    """

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
        self.positive_index = {a: k for k, a in enumerate(self.positive_roots)}
        self.tables: dict[str, dict] = {}

    def memo(self, table: str, key: Hashable, build: Callable[[], T]) -> T:
        """The entry under key of the named table, build() on first use."""
        entries = self.tables.get(table)
        if entries is None:
            entries = self.tables[table] = {}
        try:
            return entries[key]
        except KeyError:
            pass
        value = entries[key] = build()
        return value

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
        """s_alpha, kept per root."""
        alpha = tuple(alpha)

        def build():
            n = self.rank
            cols = []
            for j in range(n):
                k = self.pairing(self.simple_roots[j], alpha)
                cols.append([int(i == j) - k * alpha[i] for i in range(n)])
            return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        return self.memo("reflection", alpha, build)

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
        """v w, kept per pair: check hecke forms the same products of
        reflections for every pair of family members and both signs."""
        return self.memo("product", (v, w), lambda: int_mat_mul(v, w))

    def weyl_elements(self) -> dict[IntMatrix, tuple[int, ...]]:
        """Every group element, mapped to one shortest word in the generators."""
        def build():
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
            return table
        return self.memo("weyl", None, build)

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

    @cached_property
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

    def element(self, w: IntMatrix) -> WeylElement:
        """The integer tables of one group element, kept on first use; the
        group is never enumerated.

        A reduced word comes from right descents: if w sends the i-th
        simple root negative, word(w) = word(w s_i) + (i,).  Each step
        shortens an element of W by one, so w is in W exactly when the
        reduction reaches the identity within |positive roots| steps;
        otherwise ValueError.  The descents s_{i_1}, s_{i_2}, ... taken
        from w give w^{-1} = s_{i_1} s_{i_2} ..., in integers, in the same
        pass.  The positive-root permutation and the inversion set come
        from one pass of w over the positive roots.
        """
        def build():
            v, inverse, descents = w, self.identity, []
            while v != self.identity:
                i = next((i for i in range(self.rank)
                          if any(row[i] < 0 for row in v)), None)
                if i is None or len(descents) == len(self.positive_roots):
                    raise ValueError(
                        f"{w} is not in the Weyl group of {self.label}")
                descents.append(i)
                v = self.times_generator(v, i)
                inverse = self.times_generator(inverse, i)
            perm, flipped = [], set()
            for a in self.positive_roots:
                image = self.act(w, a)
                if min(image) < 0:
                    image = tuple(-c for c in image)
                    flipped.add(image)
                perm.append(self.positive_index[image])
            return WeylElement(tuple(reversed(descents)), inverse, tuple(perm),
                               tuple(a for a in self.positive_roots
                                     if a in flipped))
        return self.memo("element", w, build)

    def word_of(self, w: IntMatrix) -> tuple[int, ...]:
        """A reduced word of w: element(w).word."""
        return self.element(w).word

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

    def chain(self, subset: Iterable[int]) -> tuple[tuple[Coords, Coords, int], ...]:
        """The height chain (root_chain) over the simple roots of the
        positive roots supported on a subset of them, kept per subset."""
        subset = tuple(subset)
        return self.memo("chain", subset, lambda: tuple(root_chain(
            self.roots_with_support_in(subset), self.simple_roots)))

    def nonorthogonal_edges(self, roots: Sequence[Coords]) -> list[tuple[int, int]]:
        return nonorthogonal_edges(self.gram, roots)

    def __repr__(self) -> str:
        return f"RootSystem({self.label})"
