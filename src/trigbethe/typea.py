"""The reindexing map from the n-point trigonometric family of the
general-linear flavor onto the rational family with one extra marked
point at the origin.

Source: pair generators t_{ij} (1 <= i < j <= n) plus tau_1..tau_n; a
torus point is a tuple (z_1..z_n) of distinct nonzero rationals (int or
Fraction), the pair (i,j) evaluating to z_i/z_j.  Target: pure pair
generators t_{ij} on indices {0..n}.  The map fixes pairs and sends tau_k
to minus the sum of all pairs {c,k} with c < k (a Jucys-Murphy-style
element).  Under it the k-th trigonometric element at (z) matches -z_k
times the k-th rational element at (0, z_1..z_n), exactly.  All of it is
rational, so every vector is a list of Fractions, for int input too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .bethe import bethe_weight
from .linalg import row_space_equal


class PairSpace:
    """Vectors over pair generators t_{ij}, i<j over a fixed index set."""

    def __init__(self, indices: Sequence[int]):
        self.indices = tuple(indices)
        self.pairs = [tuple(p) for p in combinations(self.indices, 2)]
        self._index = {p: k for k, p in enumerate(self.pairs)}
        self.dim = len(self.pairs)

    def zero(self) -> list[Fraction]:
        return [Fraction(0)] * self.dim

    def add_pair(self, vec, i: int, j: int, coeff) -> None:
        p = (i, j) if i < j else (j, i)
        k = self._index[p]
        vec[k] = vec[k] + coeff


class TrigSource(PairSpace):
    """The n-point trigonometric side: pairs on {1..n}, then a tau block."""

    def __init__(self, n: int):
        super().__init__(range(1, n + 1))
        self.n = n
        self.dim += n

    def bethe(self, z: Sequence, k: int) -> list[Fraction]:
        """tau_k plus Bethe-weighted pairs at the torus point (z_1..z_n).

        Pair (i,j) evaluates to u = z_i/z_j; its coefficient in the k-th
        element is (h_i - h_j applied to e_k) times bethe_weight(u).
        """
        if not 1 <= k <= self.n:
            raise ValueError("index out of range")
        vec = self.zero()
        vec[len(self.pairs) + k - 1] = Fraction(1)
        for (i, j) in self.pairs:
            sign = (1 if i == k else 0) - (1 if j == k else 0)
            if sign == 0:
                continue
            u = Fraction(z[i - 1]) / z[j - 1]
            self.add_pair(vec, i, j, bethe_weight(u) * sign)
        return vec


class RationalTarget(PairSpace):
    """Pairs over {0..n}; the marked index 0 plays the extra point."""

    def __init__(self, n: int):
        super().__init__(range(0, n + 1))
        self.n = n

    def gaudin(self, points: Sequence, k: int) -> list[Fraction]:
        """Rational element at index k: sum of pairs {k,j}/(p_k - p_j)."""
        vec = self.zero()
        pk = points[k]
        for j in self.indices:
            if j == k:
                continue
            d = pk - points[j]
            if d == 0:
                raise ZeroDivisionError("rational points must be distinct")
            self.add_pair(vec, k, j, Fraction(1) / d)
        return vec

    def gaudin_span(self, points: Sequence) -> list[list[Fraction]]:
        return [self.gaudin(points, k) for k in self.indices]


def reindex_map(source: TrigSource, target: RationalTarget,
                vec: Sequence[Fraction]) -> list[Fraction]:
    """Apply the correspondence: pairs fixed, tau_k to -(sum of {c,k}, c<k)."""
    if source.n != target.n:
        raise ValueError("source and target sizes differ")
    out = target.zero()
    for (i, j), k in source._index.items():
        c = vec[k]
        if not c == 0:
            target.add_pair(out, i, j, c)
    for k in range(1, source.n + 1):
        c = vec[len(source.pairs) + k - 1]
        if not c == 0:
            for cc in range(0, k):
                target.add_pair(out, cc, k, -c)
    return out


def marked_points(z: Sequence) -> list[Fraction]:
    """(0, z_1..z_n) as Fractions for the rational side."""
    return [Fraction(0)] + [Fraction(v) for v in z]


def check_sample(source: TrigSource, target: RationalTarget,
                 z: Sequence) -> tuple[list[int], bool]:
    """Both pinned identities at the torus point z, on one set of vectors.

    Returns the k (1..n) for which the image of the k-th trig element is
    not -z_k times the k-th rational element at (0, z), and whether the
    image of the whole trig span equals the rational span at (0, z).
    """
    imgs = [reindex_map(source, target, source.bethe(z, k))
            for k in range(1, source.n + 1)]
    # gspan[k] is the rational element at index k of {0..n}
    gspan = target.gaudin_span(marked_points(z))
    bad = []
    for k, img in enumerate(imgs, start=1):
        zk = z[k - 1]
        if img != [-(zk * c) for c in gspan[k]]:
            bad.append(k)
    return bad, row_space_equal(imgs, gspan)


def spans_match(source: TrigSource, target: RationalTarget,
                z: Sequence) -> bool:
    """Image of the whole trig span equals the rational span at (0, z)."""
    return check_sample(source, target, z)[1]


def sample_z(n: int, seed: int) -> tuple[Fraction, ...]:
    import random
    rng = random.Random(f"typea-z-{n}-{seed}")
    while True:
        z = [Fraction(rng.randint(1, 200), rng.randint(1, 200))
             for _ in range(n)]
        if len({*z}) == n and all(v != 0 for v in z):
            return tuple(z)
