"""The reindexing map from the n-point trigonometric family of the
general-linear flavor onto the rational family with one extra marked
point at the origin.

Source: pair generators t_{ij} (1 <= i < j <= n) plus tau_1..tau_n; a
torus point is a tuple (z_1..z_n) of distinct nonzero rationals, the
pair (i,j) evaluating to z_i/z_j.  Target: pure pair generators t_{ij}
on indices {0..n}.  The map fixes pairs and sends tau_k to minus the sum
of all pairs {c,k} with c < k (a Jucys-Murphy-style element).  Under it
the k-th trigonometric element at (z) matches -z_k times the k-th
rational element at (0, z_1..z_n), exactly, and the image of the whole
trigonometric span is the rational span.

Both identities are homogeneous of degree 0 in z: the trigonometric
element depends only on the ratios z_i/z_j, z_k times the rational
element at (0, z) is unchanged when z is scaled, and span equality does
not depend on scale.  So a sample z is replaced by the integer point
x = D z, D the lcm of its denominators (integer_point), and every
vector by an integer multiple of itself: the k-th trigonometric element
by P_k = prod_{j != k} (x_k - x_j) (TrigSource.bethe_span reads all n
of them off the engine's rows, HolonomySpace.bethe_family on A_{n-1}),
the rational element at index k of points p by prod_{j != k} (p_k - p_j)
(scale).  At p = (0, x) that scale is x_k P_k, so the first identity
reads image_k = -(scaled rational element k), entry by entry in
integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Sequence

from .bethe import HolonomySpace
from .field import CyclotomicField
from .lattice import hermite_normal_form
from .roots import root_system


class PairSpace:
    """Vectors over pair generators t_{ij}, i<j over a fixed index set."""

    def __init__(self, indices: Sequence[int]):
        self.indices = tuple(indices)
        self.pairs = [tuple(p) for p in combinations(self.indices, 2)]
        self._index = {p: k for k, p in enumerate(self.pairs)}
        self.dim = len(self.pairs)

    def zero(self) -> list[int]:
        return [0] * self.dim

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

    def bethe_span(self, x: Sequence[int]) -> list[list[int]]:
        """The n elements at the integer point x, the k-th (k = 1..n) being
        P_k (tau_k plus Bethe-weighted pairs), P_k = prod_{j != k} (x_k - x_j).

        The pairs are the engine's Bethe rows of A_{n-1} over Q at
        e^{alpha_i} = x_i/x_{i+1}, the k-th for h = e_k, the simple-root
        values alpha_i(e_k) = delta_{ik} - delta_{i+1,k}: the entry of root
        e_i - e_j = alpha_i + ... + alpha_{j-1}, read as pair (i,j), has a
        denominator that divides x_i - x_j and so P_k.
        """
        if any(v.denominator != 1 for v in x):
            raise ValueError("coordinates must be integers, see integer_point")
        scales = [prod(x[k - 1] - x[j - 1] for j in self.indices if j != k)
                  for k in self.indices]
        span = [[0] * len(self.pairs) + [scale * (k == j) for j in self.indices]
                for k, scale in zip(self.indices, scales)]
        if self.n == 1:
            return span
        space = HolonomySpace.of(root_system(f"A{self.n - 1}"),
                                 CyclotomicField(1))
        pairs = [(a.index(1) + 1, a.index(1) + 1 + sum(a)) for a in space.pos]
        hs = [[(i == k) - (i + 1 == k) for i in range(1, self.n)]
              for k in self.indices]
        values = {a: space.field.from_rational(Fraction(x[i - 1], x[j - 1]))
                  for a, (i, j) in zip(space.pos, pairs)}
        for vec, scale, row in zip(span, scales,
                                   space.bethe_family(values, hs)):
            for pair, c in zip(pairs, row):
                vec[self._index[pair]] = int(c.as_rational() * scale)
        return span


class RationalTarget(PairSpace):
    """Pairs over {0..n}; the marked index 0 plays the extra point."""

    def __init__(self, n: int):
        super().__init__(range(0, n + 1))
        self.n = n

    def scale(self, points: Sequence, k: int):
        """prod_{j != k} (p_k - p_j), the factor gaudin multiplies by."""
        return prod(points[k] - points[j] for j in self.indices if j != k)

    def gaudin(self, points: Sequence, k: int) -> list:
        """Rational element at index k, the sum of pairs {k,j}/(p_k - p_j),
        times scale(points, k): pair {k,j} gets the product of the other
        differences p_k - p_l."""
        diffs = {j: points[k] - points[j] for j in self.indices if j != k}
        if not all(diffs.values()):
            raise ZeroDivisionError("rational points must be distinct")
        vec = self.zero()
        for j in diffs:
            self.add_pair(vec, k, j, prod(d for l, d in diffs.items()
                                          if l != j))
        return vec

    def gaudin_span(self, points: Sequence) -> list[list]:
        return [self.gaudin(points, k) for k in self.indices]


def reindex_map(source: TrigSource, target: RationalTarget,
                vec: Sequence) -> list:
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


def integer_point(z: Sequence) -> tuple[int, ...]:
    """D z for D the lcm of the denominators of z (ints or Fractions): an
    integer point with the ratios of z."""
    d = lcm(*(v.denominator for v in z))
    return tuple(v.numerator * (d // v.denominator) for v in z)


def marked_points(z: Sequence) -> list:
    """(0, z_1..z_n), the points of the rational side."""
    return [0, *z]


def check_sample(target: RationalTarget, x: Sequence[int],
                 images: list[list[int]]) -> tuple[list[int], bool]:
    """Both pinned identities at the integer point x, on images, the
    reindexed vectors of TrigSource.bethe_span(x).

    Returns the k (1..n) for which the image of the k-th trig element is
    not -x_k times the k-th rational element at (0, x), and whether the
    image of the whole trig span equals the rational span at (0, x).
    """
    points = marked_points(x)
    # gspan[k] is the scaled rational element at index k of {0..n}
    gspan = target.gaudin_span(points)
    bad = [k for k, img in enumerate(images, start=1)
           if img != [-c for c in gspan[k]]]
    scales = [target.scale(points, k) for k in target.indices]
    return bad, spans_match(images, gspan, scales)


def spans_match(images: list[list[int]], elements: list[list[int]],
                scales: Sequence[int]) -> bool:
    """Whether the images span what the elements span, the elements being
    the rational elements at every index 0..n, each times its scale.

    The certificate: images[k-1] is -elements[k] for every k >= 1, so the
    images span elements[1:]; and the elements over their (nonzero)
    scales sum to zero, so elements[0] lies in that span too.  When it
    does not apply, the integer ranks of the images, the elements and of
    both together decide.
    """
    if len(images) + 1 == len(elements) == len(scales) and all(scales) \
            and all(img == [-c for c in el]
                    for img, el in zip(images, elements[1:])) \
            and sums_to_zero(elements, scales):
        return True
    both = len(hermite_normal_form(images + elements))
    return len(hermite_normal_form(images)) == both == \
        len(hermite_normal_form(elements))


def sums_to_zero(vectors: Sequence[Sequence[int]],
                 scales: Sequence[int]) -> bool:
    """Whether sum_k vectors[k] / scales[k] is zero, in integers: the
    fractions of each coordinate are added over a common denominator."""
    for column in zip(*vectors):
        num, den = 0, 1
        for c, s in zip(column, scales):
            if c:
                num, den = num * s + c * den, den * s
        if num:
            return False
    return True


def sample_z(n: int, seed: int) -> tuple[Fraction, ...]:
    import random
    rng = random.Random(f"typea-z-{n}-{seed}")
    while True:
        z = [Fraction(rng.randint(1, 200), rng.randint(1, 200))
             for _ in range(n)]
        if len({*z}) == n and all(v != 0 for v in z):
            return tuple(z)
