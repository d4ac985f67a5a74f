"""Spin-chain realization on tensor powers of the 2-dimensional module.

Pair generators act through the quadratic tensor Omega = e(x)f + f(x)e +
(1/2) h(x)h, which equals swap minus half the identity; the marked-index
generators act through a free 2x2 twist matrix corrected by lowering
terms.  An operator on the n-site chain is sparse: a list of 2^n rows,
each a dict {column: nonzero entry}, slot 1 the most significant bit of
an index.  Single-site factors (E, F, H, ID2, the twist) are dense 2x2
row lists, and place() builds their sparse Kronecker product.
Everything is exact over Fraction (or any scalar obeying the same
protocol).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Mat = list[dict]      # sparse rows {column: nonzero entry}
Local = list[list]    # a dense 2x2 single-site factor

E: Local = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
F: Local = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
H: Local = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
ID2: Local = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def mat_add(a: Mat, b: Mat) -> Mat:
    out = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for c, v in rb.items():
            if c not in row:
                row[c] = v
            else:
                s = row[c] + v
                if s == 0:
                    del row[c]
                else:
                    row[c] = s
        out.append(row)
    return out


def mat_scale(a: Mat, s) -> Mat:
    if s == 0:
        return zero_matrix(len(a))
    return [{c: s * v for c, v in row.items()} for row in a]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return mat_add(a, mat_scale(b, Fraction(-1)))


def mat_mul(a: Mat, b: Mat) -> Mat:
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row.items():
            for c, y in b[k].items():
                acc[c] = acc[c] + x * y if c in acc else x * y
        out.append({c: v for c, v in acc.items() if not v == 0})
    return out


def mat_equal(a: Mat, b: Mat) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def zero_matrix(size: int) -> Mat:
    return [{} for _ in range(size)]


def place(factors: dict[int, Local], n: int) -> Mat:
    """Kronecker product over n slots (1-based), identity where omitted."""
    out: Mat = [{0: Fraction(1)}]
    for slot in range(1, n + 1):
        f = factors.get(slot)
        nxt = []
        for row in out:
            for fr in (0, 1):
                if f is None:
                    nxt.append({2 * c + fr: v for c, v in row.items()})
                    continue
                nxt.append({2 * c + fc: v * f[fr][fc] for c, v in row.items()
                            for fc in (0, 1) if not f[fr][fc] == 0})
        out = nxt
    return out


def casimir_pair(i: int, j: int, n: int) -> Mat:
    """Omega acting in slots i and j; symmetric in its two slots."""
    half = Fraction(1, 2)
    out = place({i: E, j: F}, n)
    out = mat_add(out, place({i: F, j: E}, n))
    out = mat_add(out, mat_scale(place({i: H, j: H}, n), half))
    return out


def lowering_pair(i: int, j: int, n: int) -> Mat:
    """Lowering part: f in the first-named slot, e in the second."""
    return place({i: F, j: E}, n)


def raising_pair(i: int, j: int, n: int) -> Mat:
    return place({i: E, j: F}, n)


def twist_at(theta: Local, i: int, n: int) -> Mat:
    return place({i: theta}, n)


def trig_hamiltonian(theta: Local, z: Sequence, k: int, n: int) -> Mat:
    """The k-th trigonometric element: twist over z_k, Casimir simple
    fractions, minus lowering terms over z_k."""
    zk = z[k - 1]
    out = mat_scale(twist_at(theta, k, n), 1 / zk)
    for j in range(1, n + 1):
        if j == k:
            continue
        d = zk - z[j - 1]
        if d == 0:
            raise ZeroDivisionError("coordinates must be pairwise distinct")
        out = mat_add(out, mat_scale(casimir_pair(k, j, n), 1 / d))
        out = mat_sub(out, mat_scale(lowering_pair(k, j, n), 1 / zk))
    return out


def represent_pair_vector(pairs: Sequence[tuple[int, int]],
                          coeffs: Sequence, theta: Local, n: int) -> Mat:
    """Matrix of a pair-generator vector on indices {0..n}.

    Pairs within {1..n} act by the Casimir tensor; a pair {0,i} acts by
    the twist at slot i minus all lowering terms out of slot i.
    """
    out = zero_matrix(2 ** n)
    for (i, j), c in zip(pairs, coeffs):
        if c == 0:
            continue
        if i == 0:
            block = twist_at(theta, j, n)
            for l in range(1, n + 1):
                if l != j:
                    block = mat_sub(block, lowering_pair(j, l, n))
        else:
            block = casimir_pair(i, j, n)
        out = mat_add(out, mat_scale(block, c))
    return out


def commutator(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def commute(a: Mat, b: Mat) -> bool:
    return not any(commutator(a, b))
