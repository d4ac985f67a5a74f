"""Integer lattice computations: Smith and Hermite normal forms.

Lattices are row spans of integer matrices inside Z^n.  Smith form
provides saturations and torsion quotients.  It tracks its unimodular
transforms U and V, and V^{-1} alongside them: every column operation
applied to V is matched by the inverse row operation on V^{-1}, so the
whole computation stays in integers.  Row-style Hermite form provides a
canonical basis used to deduplicate lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

IntRows = list[list[int]]


def _identity(n: int) -> IntRows:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass
class SmithForm:
    """U @ M @ V = diag(divisors) padded with zeros; U, V unimodular."""

    divisors: list[int]          # nonzero diagonal entries, d1 | d2 | ...
    U: IntRows                   # m x m
    V: IntRows                   # n x n
    Vinv: IntRows                # n x n, integer inverse of V
    shape: tuple[int, int]

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def saturation_basis(self) -> IntRows:
        """Basis of (Q-span of the rows) intersected with Z^n."""
        return [list(self.Vinv[i]) for i in range(self.rank)]

    def torsion_divisors(self) -> list[int]:
        """Elementary divisors > 1 of saturation / lattice."""
        return [d for d in self.divisors if d > 1]


def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int | None = None
                      ) -> SmithForm:
    M = [list(map(int, r)) for r in rows]
    m = len(M)
    n = len(M[0]) if M else (ncols if ncols is not None else 0)
    if ncols is not None and n != ncols:
        raise ValueError("column count mismatch")
    U = _identity(m)
    V = _identity(n)
    Vinv = _identity(n)  # kept equal to V^{-1}: M @ E pairs with E^{-1} @ Vinv

    def row_op(i, j, q):  # row_i -= q * row_j
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            M[r][i] -= q * M[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]
        Vinv[j] = [a + q * b for a, b in zip(Vinv[j], Vinv[i])]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_negate(i):
        M[i] = [-a for a in M[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        # locate a smallest-magnitude nonzero entry in the working block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] and (best is None
                                or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        if i0 != t:
            row_swap(t, i0)
        if j0 != t:
            col_swap(t, j0)
        if M[t][t] < 0:
            row_negate(t)
        dirty = False
        for i in range(t + 1, m):
            if M[i][t]:
                q = M[i][t] // M[t][t]
                row_op(i, t, q)
                if M[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if M[t][j]:
                q = M[t][j] // M[t][t]
                col_op(j, t, q)
                if M[t][j]:
                    dirty = True
        if dirty:
            continue  # a smaller pivot appeared; redo this block
        # enforce divisibility of the remaining block by the pivot
        stained = next(((i, j) for i in range(t + 1, m)
                        for j in range(t + 1, n)
                        if M[i][j] % M[t][t] != 0), None)
        if stained is not None:
            row_op(t, stained[0], -1)  # adds the offending row to row t
            continue
        t += 1

    divisors = [M[k][k] for k in range(min(m, n)) if M[k][k] != 0]
    return SmithForm(divisors, U, V, Vinv, (m, n))


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style Hermite form; zero rows dropped.

    Two integer matrices generate the same row lattice iff their Hermite
    forms coincide, so this output can be used as a dictionary key.
    """
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


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(hermite_normal_form(rows))


def in_lattice(vec: Sequence[int], rows: Sequence[Sequence[int]]) -> bool:
    """Is vec an integer combination of the rows?"""
    hnf = hermite_normal_form(rows)
    v = list(map(int, vec))
    for row in hnf:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        if v[c] % row[c] == 0:
            q = v[c] // row[c]
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)
