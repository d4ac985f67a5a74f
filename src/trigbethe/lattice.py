"""Integer lattice computations: Smith and Hermite normal forms.

Lattices are row spans of integer matrices inside Z^n.  Smith form
provides saturations (the first rank rows of V^{-1}) and torsion
quotients.  It tracks its unimodular column transform V, and V^{-1}
alongside it: every column operation applied to V is matched by the
inverse row operation on V^{-1}, so the whole computation stays in
integers.  The row transform U is not kept: saturations, torsion and
coordinates u V read V and V^{-1} alone.  A Smith form is one diagonal
form L = span(d_i V^{-1}[i]); diagonal_insert grows such a form, its d
in any order, by one vector with extended-gcd column operations on the
columns of V past the rank, when the vector's first coordinates u V are
multiples of the d_i.  Row-style
Hermite form provides a canonical basis used to deduplicate lattices.
It is built by insertion only: hermite_insert adds one vector to a
lattice already in Hermite form, clearing the vector with one gcd step
per pivot column it meets, making the rest a new row and re-reducing
above the pivots, so growing a lattice by one root costs one pass over
its rows, and hermite_normal_form inserts its rows one at a time.
hermite_coordinates reads a vector's coefficients in a Hermite basis in
one pass over the pivots.
"""

from __future__ import annotations

from functools import reduce
from operator import mod
from typing import NamedTuple, Sequence

IntRows = list[list[int]]


def _identity(n: int) -> IntRows:
    return [[int(i == j) for j in range(n)] for i in range(n)]


class SmithForm(NamedTuple):
    """U @ M @ V = diag(divisors) padded with zeros, for a unimodular U
    that is not kept; V unimodular."""

    divisors: list[int]          # nonzero diagonal entries, d1 | d2 | ...
    V: IntRows                   # n x n
    Vinv: IntRows                # n x n, integer inverse of V

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def torsion_divisors(self) -> list[int]:
        """Elementary divisors > 1 of saturation / lattice."""
        return [d for d in self.divisors if d > 1]


def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int
                      ) -> SmithForm:
    M = [list(map(int, r)) for r in rows]
    m, n = len(M), ncols
    if M and len(M[0]) != n:
        raise ValueError("column count mismatch")
    V = _identity(n)
    Vinv = _identity(n)  # kept equal to V^{-1}: M @ E pairs with E^{-1} @ Vinv

    def row_op(i, j, q):  # row_i -= q * row_j
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            M[r][i] -= q * M[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]
        Vinv[j] = [a + q * b for a, b in zip(Vinv[j], Vinv[i])]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]

    def col_swap(i, j):
        for r in range(m):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_negate(i):
        M[i] = [-a for a in M[i]]

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
    return SmithForm(divisors, V, Vinv)


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style Hermite form; zero rows dropped.

    Two integer matrices generate the same row lattice iff their Hermite
    forms coincide, so this output can be used as a dictionary key.  The
    rows are inserted one at a time, starting from the empty form.
    """
    return reduce(hermite_insert, rows, ())


def hermite_insert(hnf: tuple[tuple[int, ...], ...], vec: Sequence[int]
                   ) -> tuple[tuple[int, ...], ...]:
    """The Hermite form of the lattice of hnf and vec, hnf in Hermite form
    as returned here: a tuple of integer tuples.

    vec is cleared column by column, one step per pivot column where it
    is nonzero: a multiple of the pivot row is subtracted when the pivot
    p divides the entry x, and otherwise the pivot row and vec are
    replaced by the unimodular combination g = s row + t vec and
    (p/g) vec - (x/g) row, from the extended gcd g = s p + t x (Cohen,
    A Course in Computational Algebraic Number Theory, 2.4).  Each entry
    is read from the current vec, since a gcd step can make a later one
    nonzero.  At the first nonzero entry outside the pivot columns, what
    is left of vec becomes a new row.  Entries above the pivots are then
    reduced again from the first changed row on.  Rows stay tuples, and
    only the rows that change are rebuilt.
    """
    rows = list(hnf)
    pivots, c = [], 0
    for row in rows:  # echelon form: pivot columns increase
        while not row[c]:
            c += 1
        pivots.append(c)
    v = vec
    changed = count = len(rows)
    r = 0
    for c in range(len(v)):
        x = v[c]
        if not x:
            continue
        while r < count and pivots[r] < c:
            r += 1
        if r == count or pivots[r] != c:
            rows.insert(r, tuple(v) if x > 0 else tuple([-b for b in v]))
            pivots.insert(r, c)
            if r < changed:
                changed = r
            break
        row = rows[r]
        p = row[c]
        q, rem = divmod(x, p)
        if rem:
            g, s, t = _extended_gcd(p, x)
            rows[r] = tuple([s * a + t * b for a, b in zip(row, v)])
            v = [(p // g) * b - (x // g) * a for a, b in zip(row, v)]
            if r < changed:
                changed = r
        else:
            v = [b - q * a for a, b in zip(row, v)]
    for k in range(changed, len(rows)):  # entries above a pivot into [0, pivot)
        row, c = rows[k], pivots[k]
        for i in range(k):
            q = rows[i][c] // row[c]
            if q:
                rows[i] = tuple([a - q * b for a, b in zip(rows[i], row)])
    return tuple(rows)


def diagonal_insert(divisors: Sequence[int], vcols: IntRows, vinv: IntRows,
                    image: Sequence[int]
                    ) -> tuple[list[int], IntRows, IntRows] | None:
    """The diagonal form of L + <a> from that of L, or None.

    L = span(d_i vinv[i], i < k), k = len(divisors), where vinv holds the
    rows of the inverse of a unimodular V and vcols its columns; image is
    a V for a vector a outside the Q-span of L.  Column operations on the
    columns k.. of V, one extended-gcd step (Cohen 2.4) per nonzero entry
    of the tail of image past the first, with the inverse row operations
    on vinv, turn that tail into (g, 0, ..., 0), g > 0; they leave L's
    form alone.  When each head entry image[i], i < k, is a multiple of
    d_i, subtracting those multiples of d_i vinv[i] leaves g vinv[k], so
    L + <a> = span(d_i vinv[i], i < k, and g vinv[k]).  Otherwise, which
    never happens for a saturated L, None.  The inputs are not modified.
    """
    k = len(divisors)
    if any(map(mod, image, divisors)):
        return None
    vcols, vinv = vcols[:], vinv[:]
    x = image[k]
    for j in range(k + 1, len(image)):
        y = image[j]
        if not y:
            continue
        if not x:
            vcols[k], vcols[j] = vcols[j], vcols[k]
            vinv[k], vinv[j] = vinv[j], vinv[k]
            x = y
            continue
        ck, cj, rk, rj = vcols[k], vcols[j], vinv[k], vinv[j]
        q, rem = divmod(y, x)
        if rem:
            # (col_k, col_j) times [[s, -y/g], [t, x/g]], of determinant 1
            g, s, t = _extended_gcd(x, y)
            xg, yg = x // g, y // g
            vcols[k] = [s * p + t * r for p, r in zip(ck, cj)]
            vcols[j] = [xg * r - yg * p for p, r in zip(ck, cj)]
            vinv[k] = [xg * p + yg * r for p, r in zip(rk, rj)]
            vinv[j] = [s * r - t * p for p, r in zip(rk, rj)]
            x = g
        else:
            vcols[j] = [r - q * p for p, r in zip(ck, cj)]
            vinv[k] = [p + q * r for p, r in zip(rk, rj)]
    if x < 0:
        vcols[k] = [-p for p in vcols[k]]
        vinv[k] = [-p for p in vinv[k]]
        x = -x
    return [*divisors, x], vcols, vinv


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s a + t b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(hermite_normal_form(rows))


def hermite_coordinates(hnf: Sequence[Sequence[int]], vec: Sequence[int]
                        ) -> list[int] | None:
    """The integer coefficients of vec in the rows of a Hermite form, or
    None when vec is not in their lattice.

    The pivots are walked once, left to right: at each pivot the
    coefficient is what is left of vec there divided by the pivot, and
    what is left of vec must vanish in every column without a pivot.
    """
    v = list(map(int, vec))
    coords = []
    c = 0
    for row in hnf:
        while not row[c]:
            if v[c]:
                return None
            c += 1
        q, rem = divmod(v[c], row[c])
        if rem:
            return None
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        coords.append(q)
        c += 1
    if any(v[c:]):
        return None
    return coords
