"""Exact linear algebra over any field-like scalar type.

Works with Fraction, cyclotomic field elements, and rational functions:
anything supporting +, -, *, / and == 0 exactly.  Plain int entries are
accepted too: an int pivot is inverted as a Fraction, so results are
exact.  Matrices are lists of row lists; nothing here ever touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

S = TypeVar("S")

Matrix = list[list[S]]


def _copy(rows: Sequence[Sequence[S]]) -> Matrix:
    return [list(r) for r in rows]


def _inverse(x: S) -> S:
    """1/x, as a Fraction when x is an int (1/int would be a float)."""
    return Fraction(1, x) if isinstance(x, int) else 1 / x


def rref(rows: Sequence[Sequence[S]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivot cols).

    Zero rows are dropped, so the result is a canonical basis of the row
    space (two spans are equal iff their rrefs are identical).  The pivot
    row is zero left of its pivot, so it is scaled (unless its pivot is
    already 1), and eliminated with, only over its nonzero columns; rows
    are updated in place.
    """
    mat = _copy(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if not mat[i][c] == 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        support = [j for j in range(c, ncols) if not prow[j] == 0]
        if not prow[c] == 1:
            inv = _inverse(prow[c])
            for j in support:
                prow[j] = prow[j] * inv
        for i, row in enumerate(mat):
            if i != r and not row[c] == 0:
                f = row[c]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: Sequence[Sequence[S]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence[S]]) -> Matrix:
    """Basis of the right kernel {v : rows @ v = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    some = next((x for r in rows for x in r if not x == 0), None)
    one = Fraction(1) if some is None else _unit_like(some)
    zero = one - one
    free = [c for c in range(ncols) if c not in pivots]
    basis: Matrix = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(red, pivots):
            v[p] = zero - row[f]
        basis.append(v)
    return basis


def _unit_like(sample: S) -> S:
    if sample == 0:
        raise ValueError("need a nonzero sample to build a unit")
    return Fraction(1) if isinstance(sample, int) else sample / sample


def mat_inverse(a: Sequence[Sequence[S]]) -> Matrix:
    """Inverse of a square matrix; ValueError if singular."""
    n = len(a)
    sample = next((x for r in a for x in r if not x == 0), None)
    if sample is None:
        raise ValueError("singular matrix")
    one = _unit_like(sample)
    zero = one - one
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)) or len(red) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in red[:n]]

