"""Spin-chain realization on tensor powers of the 2-dimensional module.

Pair generators act through the quadratic tensor Omega = e(x)f + f(x)e +
(1/2) h(x)h, which equals swap minus half the identity; the marked-index
generators act through a free 2x2 twist matrix corrected by lowering
terms.  An operator on the n-site chain is sparse: a list of 2^n rows,
each a dict {column: nonzero entry}; slot k of a basis index r is its
bit n - k, so slot 1 is the most significant.

Every operator the checks use is a combination of constant integer
operators of the chain (chain_operators), built once per chain size as
the list of their nonzero entries, read off what each does to a basis
index r: the unit E_ab of slot k sends r with bit a there to r with bit
b there; the lowering pair (f in slot i, e in slot j) sends r with bits
1, 0 at slots i, j to r with both flipped; and 2 Omega_ij = 2 swap - 1
fixes r where the two bits agree and sends it to 2 swap(r) - r where
they differ.  combination() adds up those entries only, over any exact
scalars.

The checks run at integer points.  Each identity they test is
homogeneous of degree 0 in the coordinates z: the reindexed Bethe
element depends only on the ratios z_i/z_j, z_k H_k(z) is unchanged
when z is scaled, and whether [H_i, H_j] vanishes does not depend on
the scale of either.  So a rational sample z is replaced by x = D z in
Z^n, D the lcm of its denominators (typea.integer_point), and each
operator by an integer multiple of itself: hamiltonian_terms gives
2 x_k prod_{j != k} (x_k - x_j) H_k and pair_vector_terms twice the
represented vector, so integer input gives integer coefficients and
integer operators.  Nothing here touches floating point.
"""

from __future__ import annotations

from functools import cache
from math import prod
from typing import Sequence

Mat = list[dict]      # sparse rows {column: nonzero entry}
Local = list[list]    # a dense 2x2 twist of one slot


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product a b of sparse matrices stored as {index: entry} rows:
    the package's one sparse product (bethe's rho(w), stored by columns,
    multiplies with it too)."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row.items():
            for c, y in b[k].items():
                acc[c] = acc[c] + x * y if c in acc else x * y
        out.append({c: v for c, v in acc.items() if not v == 0})
    return out


# ----------------------------------------------------------------------
# operators as combinations of constant integer operators

_UNITS = [(a, b) for a in (0, 1) for b in (0, 1)]


@cache
def chain_operators(n: int) -> dict[tuple, list[tuple[int, int, int]]]:
    """The constant integer operators of the n-site chain, built once per
    n, each as its nonzero entries (row, column, value).

    ("omega2", i, j), i < j: 2 Omega in slots i and j; ("lower", i, j),
    i != j: f in slot i, e in slot j; ("unit", k, a, b): the matrix unit
    E_ab in slot k.  Row r of each is read off the bits of r.
    """
    rows = range(2 ** n)
    ops: dict[tuple, list[tuple[int, int, int]]] = {}
    for i in range(1, n + 1):
        bi = 1 << (n - i)
        for a, b in _UNITS:
            ops["unit", i, a, b] = [(r, r ^ bi * (a ^ b), 1) for r in rows
                                    if (r & bi) == bi * a]
        for j in range(1, n + 1):
            bj = 1 << (n - j)
            if j != i:
                ops["lower", i, j] = [(r, r ^ bi ^ bj, 1) for r in rows
                                      if r & bi and not r & bj]
            if j > i:
                both = bi | bj
                ops["omega2", i, j] = (
                    [(r, r, 1 if (r & both) in (0, both) else -1) for r in rows]
                    + [(r, r ^ both, 2) for r in rows
                       if (r & both) not in (0, both)])
    return ops


def combination(terms: Sequence[tuple], n: int) -> Mat:
    """sum c * chain_operators(n)[key] over the (c, key) terms."""
    ops = chain_operators(n)
    out: Mat = [{} for _ in range(2 ** n)]
    for c, key in terms:
        if c == 0:
            continue
        for r, col, x in ops[key]:
            row = out[r]
            v = row.get(col)
            row[col] = c * x if v is None else v + c * x
    return [{col: v for col, v in row.items() if not v == 0} for row in out]


def hamiltonian_terms(theta: Local, x: Sequence, k: int, n: int) -> list[tuple]:
    """The k-th trigonometric element at the point x times
    2 x_k prod_{j != k} (x_k - x_j), as (coefficient, operator key) terms.

    The element is the twist at slot k over x_k, plus Omega_kj over
    x_k - x_j and minus the lowering pair (k, j) over x_k for each j != k;
    so the scaled twist is 2 prod (x_k - x_j) theta, the scaled 2 Omega_kj
    x_k times the product of the other differences, and the scaled
    lowering pair -2 prod (x_k - x_j).  Integer x gives integer terms.
    """
    xk = x[k - 1]
    diffs = {j: xk - x[j - 1] for j in range(1, n + 1) if j != k}
    if xk == 0 or not all(diffs.values()):
        raise ZeroDivisionError("coordinates must be nonzero and pairwise "
                                "distinct")
    p = prod(diffs.values())
    terms = [(2 * p * theta[a][b], ("unit", k, a, b)) for a, b in _UNITS]
    for j in diffs:
        terms.append((xk * prod(d for l, d in diffs.items() if l != j),
                      ("omega2", min(j, k), max(j, k))))
        terms.append((-2 * p, ("lower", k, j)))
    return terms


def trig_hamiltonian(theta: Local, x: Sequence, k: int, n: int) -> Mat:
    """The k-th trigonometric element, scaled as in hamiltonian_terms."""
    return combination(hamiltonian_terms(theta, x, k, n), n)


def pair_vector_terms(pairs: Sequence[tuple[int, int]], coeffs: Sequence,
                      theta: Local, n: int) -> list[tuple]:
    """Twice a pair-generator vector on indices {0..n}, represented on the
    chain, as (coefficient, operator key) terms.

    Pairs within {1..n} act by the Casimir tensor, so t_ij doubled is
    2 Omega_ij; a pair {0,i} acts by the twist at slot i minus all
    lowering terms out of slot i.
    """
    terms = []
    for (i, j), c in zip(pairs, coeffs):
        if c == 0:
            continue
        if i == 0:
            terms += [(2 * c * theta[a][b], ("unit", j, a, b))
                      for a, b in _UNITS]
            terms += [(-2 * c, ("lower", j, l))
                      for l in range(1, n + 1) if l != j]
        else:
            terms.append((c, ("omega2", i, j)))
    return terms


def commute(a: Mat, b: Mat) -> bool:
    return mat_mul(a, b) == mat_mul(b, a)
