"""Spin-chain realization on tensor powers of the 2-dimensional module.

Pair generators act through the quadratic tensor Omega = e(x)f + f(x)e +
(1/2) h(x)h, which equals swap minus half the identity; the marked-index
generators act through a free 2x2 twist matrix corrected by lowering
terms.  An operator on the n-site chain is sparse: a list of 2^n rows,
each a dict {column: nonzero entry}; slot k of a basis index r is its
bit n - k, so slot 1 is the most significant.

Every operator the checks use is a combination of constant integer
operators of the chain (chain_operators), built once per chain size from
what each does to a basis index r: the unit E_ab of slot k sends r with
bit a there to r with bit b there; the lowering pair (f in slot i, e in
slot j) sends r with bits 1, 0 at slots i, j to r with both flipped; and
2 Omega_ij = 2 swap - 1 fixes r where the two bits agree and sends it to
2 swap(r) - r where they differ.  combination() assembles an operator
over any exact scalars (Fraction, field elements); integer_combination()
clears rational coefficients by their lcm, so commutators of rational
operators become integer sparse products.  Nothing here touches floating
point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
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

HALF = Fraction(1, 2)
_UNITS = [(a, b) for a in (0, 1) for b in (0, 1)]


@cache
def chain_operators(n: int) -> dict[tuple, Mat]:
    """The constant integer operators of the n-site chain, built once per n.

    ("omega2", i, j), i < j: 2 Omega in slots i and j; ("lower", i, j),
    i != j: f in slot i, e in slot j; ("unit", k, a, b): the matrix unit
    E_ab in slot k.  Row r of each is read off the bits of r.
    """
    rows = range(2 ** n)
    ops: dict[tuple, Mat] = {}
    for i in range(1, n + 1):
        bi = 1 << (n - i)
        for a, b in _UNITS:
            ops["unit", i, a, b] = [{r ^ bi * (a ^ b): 1} if (r & bi) == bi * a
                                    else {} for r in rows]
        for j in range(1, n + 1):
            bj = 1 << (n - j)
            if j != i:
                ops["lower", i, j] = [{r ^ bi ^ bj: 1} if r & bi and not r & bj
                                      else {} for r in rows]
            if j > i:
                ops["omega2", i, j] = [{r: 1} if bool(r & bi) == bool(r & bj)
                                       else {r ^ bi ^ bj: 2, r: -1}
                                       for r in rows]
    return ops


def combination(terms: Sequence[tuple], n: int) -> Mat:
    """sum c * chain_operators(n)[key] over the (c, key) terms."""
    ops = chain_operators(n)
    out: Mat = [{} for _ in range(2 ** n)]
    for c, key in terms:
        if c == 0:
            continue
        for row, op_row in zip(out, ops[key]):
            for col, x in op_row.items():
                v = row.get(col)
                row[col] = c * x if v is None else v + c * x
    return [{col: v for col, v in row.items() if not v == 0} for row in out]


def integer_combination(terms: Sequence[tuple[Fraction, tuple]], n: int) -> Mat:
    """combination() of rational terms times the lcm of their
    denominators: an integer operator, zero exactly when the combination is."""
    d = lcm(*(c.denominator for c, _ in terms))
    return combination([(c.numerator * (d // c.denominator), key)
                        for c, key in terms], n)


def hamiltonian_terms(theta: Local, z: Sequence, k: int, n: int) -> list[tuple]:
    """The k-th trigonometric element as (coefficient, operator key) terms:
    the twist at slot k over z_k, Casimir simple fractions, minus lowering
    terms over z_k."""
    zk = z[k - 1]
    terms = [(theta[a][b] / zk, ("unit", k, a, b)) for a, b in _UNITS]
    for j in range(1, n + 1):
        if j == k:
            continue
        d = zk - z[j - 1]
        if d == 0:
            raise ZeroDivisionError("coordinates must be pairwise distinct")
        terms.append((HALF / d, ("omega2", min(j, k), max(j, k))))
        terms.append((-1 / zk, ("lower", k, j)))
    return terms


def trig_hamiltonian(theta: Local, z: Sequence, k: int, n: int) -> Mat:
    """The k-th trigonometric element (see hamiltonian_terms)."""
    return combination(hamiltonian_terms(theta, z, k, n), n)


def pair_vector_terms(pairs: Sequence[tuple[int, int]], coeffs: Sequence,
                      theta: Local, n: int) -> list[tuple]:
    """A pair-generator vector on indices {0..n} as (coefficient, operator
    key) terms.

    Pairs within {1..n} act by the Casimir tensor; a pair {0,i} acts by
    the twist at slot i minus all lowering terms out of slot i.
    """
    terms = []
    for (i, j), c in zip(pairs, coeffs):
        if c == 0:
            continue
        if i == 0:
            terms += [(c * theta[a][b], ("unit", j, a, b)) for a, b in _UNITS]
            terms += [(-c, ("lower", j, l)) for l in range(1, n + 1) if l != j]
        else:
            terms.append((c * HALF, ("omega2", i, j)))
    return terms


def commute(a: Mat, b: Mat) -> bool:
    return mat_mul(a, b) == mat_mul(b, a)
