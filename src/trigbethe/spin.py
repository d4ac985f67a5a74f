"""Spin-chain realization on tensor powers of the 2-dimensional module.

Pair generators act through the quadratic tensor Omega = e(x)f + f(x)e +
(1/2) h(x)h, which equals swap minus half the identity; the marked-index
generators act through a free 2x2 twist matrix corrected by lowering
terms.  An operator on the n-site chain is sparse: a list of 2^n rows,
each a dict {column: nonzero entry}, slot 1 the most significant bit of
an index.  Single-site factors (E, F, H, the twist) are dense 2x2
row lists, and place() builds their sparse Kronecker product.

Every operator the checks use is a combination of a few constant integer
operators of the chain (chain_operators: 2 Omega_ij, the lowering pairs,
the matrix units of one slot), built once per chain size.  combination()
assembles one over any exact scalars (Fraction, field elements);
integer_combination() clears rational coefficients by their lcm, so
commutators and equalities of rational operators become integer sparse
products.  Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from typing import Sequence

Mat = list[dict]      # sparse rows {column: nonzero entry}
Local = list[list]    # a dense 2x2 single-site factor

E: Local = [[0, 1], [0, 0]]
F: Local = [[0, 0], [1, 0]]
H: Local = [[1, 0], [0, -1]]


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


def mat_equal(a: Mat, b: Mat) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def zero_matrix(size: int) -> Mat:
    return [{} for _ in range(size)]


def place(factors: dict[int, Local], n: int) -> Mat:
    """Kronecker product over n slots (1-based), identity where omitted."""
    out: Mat = [{0: 1}]
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


def lowering_pair(i: int, j: int, n: int) -> Mat:
    """Lowering part: f in the first-named slot, e in the second."""
    return place({i: F, j: E}, n)


def raising_pair(i: int, j: int, n: int) -> Mat:
    return place({i: E, j: F}, n)


# ----------------------------------------------------------------------
# operators as combinations of constant integer operators

HALF = Fraction(1, 2)
_UNITS = {(a, b): [[int((r, c) == (a, b)) for c in (0, 1)] for r in (0, 1)]
          for a in (0, 1) for b in (0, 1)}


@cache
def chain_operators(n: int) -> dict[tuple, Mat]:
    """The constant integer operators of the n-site chain, built once per n.

    ("omega2", i, j), i < j: 2 Omega in slots i and j; ("lower", i, j),
    i != j: f in slot i, e in slot j; ("unit", k, a, b): the matrix unit
    E_ab in slot k.
    """
    ops: dict[tuple, Mat] = {}
    for i in range(1, n + 1):
        for a, b in _UNITS:
            ops["unit", i, a, b] = place({i: _UNITS[a, b]}, n)
        for j in range(1, n + 1):
            if j != i:
                ops["lower", i, j] = lowering_pair(i, j, n)
            if j > i:
                ops["omega2", i, j] = mat_add(
                    mat_scale(mat_add(raising_pair(i, j, n),
                                      lowering_pair(i, j, n)), 2),
                    place({i: H, j: H}, n))
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
    return mat_equal(mat_mul(a, b), mat_mul(b, a))
