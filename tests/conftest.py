"""Oracles shared by several test modules, handed to tests as fixtures."""

from fractions import Fraction
from itertools import combinations

import pytest

from trigbethe.linalg import rref
from trigbethe.nested import adjacency, components


def _express_in_rows(vec, rows):
    """Coefficients c with sum(c_i * rows[i]) == vec, or None if outside."""
    if not rows:
        return None if any(not x == 0 for x in vec) else []
    # solve rows^T c = vec by eliminating on the augmented transpose
    m, n = len(rows), len(rows[0])
    aug = [[rows[i][j] for i in range(m)] + [vec[j]] for j in range(n)]
    red, pivots = rref(aug)
    coeffs = [None] * m
    for row, p in zip(red, pivots):
        if p == m:
            return None  # vec is outside the row space
        coeffs[p] = row[m]
    zero = vec[0] - vec[0] if n else Fraction(0)
    return [zero if c is None else c for c in coeffs]


@pytest.fixture
def express_in_rows():
    """A vector's coefficients in given rows, by one row reduction."""
    return _express_in_rows


def _connected_vertex_subsets(nvert, edges):
    """The connected vertex sets of a graph, by size and then members."""
    adj = adjacency(nvert, edges)
    out = set()
    frontier = {frozenset([v]) for v in range(nvert)}
    while frontier:
        out |= frontier
        frontier = {s | {u} for s in frontier for v in s for u in adj[v]
                    if u not in s and s | {u} not in out}
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def _is_nested(nvert, edges, family):
    """Brute-force nestedness predicate."""
    adj = adjacency(nvert, edges)
    fam = [frozenset(s) for s in family]
    for s in fam:
        if not s or components(s, adj) != [s]:
            return False
    for i, a in enumerate(fam):
        for b in fam[i + 1:]:
            if not (a <= b or b <= a or not (a & b)):
                return False
    # no antichain of >=2 disjoint members with connected union
    for k in range(2, len(fam) + 1):
        for combo in combinations(fam, k):
            if all(not (a & b) for a, b in combinations(combo, 2)):
                union = frozenset().union(*combo)
                if components(union, adj) == [union]:
                    return False
    return True


@pytest.fixture
def connected_vertex_subsets():
    return _connected_vertex_subsets


@pytest.fixture
def is_nested():
    return _is_nested
