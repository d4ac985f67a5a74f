"""Maximal nested sets on Coxeter diagrams and the chart data they carry.

A nested family on the diagram of a base consists of connected vertex
subsets, pairwise disjoint-or-comparable, with no antichain of disjoint
members whose union is connected.  Maximal families on a connected
diagram of m vertices have exactly m members; each member has a unique
vertex not covered by its children, and these "missing" vertices give a
bijection between the family and the base (the adapted basis).

A chart is such a family with one coordinate per member.  The base root
attached to a member evaluates on the chart point as the product of the
coordinates of all members above it; ratios of such evaluations stay
polynomial at the boundary where coordinates vanish, which is the whole
point of the construction.  Every root r evaluates to the common factor
prod(t_Q : Q >= A(r)), A(r) its minimal member, times a residual r(t):
the sum over the vertices v of its support of one term, its coefficient
at v times t_Q over the members between v's member M(v) and A(r).  A
chart fixes these terms when it is built, reading each root's integer
coordinates in the base along its height chain.  It holds no point: the
residuals at a point are evaluated once (Chart.residuals), by the point
that owns them, and read by the genericity test and by every member of
the chart family (Chart.hamiltonian_coeffs).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

from .roots import Coords, root_chain

VertexSet = frozenset[int]


def _canonical_set_order(sets: Iterable[VertexSet]) -> tuple[VertexSet, ...]:
    # by (size, sorted members): a linear extension of inclusion
    return tuple(sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))))


def adjacency(nvert: int, edges: Sequence[tuple[int, int]]
              ) -> dict[int, set[int]]:
    """Neighbour sets of the graph on vertices 0..nvert-1."""
    adj: dict[int, set[int]] = {v: set() for v in range(nvert)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def components(vertices: VertexSet, adj: dict[int, set[int]]
               ) -> list[VertexSet]:
    """Connected components of the subgraph induced on vertices."""
    seen: set[int] = set()
    comps = []
    for v in sorted(vertices):
        if v in seen:
            continue
        stack, comp = [v], set()
        seen.add(v)
        while stack:
            x = stack.pop()
            comp.add(x)
            for u in adj[x]:
                if u in vertices and u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(frozenset(comp))
    return comps


def is_nested(sets: Sequence[VertexSet], adj: dict[int, set[int]]) -> bool:
    """Whether the vertex sets form a nested family: each is connected, any
    two are nested or disjoint, and no edge joins two disjoint ones.

    With as many members as vertices this is exactly maximality: such a
    family is one of maximal_nested_sets.  One pass over the pairs.
    """
    for k, p in enumerate(sets):
        if len(components(p, adj)) != 1:
            return False
        for q in sets[:k]:
            if p & q:
                if not (p <= q or q <= p):
                    return False
            elif any(adj[v] & q for v in p):
                return False
    return True


def maximal_nested_sets(nvert: int, edges: Sequence[tuple[int, int]]
                        ) -> list[tuple[VertexSet, ...]]:
    """All maximal nested families, each in canonical order.

    On a connected piece C the families are {C} together with a maximal
    family of C minus one vertex; disconnected pieces contribute
    independently.
    """
    adj = adjacency(nvert, edges)

    def on_vertices(vertices: VertexSet) -> list[frozenset[VertexSet]]:
        comps = components(vertices, adj)
        per_comp: list[list[frozenset[VertexSet]]] = []
        for comp in comps:
            variants: list[frozenset[VertexSet]] = []
            for v in sorted(comp):
                for sub in on_vertices(comp - {v}):
                    variants.append(sub | {comp})
            per_comp.append(variants)
        out = [frozenset()]
        for variants in per_comp:
            out = [acc | var for acc in out for var in variants]
        return out

    families = on_vertices(frozenset(range(nvert)))
    canon = sorted({_canonical_set_order(f) for f in families})
    return canon


class Chart:
    """One maximal nested family on a base, with evaluation machinery.

    base: ordered base roots (ambient coordinates); pos_roots: the
    positive roots they generate; sets: the family members, canonically
    ordered; coordinates are supplied per call as a list aligned with
    sets.  The coordinate of a maximal member is never read: each value
    is a ratio of roots under one maximal member, which all carry its
    coordinate as a factor, so it cancels (the fiber is projective).
    """

    def __init__(self, base: Sequence[Coords], pos_roots: Sequence[Coords],
                 sets: Iterable[VertexSet]):
        self.base = tuple(base)
        self.pos_roots = tuple(tuple(r) for r in pos_roots)
        self.sets = _canonical_set_order(frozenset(s) for s in sets)
        if len(self.sets) != len(self.base):
            raise ValueError("family size must match base size")
        self.adapted: list[int] = []
        for k, p in enumerate(self.sets):
            children_union: set[int] = set()
            for q in self.sets:
                if q < p:
                    children_union |= q
            missing = sorted(p - children_union)
            if len(missing) != 1:
                raise ValueError(f"member {sorted(p)} misses {missing}; "
                                 "family is not maximal nested")
            self.adapted.append(missing[0])
        member = {v: self.sets[k] for k, v in enumerate(self.adapted)}
        # along the height chain a = b + base[j]: a's coordinates are b's + e_j
        known: dict[Coords, Coords] = {}
        for a, b, j in root_chain(self.pos_roots, self.base):
            c = known.get(b, (0,) * len(self.base))
            known[a] = c[:j] + (c[j] + 1,) + c[j + 1:]
        self.base_coords = {r: known[r] for r in self.pos_roots}
        # A(r), the first member in canonical order holding the support of
        # r, is the smallest; r's term at a vertex v of its support is its
        # coefficient c_v times t_Q over the members M(v) <= Q < A(r)
        self._terms: dict[Coords, dict[int, tuple[int, list[int]]]] = {}
        for r, coords in self.base_coords.items():
            supp = {v for v, c in enumerate(coords) if c}
            top = next((p for p in self.sets if supp <= p), None)
            if top is None:
                raise ValueError(f"no member contains the support of {r}")
            self._terms[r] = {
                v: (c, [q for q, p in enumerate(self.sets)
                        if member[v] <= p < top])
                for v, c in enumerate(coords) if c}

    # ------------------------------------------------------------------
    # evaluation at a coordinate tuple (aligned with self.sets)

    @staticmethod
    def _term(term: tuple[int, list[int]], tvals: Sequence) -> object:
        c, chain = term
        return prod((tvals[q] for q in chain), start=Fraction(c))

    def r_value(self, root: Coords, tvals: Sequence) -> object:
        """Residual factor of the root's evaluation after the common chain:
        the sum of its terms.

        The root evaluates to r * prod(t_Q : Q >= A(root)); genericity of
        the chart point means every residual factor is nonzero.
        """
        return sum(self._term(term, tvals)
                   for term in self._terms[tuple(root)].values())

    def residuals(self, tvals: Sequence) -> dict[Coords, object]:
        """r_value of every root at tvals: the point is generic when none
        is zero, and every member of the chart family reads them."""
        return {r: self.r_value(r, tvals) for r in self.pos_roots}

    def hamiltonian_coeffs(self, v: int, tvals: Sequence,
                           residuals: dict[Coords, object]
                           ) -> dict[Coords, object]:
        """Coefficients {root: weight} of the chart family member at vertex v:
        each root's term at v over its residual (residuals(tvals)); roots
        not involving v drop out.

        The weight is (base root at v) / root times the root's coefficient
        at v.  The base root at v has the residual 1, since its minimal
        member is M(v), so the common factors cancel down to the chain
        M(v) <= Q < A(root), and the weight stays finite as boundary
        coordinates vanish.
        """
        return {r: self._term(terms[v], tvals) * (1 / residuals[r])
                for r, terms in self._terms.items() if v in terms}

    def chain_matrix(self) -> list[list[int]]:
        """0/1 incidence of (adapted base root i, member j): sets[j] >= A(beta_i).

        Rows and columns both follow the canonical member order, which
        extends inclusion, so the matrix is unitriangular.
        """
        n = len(self.sets)
        return [[int(self.sets[i] <= self.sets[j]) for j in range(n)]
                for i in range(n)]

    def __repr__(self) -> str:
        lbl = ",".join("{" + "".join(str(v + 1) for v in sorted(s)) + "}"
                       for s in self.sets)
        return f"Chart[{lbl}]"
