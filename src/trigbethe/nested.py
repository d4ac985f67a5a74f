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
point of the construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import express_in_rows
from .roots import Coords

VertexSet = frozenset[int]


def _canonical_set_order(sets: Iterable[VertexSet]) -> tuple[VertexSet, ...]:
    # by (size, sorted members): a linear extension of inclusion
    return tuple(sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))))


def connected_vertex_subsets(nvert: int, edges: Sequence[tuple[int, int]]
                             ) -> list[VertexSet]:
    adj = adjacency(nvert, edges)
    out: set[VertexSet] = set()
    frontier = {frozenset([v]) for v in range(nvert)}
    while frontier:
        out |= frontier
        nxt = set()
        for s in frontier:
            for v in s:
                for u in adj[v]:
                    if u not in s:
                        t = s | {u}
                        if t not in out:
                            nxt.add(t)
        frontier = nxt
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


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
            if not variants:  # empty only when comp itself is empty
                variants = [frozenset()]
            per_comp.append(variants)
        out = [frozenset()]
        for variants in per_comp:
            out = [acc | var for acc in out for var in variants]
        return out

    families = on_vertices(frozenset(range(nvert)))
    canon = sorted({_canonical_set_order(f) for f in families})
    return canon


def is_nested(nvert: int, edges: Sequence[tuple[int, int]],
              family: Iterable[VertexSet]) -> bool:
    """Brute-force nestedness predicate, used as an independent check."""
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
    from itertools import combinations
    for k in range(2, len(fam) + 1):
        for combo in combinations(fam, k):
            if all(not (a & b) for a, b in combinations(combo, 2)):
                union = frozenset().union(*combo)
                if components(union, adj) == [union]:
                    return False
    return True


class Chart:
    """One maximal nested family on a base, with evaluation machinery.

    base: ordered base roots (ambient coordinates); pos_roots: the
    positive roots they generate; sets: the family members, canonically
    ordered; coordinates are supplied per call as a list aligned with
    sets.
    """

    def __init__(self, base: Sequence[Coords], pos_roots: Sequence[Coords],
                 sets: Iterable[VertexSet]):
        self.base = tuple(base)
        self.pos_roots = tuple(pos_roots)
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
        self.base_coords: dict[Coords, tuple[int, ...]] = {}
        rows = [list(map(Fraction, b)) for b in self.base]
        for r in self.pos_roots:
            sol = express_in_rows(list(map(Fraction, r)), rows)
            if sol is None or any(c.denominator != 1 for c in sol):
                raise ValueError(f"{r} is not an integer combination of the base")
            self.base_coords[tuple(r)] = tuple(int(c) for c in sol)
        for r in self.pos_roots:
            self.a_index(r)  # every support must sit inside some member

    # ------------------------------------------------------------------

    def support_set(self, root: Coords) -> VertexSet:
        return frozenset(j for j, c in enumerate(self.base_coords[tuple(root)])
                         if c)

    def a_index(self, root: Coords) -> int:
        """Index (into sets) of the minimal member containing the support."""
        supp = self.support_set(root)
        best = None
        for k, p in enumerate(self.sets):
            if supp <= p and (best is None or p < self.sets[best]):
                best = k
        if best is None:
            raise ValueError(f"no member contains the support of {root}")
        return best

    def member_index_of_vertex(self, v: int) -> int:
        """Index of the member whose adapted (missing) vertex is v."""
        return self.adapted.index(v)

    def chain_between(self, lo: int, hi: int) -> list[int]:
        """Members Q with sets[lo] <= Q < sets[hi] (a chain in the family)."""
        lo_set, hi_set = self.sets[lo], self.sets[hi]
        return [k for k, q in enumerate(self.sets)
                if lo_set <= q and q < hi_set]

    # ------------------------------------------------------------------
    # evaluation at a coordinate tuple (aligned with self.sets)

    def r_value(self, root: Coords, tvals: Sequence) -> object:
        """Residual factor of the root's evaluation after the common chain.

        The root evaluates to r * prod(t_Q : Q >= A(root)); genericity of
        the chart point means every residual factor is nonzero.
        """
        coords = self.base_coords[tuple(root)]
        ai = self.a_index(root)
        total = None
        for j, c in enumerate(coords):
            if not c:
                continue
            k = self.member_index_of_vertex(j)
            term = Fraction(c)
            for q in self.chain_between(k, ai):
                term = term * tvals[q]
            total = term if total is None else total + term
        return total

    def is_generic(self, tvals: Sequence) -> bool:
        return all(not self.r_value(r, tvals) == 0 for r in self.pos_roots)

    def ratio(self, v: int, root: Coords, tvals: Sequence) -> object:
        """Bounded ratio (base root at v) / root on the chart point.

        Defined whenever vertex v lies in the support of the root; stays
        finite as boundary coordinates vanish.
        """
        k = self.member_index_of_vertex(v)
        ai = self.a_index(root)
        if not self.sets[k] <= self.sets[ai]:
            raise ValueError("ratio undefined: members are not comparable")
        beta = self.base[v]
        num = self.r_value(beta, tvals)
        den = self.r_value(root, tvals)
        out = num / den
        for q in self.chain_between(k, ai):
            out = out * tvals[q]
        return out

    def hamiltonian_coeffs(self, v: int, tvals: Sequence) -> dict[Coords, object]:
        """Coefficients {root: weight} of the chart family member at vertex v.

        weight = ratio(v, root) * (coefficient of the v-th base root in
        root); roots not involving v drop out.
        """
        out: dict[Coords, object] = {}
        for r in self.pos_roots:
            c = self.base_coords[tuple(r)][v]
            if c:
                out[tuple(r)] = self.ratio(v, r, tvals) * c
        return out

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
