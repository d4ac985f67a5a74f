"""Layers of the toric arrangement attached to a root system.

The torus Hom(Z^m, K*) is cut by the subvarieties {e^alpha = 1}, one per
positive root.  A layer is a connected component of an intersection of
these; it is encoded by a saturated sublattice (its vanishing lattice,
in Hermite form) together with a finite-order character of that lattice
giving the constant values e^v takes on the layer.

Every character value is a root of unity zeta_N^e of Q(zeta_N), so a
character is kept as integer exponents mod N: chi(v) = 1 is a dot
product mod N, the printed values are read off the field's zeta_table,
and field elements are built only for the coordinates of a point on a
layer, each zeta_N to one exponent sum times a rational
(point_on_layer).

Enumeration visits every lattice <B> spanned by a linearly independent
set B of positive roots, each exactly once.  The lattices are grown
breadth-first by rank: the rank-(k+1) lattices are the Hermite forms of
L + <a> for a rank-k lattice L and a positive root a outside the Q-span
of L, deduplicated by that Hermite form.  Each is obtained by inserting
a into the Hermite form of L (lattice.hermite_insert), never by
recomputing the form of L + <a>.  Each lattice also carries a diagonal
form: a unimodular V with L = span(d_i Vinv[i], i < k), d in any order
(sat(L)/L is prod Z/d_i either way).  The child L + <a> grows it from
its parent's (lattice.diagonal_insert): column operations past k turn
the tail of a V into (g, 0, ..., 0), and when the head of a V is 0 mod
d, which always holds for a saturated parent, the child's diagonal is
d + [g].  Otherwise the child takes its Smith form.  A visit reads every
positive root's coordinates u V (one vector addition each, from a lower
root, into one list by positive-root index), decides which roots lie in
the Q-span of the saturation, spanned by Vinv[:k], and then records each
character of sat(L)/L as a layer; a saturated L has only the trivial
one, and there a root's class in Z^n/L is its tail (u V)[k:] up to
sign.  No candidate needs a rank test: a character of sat(L)/L is
trivial on L (for u in L, d_i divides (u V)_i), L is generated by the
positive roots inserted to build it, and those lie in the span, so the
roots a candidate centralizes hold L's generators and have rank k.  Every layer arises this way from the
lattice of any independent spanning subset of its centralized roots, so
the walk is complete, and candidates are deduplicated by their canonical
encoding.  The walk reads the root system itself: its positive roots, in
positive-root order, their positive_index, and the height chain over all
simple roots (RootSystem.chain, the one bethe.stratum_values reads at
the full stratum), turned into index triples once per walk;
indecomposability reads one graph of the positive roots, kept in the
root system's "graph" table.  The module keeps no cache of its own.

- One walk, every sub-arrangement: Z^I is a coordinate summand, so the
  layers on T_I are the layers whose lattice is supported on I, with the
  other coordinates dropped (subset_layers, restrict).
- One insertion per class: L + <a> = L + <a'> iff a and a' have the same
  image in Z^n/L up to sign, the subgroup they generate being infinite
  cyclic, so one root of each class is inserted.
- Roots that span: a layer's roots span its lattice exactly when it is
  the trivial-character layer of a saturated lattice the walk visits.
  Its roots form a closed subsystem, whose root lattice is spanned by
  its simple roots, positive and independent, so the walk visits it;
  that lattice is saturated and the character trivial on it.  The walk
  records the flag there (Layer.roots_span_lattice).
- Poset shortcut: a layer whose lattice is spanned by its own roots
  contains every layer centralizing those roots, so layer_contains runs
  only on candidates whose lattice is not.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from operator import add, mod, mul
from typing import NamedTuple, Sequence

from .field import CyclotomicField, FieldElement
from .lattice import (diagonal_insert, hermite_coordinates, hermite_insert,
                      hermite_normal_form, smith_normal_form)
from .nested import adjacency, components
from .roots import Coords, RootSystem, chain_values

Point = tuple[FieldElement, ...]


class Layer(NamedTuple):
    """One layer: vanishing lattice basis (Hermite rows) plus character.

    The character is stored as exponents: e^basis[i] takes the constant
    value zeta_N^char_exps[i] on the layer, with N = field.order.
    """

    ambient_dim: int
    basis: tuple[Coords, ...]
    char_exps: tuple[int, ...]
    field: CyclotomicField
    roots_pos: tuple[Coords, ...]   # positive roots constant 1 on the layer,
                                    # in positive-root order
    roots_span_lattice: bool        # whether roots_pos spans the lattice

    @property
    def codim(self) -> int:
        return len(self.basis)

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.basis)

    def char_exponent(self, vec: Sequence[int]) -> int | None:
        """e with e^vec = zeta_N^e on the layer; None if vec is outside the lattice."""
        coords = hermite_coordinates(self.basis, vec)
        if coords is None:
            return None
        return sum(map(mul, coords, self.char_exps)) % self.field.order

    def sort_key(self):
        table = self.field.zeta_table
        return (self.codim, self.basis,
                tuple([table[e][0] for e in self.char_exps]))


# A lattice L of the walk with its diagonal form (basis, d, vcols, vinv):
# basis is the Hermite form of L, vcols the columns of a unimodular V,
# vinv the rows of its integer inverse, and L = span(d[i] vinv[i], i < k)
# with k = len(d).  d need not be in Smith order.
Form = tuple[tuple[Coords, ...], list[int], list[list[int]], list[list[int]]]


def enumerate_layers(rs: RootSystem, field: CyclotomicField,
                     stats: Counter | None = None) -> list[Layer]:
    """All layers of the arrangement of rs over field, canonically ordered.

    stats, when given, gains the walk's counts: walks (1), lattices
    visited, inserts (Hermite insertions made), smith_forms (lattices
    whose diagonal form is a full Smith form) and layers found.
    """
    n = rs.rank
    # the height chain over the simple roots by positive-root index: the
    # image of root ka is that of root kb plus row i of V, or row i
    # itself when kb is None (ka is the i-th simple root)
    index = rs.positive_index
    chain = [(index[a], index.get(b), i) for a, b, i in rs.chain(range(n))]
    found: dict[tuple, Layer] = {}
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    seen: set[tuple[Coords, ...]] = {()}
    frontier: list[Form] = [((), [], identity, identity)]
    inserts = smith_forms = 0
    while frontier:
        grown = []
        for form in frontier:
            for a, image in _visit(rs, field, form, found, chain):
                inserts += 1
                cand = hermite_insert(form[0], a)
                if cand in seen:
                    continue
                seen.add(cand)
                child = diagonal_insert(*form[1:], image)
                if child is None:
                    smith_forms += 1
                    sf = smith_normal_form(cand, ncols=n)
                    child = sf.divisors, list(map(list, zip(*sf.V))), sf.Vinv
                grown.append((cand, *child))
        frontier = grown
    if stats is not None:
        stats.update(walks=1, lattices=len(seen), inserts=inserts,
                     smith_forms=smith_forms, layers=len(found))
    return sorted(found.values(), key=Layer.sort_key)


def _visit(rs: RootSystem, field: CyclotomicField, form: Form,
           found: dict[tuple, Layer],
           chain: Sequence[tuple[int, int | None, int]]
           ) -> list[tuple[Coords, Coords]]:
    """Record the layers of one lattice in found; return (a, a V) for one
    positive root a of each class of Z^n/L, up to sign, met outside its
    Q-span.  chain is the height chain by positive-root index (see
    enumerate_layers)."""
    lattice, divisors, vcols, vinv = form
    n, k = rs.rank, len(divisors)
    order = field.order
    saturated = not any(d > 1 for d in divisors)

    # u V by one vector addition per root along the height chain over the
    # simple roots: e_i V is row i of V
    vrows = list(zip(*vcols))
    images: list = [None] * len(chain)
    for ka, kb, i in chain:
        images[ka] = vrows[i] if kb is None \
            else tuple(map(add, images[kb], vrows[i]))

    # u = sum_i (u V)_i vinv[i] and the saturation is spanned by vinv[:k],
    # so u lies in its Q-span iff (u V)_i = 0 for i >= k.  Outside it, the
    # class of u in Z^n/L is (u V)_i mod d_i for i < k and (u V)_i for
    # i >= k; it is read up to sign, the first nonzero tail entry positive.
    # On a saturated L every d_i is 1, and the tail alone is the class
    # (tuples compare lexicographically, so a tail is above the zero tail
    # exactly when its first nonzero entry is positive)
    in_span = []
    classes: dict[tuple, tuple[Coords, Coords]] = {}
    zero = (0,) * (n - k)
    for a, uv in zip(rs.positive_roots, images):
        tail = uv[k:]
        if tail == zero:
            in_span.append((a, uv))
            continue
        if saturated:
            key = tail if tail > zero else tuple([-x for x in tail])
        else:
            signed = uv if tail > zero else [-x for x in uv]
            key = (*map(mod, signed, divisors), *signed[k:])
        if key not in classes:
            classes[key] = (a, uv)
    if saturated:
        # L is saturated: its one character is trivial, and its roots,
        # which include L's generators, span it.  The same layer may have
        # been recorded from a lattice of which L is the saturation
        key = (lattice, (0,) * k)
        found[key] = Layer(n, lattice, key[1], field,
                           tuple([a for a, _ in in_span]), True)
        return list(classes.values())

    hnf = hermite_normal_form(vinv[:k])
    hnf_coords = [[sum(map(mul, row, col)) for col in vcols[:k]]
                  for row in hnf]
    if any(order % d for d in divisors):
        # the field lacks a root of unity: name the first Smith invariant
        # factor of sat/L = prod Z/d_i it lacks, gcd and lcm pairwise
        factors = list(divisors)
        for i, j in itertools.combinations(range(k), 2):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
        for f in factors:
            field.root_exponent(f)
    # characters of sat/L: a d_i-th root of unity on each saturation basis
    # vector vinv[i], each a layer (see above).  A character already
    # recorded on this saturation is that layer.  chi reads the first k
    # coordinates of c, so an in-span root's whole image u V will do
    steps = [field.root_exponent(d) for d in divisors]
    for choice in itertools.product(*(range(d) for d in divisors)):
        exps = [s * j for s, j in zip(steps, choice)]

        def chi(c: Sequence[int]) -> int:
            return sum(map(mul, exps, c)) % order

        key = (hnf, tuple(chi(c) for c in hnf_coords))
        if key not in found:
            found[key] = Layer(n, hnf, key[1], field, tuple(
                a for a, c in in_span if chi(c) == 0), False)
    return list(classes.values())


def is_indecomposable(rs: RootSystem, layer: Layer) -> bool:
    """Nonempty centralized set whose non-orthogonality graph is connected,
    read on the graph of all positive roots in rs's "graph" table."""
    pos, index = rs.positive_roots, rs.positive_index
    graph = rs.memo("graph", None, lambda: adjacency(
        len(pos), rs.nonorthogonal_edges(pos)))
    return len(components(frozenset(index[a] for a in layer.roots_pos),
                          graph)) == 1


def building_set(rs: RootSystem, field: CyclotomicField,
                 stats: Counter | None) -> list[Layer]:
    """The indecomposable layers; stats as for enumerate_layers."""
    return [l for l in enumerate_layers(rs, field, stats)
            if is_indecomposable(rs, l)]


def gamma_divisors(roots: Sequence[Coords], ambient_dim: int) -> list[int]:
    """Elementary divisors >1 of saturation(<roots>)/<roots>."""
    sf = smith_normal_form([list(r) for r in roots], ncols=ambient_dim)
    return sf.torsion_divisors()


def layer_contains(big: Layer, small: Layer) -> bool:
    """Is small a subvariety of big?  Lattice containment + equal constants."""
    if big.field is not small.field:
        raise ValueError("layers over different fields")
    return all(small.char_exponent(row) == e
               for row, e in zip(big.basis, big.char_exps))


def poset_relations(layers: Sequence[Layer], stats: Counter
                    ) -> list[tuple[int, int]]:
    """Pairs (i, j) with layers[i] a proper subvariety of layers[j].

    Distinct layers of equal codimension never contain one another, and a
    root with e^alpha = 1 on layers[j] has e^alpha = 1 on any layer inside
    it, so the candidates j for layers[i] are the layers of smaller
    codimension holding no root outside layers[i]'s; they are read from
    bitsets over the layers.  layer_contains runs only on candidates
    whose lattice is not spanned by their own roots: when it is, every
    lattice vector is an integer sum of roots that are 1 on both layers,
    so root-set inclusion already forces containment (roots_span_lattice,
    recorded by the walk).  stats gains poset_candidates, contains_tests
    and relations.
    """
    holders: dict[Coords, int] = {}      # root -> bitset of layers holding it
    for j, l in enumerate(layers):
        for a in l.roots_pos:
            holders[a] = holders.get(a, 0) | 1 << j
    # codim c -> bitset of the layers of smaller codimension
    below = {c: sum(1 << j for j, l in enumerate(layers) if l.codim < c)
             for c in {l.codim for l in layers}}
    out, candidates, tests = [], 0, 0
    for i, small in enumerate(layers):
        on_small = set(small.roots_pos)
        cand = below[small.codim]
        for a, mask in holders.items():
            if a not in on_small:
                cand &= ~mask
        bits = format(cand, "b")[::-1]
        j = bits.find("1")
        while j >= 0:
            candidates += 1
            big = layers[j]
            spanned = big.roots_span_lattice
            if not spanned:
                tests += 1
            if spanned or layer_contains(big, small):
                out.append((i, j))
            j = bits.find("1", j + 1)
    stats.update(poset_candidates=candidates, contains_tests=tests,
                 relations=len(out))
    return out


# ----------------------------------------------------------------------
# points on layers


def point_on_layer(layer: Layer, params: Sequence[Fraction]) -> Point:
    """A point of the layer: character values extended by free parameters.

    params supplies the rational values on a complement basis of the
    lattice, exactly one per layer dimension.  With U B V = [I 0] the
    Smith form of the saturated basis, the rows Vinv[i] are a basis of
    Z^n: e^Vinv[i] is zeta_N^(e_i), e_i its char_exponent, for i < r, and
    params[i - r] beyond.  Coordinate j, e^(e_j) with e_j = sum_i V[j][i]
    Vinv[i], is zeta_N^(sum_{i<r} e_i V[j][i]) times
    prod_i params[i] ** V[j][r + i].
    """
    if len(params) != layer.dim:
        raise ValueError(f"point_on_layer takes one parameter per layer "
                         f"dimension ({layer.dim}), got {len(params)}")
    sf = smith_normal_form([list(r) for r in layer.basis],
                           ncols=layer.ambient_dim)
    r = sf.rank
    exps = [layer.char_exponent(sf.Vinv[i]) for i in range(r)]
    if None in exps:
        raise ValueError("layer lattice must be saturated")
    return tuple(layer.field.zeta(sum(map(mul, exps, row)))
                 * prod(map(pow, params, row[r:]))
                 for row in sf.V)


def generic_point(rs: RootSystem, subset: Sequence[int], layer: Layer,
                  seed: int) -> Point:
    """A point of the stratum torus T_I, I = subset, coordinate k at simple
    root subset[k], on a layer of the full arrangement whose lattice is
    supported on I, avoiding every hypersurface e^alpha = 1, alpha
    supported on I, that the layer does not lie in.  e^alpha is read along
    the stratum's height chain (RootSystem.chain); the rng is seeded by
    the layer of the sub-arrangement on I (restrict)."""
    sub = restrict(layer, subset)
    table = layer.field.zeta_table
    rng = random.Random(("layer-point", seed, sub.basis,
                         tuple([table[e][1] for e in sub.char_exps])
                         ).__repr__())
    chain = rs.chain(subset)
    on_layer = set(layer.roots_pos)
    avoid = [a for a, _, _ in chain if a not in on_layer]
    for _ in range(64):
        params = [Fraction(rng.randint(2, 97), rng.randint(2, 97))
                  for _ in range(sub.dim)]
        pt = point_on_layer(sub, params)
        values = chain_values(chain, dict(zip(subset, pt)))
        if all(not values[a].is_one() for a in avoid):
            return pt
    raise RuntimeError("no generic point found in 64 tries")


# ----------------------------------------------------------------------
# boundary strata of the compactified picture: one sub-arrangement per
# subset of the simple roots, each contributing its own layers.  Z^I is a
# coordinate summand of Z^n, so the layers of the sub-arrangement on I
# are the layers of the full arrangement whose lattice is supported on I,
# with the other coordinates dropped: saturation, roots in the span and
# character do not change, and dropping all-zero columns keeps the order


def subset_layers(layers: Sequence[Layer]
                  ) -> dict[tuple[int, ...], list[int]]:
    """For every subset I of the coordinates, ordered by size and then I,
    the indices, ascending, of the layers whose lattice is supported on I.
    layers is the enumeration of a full arrangement; restrict(layers[k],
    I) for these k is the enumeration of its sub-arrangement on I."""
    n = layers[0].ambient_dim
    by_mask: list[list[int]] = [[] for _ in range(1 << n)]
    for k, layer in enumerate(layers):
        support = sum(1 << j for j in range(n)
                      if any(row[j] for row in layer.basis))
        mask = support
        while mask < 1 << n:                 # the supersets of support
            by_mask[mask].append(k)
            mask = (mask + 1) | support
    subsets = {tuple(j for j in range(n) if mask >> j & 1): ks
               for mask, ks in enumerate(by_mask)}
    return {s: subsets[s] for s in sorted(subsets, key=lambda s: (len(s), s))}


def restrict(layer: Layer, subset: Sequence[int]) -> Layer:
    """The layer of the sub-arrangement on the coordinates subset that a
    layer whose lattice is supported on subset is."""
    def drop(v: Coords) -> Coords:
        return tuple(v[j] for j in subset)
    return Layer(len(subset), tuple(map(drop, layer.basis)), layer.char_exps,
                 layer.field, tuple(map(drop, layer.roots_pos)),
                 layer.roots_span_lattice)


def layer_to_dict(layer: Layer) -> dict:
    table = layer.field.zeta_table
    return {
        "ambient_dim": layer.ambient_dim,
        "codim": layer.codim,
        "dim": layer.dim,
        "lattice_basis": [list(r) for r in layer.basis],
        "character": [table[e][1] for e in layer.char_exps],
        "roots": [list(r) for r in layer.roots_pos],
    }
