"""Layers of the toric arrangement attached to a root system.

The torus Hom(Z^m, K*) is cut by the subvarieties {e^alpha = 1}, one per
positive root.  A layer is a connected component of an intersection of
these; it is encoded by a saturated sublattice (its vanishing lattice,
in Hermite form) together with a finite-order character of that lattice
giving the constant values e^v takes on the layer.

Every character value is a root of unity zeta_N^e of Q(zeta_N), so a
character is kept as integer exponents mod N: chi(v) = 1 is a dot
product mod N, and field elements are built only for the stored values
(char_values) when a caller asks for them.

Enumeration visits every lattice <B> spanned by a linearly independent
set B of positive roots, each exactly once.  The lattices are grown
breadth-first by rank: the rank-(k+1) lattices are the Hermite forms of
L + <a> for a rank-k lattice L and a positive root a outside the Q-span
of L, deduplicated by that Hermite form.  Each is obtained by inserting
a into the Hermite form of L (lattice.hermite_insert), never by
recomputing the form of L + <a>.  A visit saturates L through its Smith
form U L V = diag(d), reads every positive root's coordinates u V (one
vector addition each, from a lower root), decides which roots lie in the
Q-span of the saturation, and then tries each torsion character trivial
on L; a candidate is a genuine layer exactly when the roots it
centralizes still span the lattice.  The trivial character passes
without a rank test: it centralizes every root in the span, L's
generators among them, so they have rank k.  Every layer arises this way
from the lattice of any independent spanning subset of its centralized
roots, so the walk is complete, and candidates are deduplicated by their
canonical encoding.

- One walk, every sub-arrangement: Z^I is a coordinate summand, so the
  layers on T_I are the layers whose lattice is supported on I, with the
  other coordinates dropped (subset_layers, restrict).
- One insertion per class: L + <a> = L + <a'> iff a and a' have the same
  image in Z^n/L up to sign, the subgroup they generate being infinite
  cyclic, so one root of each class is inserted.
- Poset shortcut: a layer whose lattice is spanned by its own roots
  contains every layer centralizing those roots, so layer_contains runs
  only on candidates whose lattice is not.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mod, mul
from typing import Iterable, Sequence

from .field import CyclotomicField, FieldElement, char_value
from .lattice import (hermite_coordinates, hermite_insert,
                      hermite_normal_form, int_rank, smith_normal_form)
from .nested import adjacency, components
from .roots import Coords, RootSystem, nonorthogonal_edges

Point = tuple[FieldElement, ...]


@dataclass(frozen=True)
class RootAmbient:
    """Positive roots with their pairing, living in a fixed torus Z^m."""

    dim: int
    positive_roots: tuple[Coords, ...]
    gram: tuple[tuple[int, ...], ...]
    field: CyclotomicField
    axis_names: tuple[str, ...]

    @classmethod
    def from_root_system(cls, rs: RootSystem, field: CyclotomicField
                         ) -> "RootAmbient":
        return cls(rs.rank, tuple(rs.positive_roots),
                   tuple(tuple(row) for row in rs.gram), field,
                   tuple(f"a{i + 1}" for i in range(rs.rank)))

    @classmethod
    def restricted(cls, rs: RootSystem, subset: Iterable[int],
                   field: CyclotomicField) -> "RootAmbient":
        """The sub-arrangement of roots supported on a set of simple roots."""
        idx = sorted(subset)
        pos = tuple(tuple(r[i] for i in idx)
                    for r in rs.roots_with_support_in(idx))
        gram = tuple(tuple(rs.gram[i][j] for j in idx) for i in idx)
        return cls(len(idx), pos, gram, field,
                   tuple(f"a{i + 1}" for i in idx))


@dataclass(frozen=True)
class Layer:
    """One layer: vanishing lattice basis (Hermite rows) plus character.

    The character is stored as exponents: e^basis[i] takes the constant
    value zeta_N^char_exps[i] on the layer, with N = field.order.
    """

    ambient_dim: int
    basis: tuple[Coords, ...]
    char_exps: tuple[int, ...]
    field: CyclotomicField
    roots_pos: tuple[Coords, ...]   # positive roots constant 1 on the layer

    @property
    def codim(self) -> int:
        return len(self.basis)

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.basis)

    @property
    def char_values(self) -> tuple[FieldElement, ...]:
        return tuple(self.field.zeta(e) for e in self.char_exps)

    def char_exponent(self, vec: Sequence[int]) -> int | None:
        """e with e^vec = zeta_N^e on the layer; None if vec is outside the lattice."""
        coords = hermite_coordinates(self.basis, vec)
        if coords is None:
            return None
        return sum(map(mul, coords, self.char_exps)) % self.field.order

    def char_eval(self, vec: Sequence[int]) -> FieldElement:
        """The constant value of e^vec on the layer; vec must lie in the lattice."""
        e = self.char_exponent(vec)
        if e is None:
            raise ValueError(f"{vec} is not in the layer lattice")
        return self.field.zeta(e)

    def sort_key(self):
        return (self.codim, self.basis,
                tuple(self.field.zeta(e).nums for e in self.char_exps))


def _root_chain(pos: Sequence[Coords], n: int
                ) -> list[tuple[Coords, Coords, int]]:
    """(a, b, i) for every positive root a, by height: a = b + e_i with b
    zero or a positive root listed earlier."""
    chain, seen = [], {(0,) * n}
    for a in sorted(pos, key=sum):
        b, i = next((b, i) for i, x in enumerate(a)
                    if (b := a[:i] + (x - 1,) + a[i + 1:]) in seen)
        chain.append((a, b, i))
        seen.add(a)
    return chain


def enumerate_layers(amb: RootAmbient, stats: Counter | None = None
                     ) -> list[Layer]:
    """All layers of the arrangement, canonically ordered.

    stats, when given, gains the walk's counts: walks (1), lattices
    visited, inserts (Hermite insertions made) and layers found.
    """
    field = amb.field
    order = field.order
    n = amb.dim
    pos = list(amb.positive_roots)
    chain = _root_chain(pos, n)
    found: dict[tuple, Layer] = {}

    def visit(lattice: tuple[Coords, ...]) -> list[Coords]:
        """Record the layers of one lattice; return one positive root of
        each class of Z^n/L, up to sign, met outside its Q-span."""
        sf = smith_normal_form(lattice, ncols=n)
        k = sf.rank
        divisors = sf.divisors
        # a saturated L is its own saturation, and already in Hermite form
        hnf = hermite_normal_form(sf.saturation_basis()) \
            if sf.torsion_divisors() else lattice

        # u V by one vector addition per root: e_i V is row i of V
        image: dict[Coords, list[int]] = {(0,) * n: [0] * n}
        for a, b, i in chain:
            image[a] = list(map(add, image[b], sf.V[i]))

        # u = sum_i (u V)_i Vinv[i] and the saturation is spanned by
        # Vinv[:k], so u lies in its Q-span iff (u V)_i = 0 for i >= k.
        # Outside it, the class of u in Z^n/L is (u V)_i mod d_i for i < k
        # and (u V)_i for i >= k; it is read up to sign, the first nonzero
        # tail entry made positive
        in_span = []
        classes: dict[tuple, Coords] = {}
        for a in pos:
            uv = image[a]
            lead = next(filter(None, uv[k:]), 0)
            if not lead:
                in_span.append((a, uv[:k]))
                continue
            if lead < 0:
                uv = [-x for x in uv]
            classes.setdefault((*map(mod, uv, divisors), *uv[k:]), a)
        vcols = list(zip(*sf.V))[:k]
        hnf_coords = [[sum(map(mul, row, col)) for col in vcols]
                      for row in hnf]
        # characters of sat/L: a d_i-th root of unity on each saturation
        # basis vector Vinv[i]; all are automatically trivial on L.  A
        # character already recorded on this saturation is that layer.
        # The trivial character (choice all 0) centralizes all of in_span,
        # which holds L's generators, so it passes the rank test unasked
        steps = [field.root_exponent(d) for d in divisors]
        for choice in itertools.product(*(range(d) for d in divisors)):
            exps = [s * j for s, j in zip(steps, choice)]

            def chi(c: Sequence[int]) -> int:
                return sum(map(mul, exps, c)) % order

            key = (hnf, tuple(chi(c) for c in hnf_coords))
            if key in found:
                continue
            centralized = [a for a, c in in_span if chi(c) == 0]
            if any(choice) and int_rank(centralized) != k:
                continue
            found[key] = Layer(n, hnf, key[1], field,
                               tuple(sorted(centralized,
                                            key=lambda c: (sum(c), c))))
        return list(classes.values())

    seen: set[tuple[Coords, ...]] = {()}
    frontier: list[tuple[Coords, ...]] = [()]
    inserts = 0
    while frontier:
        grown = []
        for lattice in frontier:
            for a in visit(lattice):
                inserts += 1
                cand = hermite_insert(lattice, a)
                if cand not in seen:
                    seen.add(cand)
                    grown.append(cand)
        frontier = grown
    if stats is not None:
        stats.update(walks=1, lattices=len(seen), inserts=inserts,
                     layers=len(found))
    return sorted(found.values(), key=Layer.sort_key)


def is_indecomposable(amb: RootAmbient, layer: Layer) -> bool:
    """Nonempty centralized set whose non-orthogonality graph is connected."""
    roots = layer.roots_pos
    adj = adjacency(len(roots), nonorthogonal_edges(amb.gram, roots))
    return len(components(frozenset(adj), adj)) == 1


def building_set(amb: RootAmbient, stats: Counter | None = None
                 ) -> list[Layer]:
    """The indecomposable layers; stats as for enumerate_layers."""
    return [l for l in enumerate_layers(amb, stats)
            if is_indecomposable(amb, l)]


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


def poset_relations(layers: Sequence[Layer], stats: Counter | None = None
                    ) -> list[tuple[int, int]]:
    """Pairs (i, j) with layers[i] a proper subvariety of layers[j].

    Distinct layers of equal codimension never contain one another, and a
    root with e^alpha = 1 on layers[j] has e^alpha = 1 on any layer inside
    it, so the candidates j for layers[i] are the layers of smaller
    codimension holding no root outside layers[i]'s; they are read from
    bitsets over the layers.  layer_contains runs only on candidates
    whose lattice is not spanned by their own roots: when it is, every
    lattice vector is an integer sum of roots that are 1 on both layers,
    so root-set inclusion already forces containment.  stats, when
    given, gains poset_candidates, contains_tests and relations.
    """
    holders: dict[Coords, int] = {}      # root -> bitset of layers holding it
    for j, l in enumerate(layers):
        for a in l.roots_pos:
            holders[a] = holders.get(a, 0) | 1 << j
    # codim c -> bitset of the layers of smaller codimension
    below = {c: sum(1 << j for j, l in enumerate(layers) if l.codim < c)
             for c in {l.codim for l in layers}}
    spanned: dict[int, bool] = {}
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
            if j not in spanned:
                spanned[j] = hermite_normal_form(big.roots_pos) == big.basis
            if not spanned[j]:
                tests += 1
            if spanned[j] or layer_contains(big, small):
                out.append((i, j))
            j = bits.find("1", j + 1)
    if stats is not None:
        stats.update(poset_candidates=candidates, contains_tests=tests,
                     relations=len(out))
    return out


def covering_relations(layers: Sequence[Layer]) -> list[tuple[int, int]]:
    """The covers among poset_relations, in its order.  The layer poset is
    ranked by codimension (Moci, Trans. AMS 2012), so (i, j) is a cover
    exactly when the codimensions differ by one."""
    return [(i, j) for i, j in poset_relations(layers)
            if layers[i].codim - layers[j].codim == 1]


# ----------------------------------------------------------------------
# points on layers


def _extension_data(layer: Layer):
    """Smith data of the (saturated) lattice basis, for building points."""
    sf = smith_normal_form([list(r) for r in layer.basis],
                           ncols=layer.ambient_dim)
    assert all(d == 1 for d in sf.divisors), "layer lattice must be saturated"
    return sf


def point_on_layer(layer: Layer, params: Sequence[FieldElement] | None = None
                   ) -> Point:
    """A point of the layer: character values extended by free parameters.

    params supplies the values on a complement basis of the lattice (one
    per layer dimension); omitted parameters default to 1, giving a
    canonical representative.
    """
    field = layer.field
    n = layer.ambient_dim
    sf = _extension_data(layer)
    r = sf.rank
    params = list(params or [])
    if len(params) > n - r:
        raise ValueError("too many parameters for layer dimension")
    params += [field.one()] * (n - r - len(params))
    basis_vals = [layer.char_eval(sf.Vinv[i]) for i in range(r)] + params
    return tuple(char_value(field, basis_vals, sf.V[j]) for j in range(n))


def generic_point(amb: RootAmbient, layer: Layer, seed: int = 0) -> Point:
    """A point of the layer avoiding every hypersurface it does not lie in."""
    rng = random.Random(("layer-point", seed, layer.basis,
                         tuple(str(v) for v in layer.char_values)).__repr__())
    on_layer = set(layer.roots_pos)
    avoid = [a for a in amb.positive_roots if a not in on_layer]
    free = layer.dim
    for _ in range(64):
        params = [amb.field.from_rational(
            Fraction(rng.randint(2, 97), rng.randint(2, 97)))
            for _ in range(free)]
        pt = point_on_layer(layer, params)
        if all(not char_value(amb.field, pt, a).is_one() for a in avoid):
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
                 layer.field, tuple(map(drop, layer.roots_pos)))


def boundary_strata(rs: RootSystem, field: CyclotomicField
                    ) -> list[tuple[tuple[int, ...], Layer]]:
    """(subset, layer) for every layer of every sub-arrangement, ordered by
    subset size, subset and layer, from one walk of the full arrangement."""
    layers = enumerate_layers(RootAmbient.from_root_system(rs, field))
    return [(s, restrict(layers[k], s))
            for s, ks in subset_layers(layers).items() for k in ks]


def layer_to_dict(layer: Layer) -> dict:
    return {
        "ambient_dim": layer.ambient_dim,
        "codim": layer.codim,
        "dim": layer.dim,
        "lattice_basis": [list(r) for r in layer.basis],
        "character": [str(v) for v in layer.char_values],
        "roots": [list(r) for r in layer.roots_pos],
    }
