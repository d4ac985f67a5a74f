"""Toric arrangement layers: censuses, torsion, poset, points, strata."""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from trigbethe import layers as layers_module
from trigbethe.bethe import PointStream, XPoint, recover_data
from trigbethe.field import CyclotomicField
from trigbethe.lattice import hermite_normal_form, int_rank, smith_normal_form
from trigbethe.layers import (Layer, building_set, enumerate_layers,
                              gamma_divisors, generic_point,
                              is_indecomposable, layer_contains, layer_to_dict,
                              point_on_layer, poset_relations, restrict,
                              subset_layers)
from trigbethe.nested import adjacency, components
from trigbethe.roots import RootSystem, nonorthogonal_edges, root_system

from oracles import (char_value, char_values, powered_point_on_layer,
                     restricted_ambient, root_neighbours, roots_span_by_fold)

F6 = CyclotomicField(6)


def evaluate(pt, row):
    """e^row at a torus point, multiplied out term by term."""
    out = pt[0].field.one()
    for y, k in zip(pt, row):
        for _ in range(abs(k)):
            out = out * (y if k > 0 else y.inverse())
    return out


def chars(layer):
    return tuple(str(v) for v in char_values(layer))


def centralizer(rs, field, pt):
    """Positive roots whose character equals 1 at the point."""
    return [a for a in rs.positive_roots if char_value(field, pt, a).is_one()]


def full_torus(rs, field):
    return Layer(rs.rank, (), (), field, (), True)


def covering_relations(layers):
    """The covers among poset_relations, in its order: the layer poset is
    ranked by codimension (Moci, Trans. AMS 2012), so (i, j) is a cover
    exactly when the codimensions differ by one."""
    return [(i, j) for i, j in poset_relations(layers, Counter())
            if layers[i].codim - layers[j].codim == 1]


def boundary_strata(rs, field):
    """(subset, layer) for every layer of every sub-arrangement, ordered by
    subset size, subset and layer, from one walk of the full arrangement."""
    layers = enumerate_layers(rs, field)
    return [(s, restrict(layers[k], s))
            for s, ks in subset_layers(layers).items() for k in ks]


def test_layer_census_counts():
    expected = {"A2": (5, 4), "B2": (7, 5), "G2": (13, 9), "A3": (15, 11)}
    for label, (total, indec) in expected.items():
        rs = root_system(label)
        assert len(enumerate_layers(rs, F6)) == total
        assert len(building_set(rs, F6, None)) == indec


def test_a3_codim_split_and_no_torsion():
    layers = enumerate_layers(root_system("A3"), F6)
    split = [sum(1 for l in layers if l.codim == c) for c in range(4)]
    assert split == [1, 6, 7, 1]
    for l in layers:
        assert gamma_divisors(l.roots_pos, 3) == []
        assert chars(l) == ("1",) * l.codim


def test_b2_codim2_layers():
    rs = root_system("B2")
    top = [l for l in enumerate_layers(rs, F6) if l.codim == 2]
    assert len(top) == 2
    by_roots = {l.roots_pos: l for l in top}
    torsion = by_roots[((1, 0), (1, 2))]
    assert chars(torsion) == ("1", "-1")
    assert gamma_divisors(torsion.roots_pos, 2) == [2]
    ident = by_roots[tuple(sorted(rs.positive_roots,
                                  key=lambda c: (sum(c), c)))]
    assert chars(ident) == ("1", "1")
    assert gamma_divisors(ident.roots_pos, 2) == []


def test_g2_codim2_layers():
    top = [l for l in enumerate_layers(root_system("G2"), F6) if l.codim == 2]
    assert len(top) == 6
    gammas = sorted(tuple(gamma_divisors(l.roots_pos, 2)) for l in top)
    assert gammas == [(), (2,), (2,), (2,), (3,), (3,)]
    cube = sorted(chars(l) for l in top
                  if gamma_divisors(l.roots_pos, 2) == [3])
    assert cube == [("-1 + z", "1"), ("-z", "1")]
    for l in top:
        if gamma_divisors(l.roots_pos, 2) == [3]:
            assert l.roots_pos == ((0, 1), (3, 1), (3, 2))
    halves = sorted((l.roots_pos, chars(l)) for l in top
                    if gamma_divisors(l.roots_pos, 2) == [2])
    assert halves == [
        (((0, 1), (2, 1)), ("-1", "1")),
        (((1, 0), (3, 2)), ("1", "-1")),
        (((1, 1), (3, 1)), ("-1", "-1")),
    ]


def test_codim2_layers_match_torus_point_scan():
    # every codimension-2 layer of a rank-2 arrangement is a single torus
    # point whose centralizer has full rank; scan mu_12 x mu_12 directly
    f12 = CyclotomicField(12)
    for label in ["A2", "B2", "G2"]:
        rs = root_system(label)
        enumerated = set()
        for l in enumerate_layers(rs, f12):
            if l.codim != 2:
                continue
            assert l.basis == ((1, 0), (0, 1))
            enumerated.add(chars(l))
        scanned = set()
        for i, j in itertools.product(range(12), repeat=2):
            y = (f12.zeta(i), f12.zeta(j))
            cent = centralizer(rs, f12, y)
            if int_rank(cent) == 2:
                scanned.add((str(y[0]), str(y[1])))
        assert enumerated == scanned


def test_generic_point_realizes_exact_centralizer():
    for label in ["A2", "B2", "G2"]:
        rs = root_system(label)
        for l in enumerate_layers(rs, F6):
            pt = generic_point(rs, range(rs.rank), l, seed=3)
            assert tuple(sorted(centralizer(rs, F6, pt))) == \
                tuple(sorted(l.roots_pos))


def test_layers_of_independent_walks_are_equal_values():
    # two walks on two RootSystems of one type build equal layers that
    # hash equal, so a set of both walks holds each layer once
    first = enumerate_layers(RootSystem("B", 3), F6)
    second = enumerate_layers(RootSystem("B", 3), F6)
    assert first == second
    assert all(a is not b for a, b in zip(first, second))
    assert [hash(l) for l in first] == [hash(l) for l in second]
    assert len(set(first + second)) == len(first)


def test_layer_fields_are_read_only():
    layer = enumerate_layers(root_system("B2"), F6)[1]
    with pytest.raises(AttributeError):
        layer.char_exps = (0,)
    with pytest.raises(AttributeError):
        layer.roots_span_lattice = False


def test_recover_data_twice_on_one_point_gives_equal_records():
    # an untwisted point on a layer with one root constant 1
    rs = root_system("B2")
    layer = next(l for l in enumerate_layers(rs, F6) if len(l.roots_pos) == 1)
    pt = generic_point(rs, range(rs.rank), layer, seed=3)
    x = XPoint.at(rs, F6, (), range(rs.rank), pt, [[0]], (Fraction(2),))
    first = recover_data(x.space, x.subspace())
    second = recover_data(x.space, x.subspace())
    assert first is not second and first == second
    assert first.centralized_pos == layer.roots_pos
    assert first.unit_values


def test_point_on_layer_extends_character():
    for l in enumerate_layers(root_system("B2"), F6):
        pt = point_on_layer(l, [Fraction(1)] * l.dim)
        for row, val in zip(l.basis, char_values(l)):
            assert evaluate(pt, row) == val


@pytest.mark.parametrize("label,order", [
    *((label, 6) for label in ("A2", "B2", "G2", "A3", "B3", "C3", "D4")),
    ("F4", 12)])
def test_point_on_layer_matches_field_powers(label, order):
    # every layer, at parameters all 1 and three seeded draws of nonzero
    # rationals, some negative, against the field-power oracle
    layers = enumerate_layers(root_system(label), CyclotomicField(order))
    for k, l in enumerate(layers):
        rng = random.Random(f"point-on-layer-{label}-{k}")
        draws = [[Fraction(1)] * l.dim] + [
            [Fraction(rng.choice((-1, 1)) * rng.randint(1, 97),
                      rng.randint(1, 97)) for _ in range(l.dim)]
            for _ in range(3)]
        for params in draws:
            pt = point_on_layer(l, params)
            want = powered_point_on_layer(l, params)
            assert [str(y) for y in pt] == [str(y) for y in want], (l, params)


def test_point_on_layer_rejects_bad_input():
    # a lattice that is not saturated, and other than one parameter per
    # dimension: there is no padding with 1s
    with pytest.raises(ValueError, match="saturated"):
        point_on_layer(Layer(2, ((2, 0),), (0,), F6, (), False),
                       [Fraction(1)])
    line = [l for l in enumerate_layers(root_system("B2"), F6)
            if l.codim == 1][0]
    for params in ([], [Fraction(2), Fraction(3)]):
        with pytest.raises(ValueError, match="one parameter per layer "
                                             "dimension"):
            point_on_layer(line, params)


def test_char_exponent_rejects_vectors_outside_lattice():
    layers = enumerate_layers(root_system("B2"), F6)
    torsion = [l for l in layers
               if l.codim == 2 and l.roots_pos == ((1, 0), (1, 2))]
    # the torsion layer has a saturated basis of Z^2, so every vector has
    # an exponent; a codim-1 layer must reject transverse vectors
    assert torsion
    assert all(t.char_exponent(v) is not None
               for t in torsion for v in [(1, 0), (0, 1)])
    line = [l for l in layers if l.codim == 1][0]
    assert [v for v in [(1, 0), (0, 1)] if line.char_exponent(v) is None]


def scanning_char_exponent(layer, vec):
    """Layer.char_exponent as first written, the oracle for the one-pass
    hermite_coordinates: each basis row's pivot is found again by a scan."""
    v = list(map(int, vec))
    out = 0
    for row, e in zip(layer.basis, layer.char_exps):
        c = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[c], row[c])
        if r:
            return None
        if q:
            out += q * e
            v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        return None
    return out % layer.field.order


@pytest.mark.parametrize("label,order", [("B4", 6), ("F4", 12)])
def test_char_exponent_matches_pivot_scan(label, order):
    rs = root_system(label)
    outcomes = Counter()
    for layer in enumerate_layers(rs, CyclotomicField(order)):
        for a in rs.positive_roots:
            e = layer.char_exponent(a)
            assert e == scanning_char_exponent(layer, a)
            outcomes[e is None] += 1
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("label,order", [("B4", 6), ("F4", 12), ("B5", 6)])
def test_sort_key_orders_as_fraction_coefficients(label, order):
    # every zeta power has denominator 1, so its integer numerators order
    # the layers as its Fraction coefficients do
    def fraction_key(l):
        return (l.codim, l.basis, tuple(
            tuple(Fraction(n, cv.den) for n in cv.nums)
            for cv in char_values(l)))

    layers = enumerate_layers(root_system(label), CyclotomicField(order))
    shuffled = list(layers)
    random.Random(order).shuffle(shuffled)
    assert sorted(shuffled, key=fraction_key) == layers
    assert sorted(shuffled, key=Layer.sort_key) == layers


@pytest.mark.parametrize("label,order", [("B4", 6), ("F4", 12)])
def test_sort_key_reads_the_zeta_table_as_the_folded_powers(label, order):
    # the key's character part, read off the field's zeta table, is the
    # numerators of zeta^e built from its coefficient vector, so the walk
    # orders the layers as it did when it built each zeta^e
    field = CyclotomicField(order)

    def folded_key(l):
        return (l.codim, l.basis, tuple(field.element([0] * e + [1]).nums
                                        for e in l.char_exps))

    layers = enumerate_layers(root_system(label), field)
    assert [l.sort_key() for l in layers] == list(map(folded_key, layers))
    assert sorted(layers, key=folded_key) == layers


def test_poset_and_covering_relations_a2():
    layers = enumerate_layers(root_system("A2"), F6)
    rel = poset_relations(layers, Counter())
    cov = covering_relations(layers)
    assert len(rel) == 7
    assert len(cov) == 6
    assert set(cov) <= set(rel)
    # relations always go from higher to lower codimension
    for i, j in rel:
        assert layers[i].codim > layers[j].codim
        assert layer_contains(layers[j], layers[i])
        assert not layer_contains(layers[i], layers[j])
    with pytest.raises(ValueError):   # exponents mod 6 and mod 12 do not compare
        layer_contains(full_torus(root_system("A2"), CyclotomicField(12)),
                       layers[-1])


def test_full_torus_layer_is_top():
    rs = root_system("A2")
    layers = enumerate_layers(rs, F6)
    top = full_torus(rs, F6)
    assert top in layers
    assert top.codim == 0 and top.dim == 2
    assert not is_indecomposable(rs, top)
    for l in layers:
        assert layer_contains(top, l)


def test_boundary_strata_a2():
    rs = root_system("A2")
    strata = boundary_strata(rs, F6)
    shape = [(subset, layer.codim) for subset, layer in strata]
    assert shape == [((), 0),
                     ((0,), 0), ((0,), 1),
                     ((1,), 0), ((1,), 1),
                     ((0, 1), 0), ((0, 1), 1), ((0, 1), 1), ((0, 1), 1),
                     ((0, 1), 2)]


def test_layer_to_dict_shape():
    l = [x for x in enumerate_layers(root_system("B2"), F6) if x.codim == 2
         and x.roots_pos == ((1, 0), (1, 2))][0]
    d = layer_to_dict(l)
    assert d == {
        "ambient_dim": 2,
        "codim": 2,
        "dim": 0,
        "lattice_basis": [[1, 0], [0, 1]],
        "character": ["1", "-1"],
        "roots": [[1, 0], [1, 2]],
    }


# ----------------------------------------------------------------------
# oracles sharing no code with the enumeration: finite-field point counts
# and field-arithmetic containment


def characteristic_polynomial(layers):
    """Coefficients, by dimension, of chi(t) = sum_L mu(T, L) t^dim L."""
    above = {i: [] for i in range(len(layers))}
    for i, j in poset_relations(layers, Counter()):
        above[i].append(j)
    mu = {}
    for i in sorted(range(len(layers)), key=lambda i: layers[i].codim):
        mu[i] = 1 if layers[i].codim == 0 else -sum(mu[j] for j in above[i])
    coeffs = [0] * (layers[0].ambient_dim + 1)
    for i, layer in enumerate(layers):
        coeffs[layer.dim] += mu[i]
    return coeffs


def evaluate_polynomial(coeffs, t):
    return sum(c * t ** k for k, c in enumerate(coeffs))


def complement_count(positive_roots, rank, p=13):
    """Points x of (F_p^*)^rank with x^alpha != 1 for every positive root."""
    count = 0
    for x in itertools.product(range(1, p), repeat=rank):
        if all(_monomial(x, a, p) != 1 for a in positive_roots):
            count += 1
    return count


def _monomial(x, a, p):
    out = 1
    for xi, ai in zip(x, a):
        out = out * pow(xi, ai, p) % p
    return out


def test_characteristic_polynomial_counts_points_mod_13():
    # 12 = 13 - 1 is divisible by every torsion order, so chi(12) counts
    # the complement of the arrangement in (F_13^*)^n
    for label in ["A2", "B2", "G2", "A3", "B3", "C3"]:
        rs = root_system(label)
        layers = enumerate_layers(rs, CyclotomicField(12))
        chi = characteristic_polynomial(layers)
        assert evaluate_polynomial(chi, 12) == \
            complement_count(rs.positive_roots, rs.rank)


def test_characteristic_polynomial_rank_four():
    pinned = {   # coefficients of t^0 .. t^4
        "F4": [1152, -768, 208, -24, 1],
        "B4": [192, -224, 92, -16, 1],
        "C4": [192, -224, 92, -16, 1],
        "D4": [48, -84, 50, -12, 1],
        "A4": [24, -50, 35, -10, 1],
    }
    for label, coeffs in pinned.items():
        layers = enumerate_layers(root_system(label), CyclotomicField(12))
        assert characteristic_polynomial(layers) == coeffs
    for label in ["B4", "F4"]:
        rs = root_system(label)
        assert evaluate_polynomial(pinned[label], 12) == \
            complement_count(rs.positive_roots, rs.rank)


def test_poset_relations_match_field_containment():
    for label in ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"]:
        rs = root_system(label)
        layers = enumerate_layers(rs, F6)
        expected = []
        for i, small in enumerate(layers):
            pt = generic_point(rs, range(rs.rank), small, seed=0)
            for j, big in enumerate(layers):
                if i != j and all(evaluate(pt, row) == val for row, val
                                  in zip(big.basis, char_values(big))):
                    expected.append((i, j))
        assert sorted(poset_relations(layers, Counter())) == expected


# ----------------------------------------------------------------------
# reference enumeration: the walk over every increasing independent
# subset of positive roots (visiting each lattice it spans once, keyed by
# the subset's Hermite form), and the unfiltered all-pairs poset scan


def subset_walk_layers(rs, field):
    order, n = field.order, rs.rank
    pos = list(rs.positive_roots)
    found = {}

    def visit(rows):
        sf = smith_normal_form(rows, ncols=n)
        k = sf.rank
        hnf = hermite_normal_form(sf.Vinv[:k])

        def coords(u):
            return [sum(u[a] * sf.V[a][i] for a in range(n)) for i in range(n)]

        in_span = [(a, coords(a)[:k]) for a in pos if not any(coords(a)[k:])]
        hnf_coords = [coords(row)[:k] for row in hnf]
        steps = [field.root_exponent(d) for d in sf.divisors]
        for choice in itertools.product(*(range(d) for d in sf.divisors)):
            exps = [s * j for s, j in zip(steps, choice)]

            def chi(c):
                return sum(e * x for e, x in zip(exps, c)) % order

            centralized = [a for a, c in in_span if chi(c) == 0]
            if int_rank(centralized) == k:
                found.setdefault((hnf, tuple(chi(c) for c in hnf_coords)),
                                 tuple(sorted(centralized,
                                              key=lambda c: (sum(c), c))))

    visited = set()

    def extend(start, rows, lattice):
        if lattice not in visited:
            visited.add(lattice)
            visit(rows)
        for i in range(start, len(pos)):
            cand = rows + [pos[i]]
            cand_lattice = hermite_normal_form(cand)
            if len(cand_lattice) == len(cand):
                extend(i + 1, cand, cand_lattice)

    extend(0, [], ())
    layers = [Layer(n, hnf, char, field, roots,
                    hermite_normal_form(roots) == hnf)
              for (hnf, char), roots in found.items()]
    return sorted(layers, key=Layer.sort_key)


@pytest.mark.parametrize("label,order", [
    ("A2", 6), ("A3", 6), ("A4", 6), ("B2", 6), ("B3", 6), ("B4", 6),
    ("C3", 6), ("C4", 6), ("D4", 6), ("G2", 6), ("F4", 12)])
def test_lattice_walk_matches_subset_walk(label, order):
    rs, field = root_system(label), CyclotomicField(order)
    assert enumerate_layers(rs, field) == subset_walk_layers(rs, field)


@pytest.mark.parametrize("label,order", [
    ("A1", 6), ("A2", 6), ("A3", 6), ("A4", 6), ("B2", 6), ("B3", 6),
    ("B4", 6), ("C3", 6), ("C4", 6), ("D4", 6), ("G2", 6), ("F4", 12)])
def test_every_candidate_centralizes_a_spanning_set(label, order):
    # the walk records every character of sat(L)/L without a rank test:
    # each is trivial on L, whose generators are roots in the span, so the
    # roots it centralizes have the lattice's rank
    for layer in enumerate_layers(root_system(label), CyclotomicField(order)):
        assert int_rank(layer.roots_pos) == layer.codim, layer


@pytest.mark.parametrize("label", ["G2", "B3", "C3", "A4", "D4", "B4", "C4"])
def test_poset_relations_match_all_pairs_scan(label):
    layers = enumerate_layers(root_system(label), F6)
    scan = [(i, j) for i, small in enumerate(layers)
            for j, big in enumerate(layers)
            if i != j and layer_contains(big, small)]
    assert poset_relations(layers, Counter()) == scan


def covers_by_intermediates(layers):
    """Covers by definition: relations with no layer strictly between."""
    rel = set(poset_relations(layers, Counter()))
    return {(i, j) for i, j in rel
            if not any((i, k) in rel and (k, j) in rel
                       for k in range(len(layers)))}


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3", "A4",
                                   "D4", "B4"])
def test_covering_relations_match_definition(label):
    # the poset is ranked by codimension, so covers are the relations
    # whose codimensions differ by one; kept in poset_relations order
    layers = enumerate_layers(root_system(label), F6)
    rel = poset_relations(layers, Counter())
    cov = covering_relations(layers)
    assert set(cov) == covers_by_intermediates(layers)
    assert cov == [p for p in rel if p in set(cov)]


@pytest.mark.parametrize("label,order", [("G2", 6), ("B4", 6), ("C4", 6),
                                         ("F4", 12)])
def test_layers_spanned_by_their_roots_contain_every_candidate(label, order):
    # the premise of the poset shortcut: when a layer's lattice is spanned
    # by its own roots, every layer of larger codimension centralizing
    # those roots lies inside it
    layers = enumerate_layers(root_system(label), CyclotomicField(order))
    shortcuts = 0
    for big in layers:
        if hermite_normal_form(big.roots_pos) != big.basis:
            continue
        for small in layers:
            if big.codim < small.codim and \
                    set(big.roots_pos) <= set(small.roots_pos):
                shortcuts += 1
                assert layer_contains(big, small)
    assert shortcuts


FACT_TYPES = [("A2", 6), ("A3", 6), ("A4", 6), ("B2", 6), ("B3", 6),
              ("B4", 6), ("C3", 6), ("C4", 6), ("D4", 6), ("G2", 6),
              ("F4", 12)]


@pytest.mark.parametrize("label,order", FACT_TYPES)
def test_walk_and_building_set_fill_one_chain_and_one_graph(label, order):
    # on a new root system the walk fills only the height chain over all
    # simple roots; the building set, whose own walk reads that chain
    # again, adds only one graph of the positive roots
    rs, field = RootSystem(label[0], int(label[1:])), CyclotomicField(order)
    full = tuple(range(rs.rank))
    layers = enumerate_layers(rs, field)
    assert list(rs.tables) == ["chain"] and list(rs.tables["chain"]) == [full]
    chain = rs.tables["chain"][full]
    assert building_set(rs, field, None) == [l for l in layers
                                             if is_indecomposable(rs, l)]
    assert list(rs.tables) == ["chain", "graph"]
    assert list(rs.tables["graph"]) == [None]
    assert list(rs.tables["chain"]) == [full]
    assert rs.tables["chain"][full] is chain
    # the graph, by index in positive_index, is the pairing's on every
    # pair of positive roots
    index = rs.positive_index
    assert list(index) == rs.positive_roots
    assert rs.tables["graph"][None] == {
        index[a]: {index[b] for b in near}
        for a, near in root_neighbours(rs).items()}


@pytest.mark.parametrize("label,order", FACT_TYPES)
def test_layer_facts_match_their_direct_expressions(label, order):
    # the walk records whether the roots span the lattice and
    # is_indecomposable reads one root graph per root system: both against
    # the Hermite fold, early stop and whole, and the per-layer graph of
    # every pair of the layer's roots
    rs = root_system(label)
    layers = enumerate_layers(rs, CyclotomicField(order))
    spanned = indecomposable = 0
    for layer in layers:
        roots = layer.roots_pos
        want = hermite_normal_form(roots) == layer.basis
        assert layer.roots_span_lattice == roots_span_by_fold(layer) == want, \
            layer
        adj = adjacency(len(roots), nonorthogonal_edges(rs.gram, roots))
        connected = len(components(frozenset(adj), adj)) == 1
        assert is_indecomposable(rs, layer) == connected, layer
        spanned += want
        indecomposable += connected
    graph = rs.tables["graph"][None]
    is_indecomposable(rs, layers[-1])
    assert rs.tables["graph"][None] is graph
    # both answers occur (beyond type A for the lattice), so neither
    # assertion holds vacuously
    assert 0 < indecomposable < len(layers) and 0 < spanned
    assert label in ("A2", "A3", "A4") or spanned < len(layers)


# ----------------------------------------------------------------------
# one walk for every sub-arrangement: the per-subset walks as oracle


STRATA_TYPES = [("A2", 6), ("B2", 6), ("G2", 6), ("A3", 6), ("B3", 6),
                ("C3", 6), ("B4", 6), ("C4", 6), ("D4", 6), ("F4", 12)]


@functools.cache
def per_subset_walks(label, order):
    """subset -> enumerate_layers of its own restricted ambient."""
    rs, field = root_system(label), CyclotomicField(order)
    subsets = sorted((tuple(i for i in range(rs.rank) if m >> i & 1)
                      for m in range(1 << rs.rank)),
                     key=lambda s: (len(s), s))
    return {s: enumerate_layers(restricted_ambient(rs, s), field)
            for s in subsets}


@pytest.mark.parametrize("label,order",
                         [("A1", 6), *STRATA_TYPES, ("A4", 6)])
def test_layer_roots_in_positive_root_order(label, order):
    # height, then coordinates: on every sub-arrangement the ambient lists
    # its roots in that order, and each layer keeps it for its own
    def key(c):
        return sum(c), c

    rs, field = root_system(label), CyclotomicField(order)
    for subset, layers in per_subset_walks(label, order).items():
        pos = restricted_ambient(rs, subset).positive_roots
        assert list(pos) == sorted(pos, key=key)
        for layer in layers:
            assert list(layer.roots_pos) == sorted(layer.roots_pos, key=key)
        # the layer through 1 holds every root
        assert pos in [layer.roots_pos for layer in layers]


@pytest.mark.parametrize("label,order", STRATA_TYPES)
def test_boundary_strata_match_per_subset_walks(label, order):
    got = boundary_strata(root_system(label), CyclotomicField(order))
    want = [(s, l) for s, ls in per_subset_walks(label, order).items()
            for l in ls]
    assert got == want


@pytest.mark.parametrize("label,order", STRATA_TYPES)
def test_point_stream_subsets_match_per_subset_walks(label, order):
    # a draw reads its layers from the draw table and e^alpha along the
    # stratum's height chain: on every subset, the walk's layers there and
    # the chain's roots are those of the subset's own ambient
    rs, field = root_system(label), CyclotomicField(order)
    PointStream(rs, field, seed=0).point(0, 1)
    _, _, layers, by_subset = rs.tables["draw"][field]
    for subset, want in per_subset_walks(label, order).items():
        assert [restrict(layers[k], subset) for k in by_subset[subset]] \
            == want
        chained = tuple(tuple(a[i] for i in subset)
                        for a, _, _ in rs.chain(subset))
        assert chained == restricted_ambient(rs, subset).positive_roots


def all_roots_growth(rs):
    """Every lattice spanned by independent positive roots, grown by
    every positive root outside the span, each Hermite form from scratch."""
    pos = list(rs.positive_roots)
    seen, frontier = {()}, [()]
    while frontier:
        grown = []
        for lattice in frontier:
            for a in pos:
                cand = hermite_normal_form(lattice + (a,))
                if len(cand) > len(lattice) and cand not in seen:
                    seen.add(cand)
                    grown.append(cand)
        frontier = grown
    return seen


def recorded_forms(rs, field, monkeypatch):
    """The diagonal form of every lattice the walk visits, in visit order,
    and the walk's stats."""
    forms = []

    def recording_visit(rs, field, form, found, chain):
        forms.append(form)
        return visit(rs, field, form, found, chain)

    visit = layers_module._visit
    monkeypatch.setattr(layers_module, "_visit", recording_visit)
    stats = Counter()
    enumerate_layers(rs, field, stats)
    return forms, stats


@pytest.mark.parametrize("label,order", [("B4", 6), ("F4", 12)])
def test_walk_visits_the_all_roots_growth(label, order, monkeypatch):
    # one Hermite insertion per class of Z^n/L loses no lattice: each
    # lattice is visited once, with its Hermite form
    rs = root_system(label)
    forms, stats = recorded_forms(rs, CyclotomicField(order), monkeypatch)
    visited = [form[0] for form in forms]
    want = all_roots_growth(rs)
    assert len(visited) == len(set(visited)) == stats["lattices"]
    assert set(visited) == want


@pytest.mark.parametrize("label,order", [
    ("A2", 6), ("A4", 6), ("B3", 6), ("B4", 6), ("C4", 6), ("D4", 6),
    ("G2", 6), ("F4", 12)])
def test_walk_forms_are_diagonal_forms_of_their_lattices(label, order,
                                                         monkeypatch):
    # the lattice is span(d_i Vinv[i]) with V and Vinv inverse to each other,
    # whether its form was grown from its parent's or is a Smith form
    forms, _ = recorded_forms(root_system(label), CyclotomicField(order),
                              monkeypatch)
    for basis, divisors, vcols, vinv in forms:
        n = len(vcols)
        assert [[sum(x * y for x, y in zip(r, c)) for c in vcols]
                for r in vinv] == [[int(i == j) for j in range(n)]
                                   for i in range(n)]
        assert all(d > 0 for d in divisors)
        rows = [[d * x for x in vinv[i]] for i, d in enumerate(divisors)]
        assert hermite_normal_form(rows) == basis


@pytest.mark.parametrize("label,fallbacks", [
    ("A4", False), ("D4", False), ("B3", True), ("B4", True)])
def test_walk_takes_the_smith_fallback_on_b_and_not_on_a_or_d(label,
                                                             fallbacks):
    # a lattice grown from a parent whose diagonal form does not extend
    # takes a full Smith form; on A4 and D4 every form extends
    stats = Counter()
    enumerate_layers(root_system(label), F6, stats)
    assert (stats["smith_forms"] > 0) == fallbacks
    assert stats["smith_forms"] < stats["lattices"]
