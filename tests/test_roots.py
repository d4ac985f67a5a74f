"""Root systems: Cartan data, Weyl groups, reflections, inversion sets."""

import itertools
import math
from fractions import Fraction

import pytest

from trigbethe.linalg import mat_inverse
from trigbethe.roots import (MAX_RANK, RootSystem, chain_values,
                             int_mat_mul, root_chain, root_system)

# |W| per type (Bourbaki, Groupes et algebres de Lie IV-VI, planches)
WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "C2": 8, "C3": 48, "C4": 384,
    "D4": 192, "G2": 12, "F4": 1152,
}

ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
             "D4", "G2", "F4"]


def test_cartan_pins():
    assert root_system("A2").cartan == ((2, -1), (-1, 2))
    assert root_system("B2").cartan == ((2, -1), (-2, 2))
    assert root_system("C3").cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert root_system("G2").cartan == ((2, -3), (-1, 2))
    assert root_system("F4").cartan == ((2, -1, 0, 0), (-1, 2, -1, 0),
                                        (0, -2, 2, -1), (0, 0, -1, 2))
    # the branch node of D4 is adjacent to the other three
    d4 = root_system("D4").cartan
    assert d4[1][0] == d4[1][2] == d4[1][3] == -1


def test_symmetrizers_and_gram():
    cases = {"A3": (1, 1, 1), "B3": (2, 2, 1), "C3": (1, 1, 2),
             "D4": (1, 1, 1, 1), "G2": (1, 3), "F4": (2, 2, 1, 1)}
    for label, d in cases.items():
        rs = root_system(label)
        assert rs.sym == d
        for i in range(rs.rank):
            assert rs.gram[i][i] == 2 * d[i]
            for j in range(rs.rank):
                assert rs.gram[i][j] == rs.gram[j][i]
                assert rs.gram[i][j] == d[i] * rs.cartan[i][j]


def test_positive_root_counts():
    expected = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9,
                "B4": 16, "C3": 9, "C4": 16, "D4": 12, "G2": 6, "F4": 24}
    for label, n in expected.items():
        rs = root_system(label)
        pos = rs.positive_roots
        assert len(pos) == n
        assert len(set(pos)) == n
        assert len(rs.roots) == 2 * n
        for a in pos:
            assert all(c >= 0 for c in a) and any(c > 0 for c in a)


def test_weyl_group_orders():
    for label in ALL_TYPES:
        rs = root_system(label)
        elems = rs.weyl_elements()
        assert len(elems) == WEYL_ORDERS[label] == rs.weyl_order
        for m, w in elems.items():
            assert rs.matrix_of_word(w) == m


@pytest.mark.parametrize("label", ALL_TYPES + ["A5", "B5", "D5"])
def test_weyl_table_lists_words_in_shortlex_order(label):
    # the breadth-first table is already in the order the point stream
    # draws its twists from
    words = list(root_system(label).weyl_elements().values())
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_root_chain_steps_along_the_basis():
    for label in ALL_TYPES:
        rs = root_system(label)
        # over the simple roots, and over the base of the long roots
        long = [a for a in rs.positive_roots
                if rs.norm2(a) == max(map(rs.norm2, rs.positive_roots))]
        for roots, basis in ((rs.positive_roots, rs.simple_roots),
                             (long, rs.base_of(long))):
            chain = list(root_chain(roots, basis))
            assert sorted(a for a, _, _ in chain) == sorted(roots)
            earlier = set()
            for a, b, j in chain:
                assert a == tuple(x + y for x, y in zip(b, basis[j]))
                assert b in earlier or not any(b)
                earlier.add(a)
        # e^a along the chain, with e^{alpha_i} the i-th prime
        primes = [2, 3, 5, 7][:rs.rank]
        values = chain_values(root_chain(rs.positive_roots, rs.simple_roots),
                              primes)
        assert values == {a: math.prod(map(pow, primes, a))
                          for a in rs.positive_roots}
    with pytest.raises(ValueError, match="not an integer combination"):
        list(root_chain([(1, 0)], [(2, 0), (0, 1)]))
    with pytest.raises(ValueError, match="not an integer combination"):
        list(root_chain([(1, 1)], [(1, 0)]))


def test_weyl_order_formula_beyond_the_table():
    rs = root_system("A5")
    assert rs.weyl_order == len(rs.weyl_elements()) == 720


def test_longest_word_length_matches_positive_roots():
    for label in ["A2", "A3", "B2", "B3", "G2"]:
        rs = root_system(label)
        longest = max(len(w) for w in rs.weyl_elements().values())
        assert longest == len(rs.positive_roots)


def test_simple_reflection_permutes_other_positives():
    for label in ["A3", "B3", "C3", "G2", "F4"]:
        rs = root_system(label)
        pos = set(rs.positive_roots)
        for i in range(rs.rank):
            s = rs.simple_reflection(i)
            simple = rs.simple_roots[i]
            image = {rs.act(s, a) for a in pos if a != simple}
            assert image == pos - {simple}
            assert rs.act(s, simple) == tuple(-c for c in simple)


def test_reflection_in_root():
    for label in ["A3", "B3", "G2"]:
        rs = root_system(label)
        for a in rs.positive_roots:
            m = rs.reflection_in_root(a)
            assert rs.act(m, a) == tuple(-c for c in a)
            # involution: applying twice restores every root
            for b in rs.positive_roots[:4]:
                assert rs.act(m, rs.act(m, b)) == b


def test_reflect_agrees_with_matrix():
    rs = root_system("B3")
    for a in rs.positive_roots:
        m = rs.reflection_in_root(a)
        for b in rs.roots:
            k = rs.pairing(b, a)
            assert tuple(x - k * y for x, y in zip(b, a)) == rs.act(m, b)


def test_inner_product_weyl_invariant():
    for label in ["A2", "B2", "G2"]:
        rs = root_system(label)
        pos = rs.positive_roots
        for m in rs.weyl_elements():
            for a, b in itertools.product(pos[:4], pos[:4]):
                assert rs.inner(rs.act(m, a), rs.act(m, b)) == rs.inner(a, b)


def test_pairing_integrality_and_lengths():
    # integer Gram, pairings and reflections, against the Fraction pairing
    # built here from the symmetrized Cartan matrix
    for label in ALL_TYPES:
        rs = root_system(label)
        n = rs.rank
        gram = [[Fraction(rs.sym[i] * rs.cartan[i][j]) for j in range(n)]
                for i in range(n)]

        def inner(a, b):
            return sum(a[i] * gram[i][j] * b[j]
                       for i in range(n) for j in range(n))

        assert all(type(x) is int for row in rs.gram for x in row)
        norms = {rs.norm2(a) for a in rs.positive_roots}
        assert 2 in norms and len(norms) <= 2
        for a in rs.positive_roots:
            m = rs.reflection_in_root(a)
            assert all(type(x) is int for row in m for x in row)
            for b in rs.roots:
                assert type(rs.inner(b, a)) is int
                assert rs.inner(b, a) == inner(b, a)
                p = rs.pairing(b, a)
                assert type(p) is int and p == 2 * inner(b, a) / inner(a, a)
                image = tuple(x - p * y for x, y in zip(b, a))
                assert all(type(x) is int for x in image)
                assert image == rs.act(m, b)
        # integer matrices outside W: a scalar, and for rank >= 2 a shear
        outside = [tuple(tuple(2 * int(i == j) for j in range(n))
                         for i in range(n))]
        if n >= 2:
            outside.append(tuple(tuple(int(i == j or (i, j) == (0, 1))
                                       for j in range(n)) for i in range(n)))
        for w in outside:
            with pytest.raises(ValueError):
                rs.element(w)


def test_inversion_sets_count_word_length():
    for label in ["A2", "B2"]:
        rs = root_system(label)
        for m, w in rs.weyl_elements().items():
            inv = rs.inversion_set(m)
            assert len(inv) == len(w)
            assert len(set(inv)) == len(inv)
    rs = root_system("A2")
    assert rs.inversion_set(rs.matrix_of_word(())) == []


def test_cached_element_tables_match_fraction_oracle():
    # the cached w^{-1} (the matrix of the reversed word) against Fraction
    # row reduction, and the cached inversion set against the sign test on
    # w^{-1} applied to each positive root
    for label in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3",
                  "C4", "D4", "G2", "F4"]:
        rs = root_system(label)
        for m in rs.weyl_elements():
            inv = mat_inverse([[Fraction(x) for x in row] for row in m])
            assert all(x.denominator == 1 for row in inv for x in row)
            oracle = tuple(tuple(int(x) for x in row) for row in inv)
            assert rs.inverse_matrix(m) == oracle, label
            assert rs.inversion_set(m) == [
                a for a in rs.positive_roots
                if any(sum(oracle[i][j] * a[j] for j in range(rs.rank)) < 0
                       for i in range(rs.rank))], label
    with pytest.raises(ValueError):
        root_system("A2").inverse_matrix(((2, 0), (0, 1)))


def test_element_decides_weyl_membership():
    # -I lies in W exactly when w0 = -I: in B2 and G2, not in A2 or A3,
    # where -I is w0 times the diagram flip.  Fresh instances, so no
    # cached word or table decides the answer.
    for family, n, minus_identity_in_w in [("A", 2, False), ("B", 2, True),
                                           ("G", 2, True), ("A", 3, False)]:
        rs = RootSystem(family, n)
        minus = tuple(tuple(-x for x in row) for row in rs.identity)
        flip = tuple(reversed(rs.identity))
        if minus_identity_in_w:
            assert len(rs.word_of(minus)) == len(rs.positive_roots)
            assert rs.element(minus).inversions == tuple(rs.positive_roots)
        else:
            for w in (minus, flip):
                with pytest.raises(ValueError, match="not in the Weyl group"):
                    rs.element(w)
        for w in rs.weyl_elements():
            word = rs.word_of(w)
            assert rs.matrix_of_word(word) == w
            assert len(word) == len(rs.element(w).inversions)
        assert len(rs.weyl_elements()) == WEYL_ORDERS[rs.label]
        if not minus_identity_in_w:
            with pytest.raises(ValueError):
                rs.element(minus)
    # the descent reduction of this matrix never ends; word_of stops it
    # after |positive roots| steps
    rs = RootSystem("A", 2)
    for call in (rs.word_of, rs.element):
        with pytest.raises(ValueError, match="not in the Weyl group"):
            call(((-2, -2), (-2, 1)))


def test_base_of_recovers_simples():
    for label in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = root_system(label)
        assert sorted(rs.base_of(rs.positive_roots)) == sorted(rs.simple_roots)
    rs = root_system("A3")
    sub = [a for a in rs.positive_roots if a[1] == 0]
    assert sorted(rs.base_of(sub)) == [(0, 0, 1), (1, 0, 0)]


def test_word_inverse():
    rs = root_system("B3")
    for m, w in rs.weyl_elements().items():
        if len(w) > 4:
            continue
        minv = rs.inverse_matrix(m)
        for a in rs.positive_roots[:5]:
            assert rs.act(minv, rs.act(m, a)) == a


def test_abs_root_and_support():
    rs = root_system("A3")
    assert rs.abs_root((-1, -1, 0)) == (1, 1, 0)
    assert rs.support((1, 1, 0)) == frozenset({0, 1})
    assert sorted(rs.roots_with_support_in([0, 1])) == \
        sorted([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError):
        rs.abs_root((1, 0, 1))


def test_unknown_label_rejected():
    for bad in ["E6", "A0", "B1", "D3", "G3", "zzz"]:
        with pytest.raises(ValueError):
            root_system(bad)


def test_rank_bound():
    assert root_system(f"A{MAX_RANK}").rank == MAX_RANK
    assert root_system("a02").label == "A2"
    for bad in [f"B{MAX_RANK + 1}", "A99999", "A" + "9" * 5000]:
        with pytest.raises(ValueError, match="exceeds the maximum"):
            root_system(bad)


def test_every_spelling_names_one_root_system():
    # one root system, and so one set of tables, per type
    rs = root_system("A2")
    assert all(root_system(label) is rs
               for label in ("a2", " A2 ", "A02", "a002"))
    assert root_system("B3") is root_system("b03") is not rs


def test_times_generator_is_the_matrix_product():
    # W is enumerated here by full matrix products, independently of
    # weyl_elements (which steps by times_generator), and the column
    # update is compared with the product on every element and generator
    for label in ["A3", "B3", "G2", "F4"]:
        rs = root_system(label)
        gens = [rs.simple_reflection(i) for i in range(rs.rank)]
        group, frontier = {rs.identity}, [rs.identity]
        while frontier:
            frontier = [m for m in {int_mat_mul(w, g) for w in frontier
                                    for g in gens} if m not in group]
            group.update(frontier)
        assert len(group) == WEYL_ORDERS[label]
        for w in group:
            for i, g in enumerate(gens):
                assert rs.times_generator(w, i) == int_mat_mul(w, g)
        assert set(rs.weyl_elements()) == group
