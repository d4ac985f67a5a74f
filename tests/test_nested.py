"""Nested families on diagrams and the chart evaluation machinery."""

import itertools
from fractions import Fraction
from math import prod

import pytest

from trigbethe.nested import (Chart, connected_vertex_subsets, is_nested,
                              maximal_nested_sets)
from trigbethe.roots import root_system

PATH2 = [(0, 1)]
PATH3 = [(0, 1), (1, 2)]
PATH4 = [(0, 1), (1, 2), (2, 3)]
STAR4 = [(0, 1), (1, 2), (1, 3)]


def test_maximal_family_counts():
    assert len(maximal_nested_sets(2, PATH2)) == 2
    assert len(maximal_nested_sets(3, PATH3)) == 5
    assert len(maximal_nested_sets(4, PATH4)) == 14
    assert len(maximal_nested_sets(4, STAR4)) == 16
    assert len(maximal_nested_sets(1, [])) == 1
    # two disconnected vertices: singletons only, a single family
    assert maximal_nested_sets(2, []) == \
        [(frozenset({0}), frozenset({1}))]


def test_families_are_nested_and_sized():
    for nvert, edges in [(3, PATH3), (4, PATH4), (4, STAR4)]:
        for fam in maximal_nested_sets(nvert, edges):
            assert len(fam) == nvert
            assert is_nested(nvert, edges, fam)
            assert frozenset(range(nvert)) not in fam or True


def test_maximal_families_admit_no_extension():
    nvert, edges = 3, PATH3
    all_conn = connected_vertex_subsets(nvert, edges)
    for fam in maximal_nested_sets(nvert, edges):
        members = set(fam)
        for extra in all_conn:
            if frozenset(extra) in members:
                continue
            assert not is_nested(nvert, edges, list(members | {frozenset(extra)}))


def test_is_nested_brute_force_consistency():
    # rank <= 3: families produced by the recursive enumeration are exactly
    # the maximal ones among all nested families of full size
    for nvert, edges in [(2, PATH2), (3, PATH3)]:
        conn = [frozenset(s) for s in connected_vertex_subsets(nvert, edges)]
        full = set()
        for combo in itertools.combinations(conn, nvert):
            if is_nested(nvert, edges, combo):
                full.add(tuple(sorted(combo, key=lambda s: (len(s), sorted(s)))))
        assert full == set(maximal_nested_sets(nvert, edges))


def test_is_nested_rejections():
    assert not is_nested(3, PATH3, [frozenset({0, 2})])       # disconnected
    assert not is_nested(3, PATH3, [frozenset()])             # empty member
    assert not is_nested(3, PATH3, [frozenset({0, 1}), frozenset({1, 2})])
    # disjoint antichain with connected union
    assert not is_nested(3, PATH3, [frozenset({0}), frozenset({1})])
    assert is_nested(3, PATH3, [frozenset({0}), frozenset({2})])


def a2_chart(sets):
    rs = root_system("A2")
    return Chart(rs.simple_roots, rs.positive_roots, sets)


def test_chart_validation():
    with pytest.raises(ValueError):
        a2_chart([{0, 1}])                      # too few members
    with pytest.raises(ValueError):
        a2_chart([{0}, {1}])                    # no member holds supp(a1+a2)
    chart = a2_chart([{0}, {0, 1}])
    assert chart.adapted == [0, 1]
    assert chart.sets == (frozenset({0}), frozenset({0, 1}))


def test_chain_matrix_fixture():
    chart = a2_chart([{0}, {0, 1}])
    assert chart.chain_matrix() == [[1, 1], [0, 1]]


def test_chain_matrices_unitriangular():
    for label in ["A3", "B3", "D4", "G2"]:
        rs = root_system(label)
        edges = rs.nonorthogonal_edges(rs.simple_roots)
        for fam in maximal_nested_sets(rs.rank, edges):
            chart = Chart(rs.simple_roots, rs.positive_roots, fam)
            m = chart.chain_matrix()
            for i in range(rs.rank):
                assert m[i][i] == 1
                for j in range(i):
                    assert m[i][j] == 0


def base_value(chart, v, tvals):
    """Evaluation of the base root adapted at vertex v on the chart point:
    the product of t_Q over the members Q containing v's member."""
    member = chart.sets[chart.member_index_of_vertex(v)]
    return prod(t for q, t in zip(chart.sets, tvals) if member <= q)


def test_base_value_and_r_value_a2():
    chart = a2_chart([{0}, {0, 1}])
    t = (Fraction(2), Fraction(3))
    # adapted root of {0} is alpha1, evaluating to t0*t1; of {0,1} to t1
    assert base_value(chart, 0, t) == 6
    assert base_value(chart, 1, t) == 3
    # alpha1+alpha2 has coordinates (1,1): r = 1*t1... chain from {0} to {0,1}
    assert chart.r_value((1, 1), t) == 2 * 1 + 1  # t0-chain contributes t0
    assert chart.is_generic(t)
    assert not chart.is_generic((Fraction(-1), Fraction(3)))


def test_hamiltonian_fixture_interior():
    chart = a2_chart([{0}, {0, 1}])
    h0 = chart.hamiltonian_coeffs(0, (Fraction(1), Fraction(1)))
    assert h0 == {(1, 0): Fraction(1), (1, 1): Fraction(1, 2)}
    h0b = chart.hamiltonian_coeffs(0, (Fraction(2), Fraction(3)))
    assert h0b == {(1, 0): Fraction(1), (1, 1): Fraction(2, 3)}


def test_hamiltonian_fixture_boundary():
    chart = a2_chart([{0}, {0, 1}])
    t = (Fraction(0), Fraction(1))
    h0 = chart.hamiltonian_coeffs(0, t)
    h1 = chart.hamiltonian_coeffs(1, t)
    assert h0 == {(1, 0): Fraction(1), (1, 1): Fraction(0)}
    assert h1 == {(0, 1): Fraction(1), (1, 1): Fraction(1)}


def test_ratio_bounded_at_boundary():
    chart = a2_chart([{0}, {0, 1}])
    # ratio of the inner base root against the long root stays finite at t0=0
    val = chart.ratio(0, (1, 1), (Fraction(0), Fraction(5)))
    assert val == 0
    with pytest.raises(ValueError):
        chart.ratio(1, (1, 0), (Fraction(1), Fraction(1)))


def test_chart_rejects_roots_outside_base_lattice():
    with pytest.raises(ValueError):
        Chart([(2, 0), (0, 1)], [(1, 0)], [{0}, {0, 1}])
    with pytest.raises(ValueError):
        Chart([(1, 0)], [(0, 1)], [{0}])
