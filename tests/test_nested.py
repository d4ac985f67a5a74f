"""Nested families on diagrams and the chart evaluation machinery."""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from trigbethe.bethe import PointStream, XPoint
from trigbethe.field import CyclotomicField, default_field_order
from trigbethe.nested import Chart, adjacency, is_nested, maximal_nested_sets
from trigbethe.poly import Poly
from trigbethe.roots import root_system

from oracles import det

PATH2 = [(0, 1)]
PATH3 = [(0, 1), (1, 2)]
PATH4 = [(0, 1), (1, 2), (2, 3)]
STAR4 = [(0, 1), (1, 2), (1, 3)]
TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2",
         "F4"]


def test_maximal_family_counts():
    assert len(maximal_nested_sets(2, PATH2)) == 2
    assert len(maximal_nested_sets(3, PATH3)) == 5
    assert len(maximal_nested_sets(4, PATH4)) == 14
    assert len(maximal_nested_sets(4, STAR4)) == 16
    assert len(maximal_nested_sets(1, [])) == 1
    assert maximal_nested_sets(0, []) == [()]
    # two disconnected vertices: singletons only, a single family
    assert maximal_nested_sets(2, []) == \
        [(frozenset({0}), frozenset({1}))]


def test_families_are_nested_and_sized(is_nested):
    for nvert, edges in [(3, PATH3), (4, PATH4), (4, STAR4)]:
        for fam in maximal_nested_sets(nvert, edges):
            assert len(fam) == nvert
            assert is_nested(nvert, edges, fam)
            assert frozenset(range(nvert)) not in fam or True


def test_maximal_families_admit_no_extension(is_nested,
                                             connected_vertex_subsets):
    nvert, edges = 3, PATH3
    all_conn = connected_vertex_subsets(nvert, edges)
    for fam in maximal_nested_sets(nvert, edges):
        members = set(fam)
        for extra in all_conn:
            if frozenset(extra) in members:
                continue
            assert not is_nested(nvert, edges, list(members | {frozenset(extra)}))


def test_is_nested_brute_force_consistency(is_nested,
                                           connected_vertex_subsets):
    # rank <= 3: families produced by the recursive enumeration are exactly
    # the maximal ones among all nested families of full size
    for nvert, edges in [(2, PATH2), (3, PATH3)]:
        conn = [frozenset(s) for s in connected_vertex_subsets(nvert, edges)]
        full = set()
        for combo in itertools.combinations(conn, nvert):
            if is_nested(nvert, edges, combo):
                full.add(tuple(sorted(combo, key=lambda s: (len(s), sorted(s)))))
        assert full == set(maximal_nested_sets(nvert, edges))


def test_is_nested_rejections(is_nested):
    assert not is_nested(3, PATH3, [frozenset({0, 2})])       # disconnected
    assert not is_nested(3, PATH3, [frozenset()])             # empty member
    assert not is_nested(3, PATH3, [frozenset({0, 1}), frozenset({1, 2})])
    # disjoint antichain with connected union
    assert not is_nested(3, PATH3, [frozenset({0}), frozenset({1})])
    assert is_nested(3, PATH3, [frozenset({0}), frozenset({2})])


def a2_chart(sets):
    rs = root_system("A2")
    return Chart(rs.simple_roots, rs.positive_roots, sets)


def member(chart, v, tvals):
    """The chart family member at vertex v, on the residuals at tvals."""
    return chart.hamiltonian_coeffs(v, tvals, chart.residuals(tvals))


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
    for label in TYPES:
        rs = root_system(label)
        edges = rs.nonorthogonal_edges(rs.simple_roots)
        for fam in maximal_nested_sets(rs.rank, edges):
            chart = Chart(rs.simple_roots, rs.positive_roots, fam)
            m = chart.chain_matrix()
            for i in range(rs.rank):
                assert m[i][i] == 1
                for j in range(i):
                    assert m[i][j] == 0
            assert det([[Fraction(x) for x in row] for row in m]) == 1


def base_value(chart, v, tvals):
    """Evaluation of the base root adapted at vertex v on the chart point:
    the product of t_Q over the members Q containing v's member."""
    member = chart.sets[chart.adapted.index(v)]
    return prod(t for q, t in zip(chart.sets, tvals) if member <= q)


def test_base_value_and_r_value_a2():
    chart = a2_chart([{0}, {0, 1}])
    t = (Fraction(2), Fraction(3))
    # adapted root of {0} is alpha1, evaluating to t0*t1; of {0,1} to t1
    assert base_value(chart, 0, t) == 6
    assert base_value(chart, 1, t) == 3
    # alpha1+alpha2 has coordinates (1,1): r = 1*t1... chain from {0} to {0,1}
    assert chart.r_value((1, 1), t) == 2 * 1 + 1  # t0-chain contributes t0
    assert all(r != 0 for r in chart.residuals(t).values())
    assert 0 in chart.residuals((Fraction(-1), Fraction(3))).values()


def test_hamiltonian_fixture_interior():
    chart = a2_chart([{0}, {0, 1}])
    h0 = member(chart, 0, (Fraction(1), Fraction(1)))
    assert h0 == {(1, 0): Fraction(1), (1, 1): Fraction(1, 2)}
    h0b = member(chart, 0, (Fraction(2), Fraction(3)))
    assert h0b == {(1, 0): Fraction(1), (1, 1): Fraction(2, 3)}


def test_residuals_are_evaluated_once_per_point(monkeypatch):
    calls = []
    r_value = Chart.r_value

    def counted(self, root, tvals):
        calls.append(root)
        return r_value(self, root, tvals)
    monkeypatch.setattr(Chart, "r_value", counted)
    # A2 at y = 1: every root is centralized, on the chart {1} < {1,2};
    # XPoint.at tests genericity on the residuals the point keeps, and
    # each member of the chart family reads them
    field = CyclotomicField(6)
    t = (Fraction(2), Fraction(3))
    x = XPoint.at(root_system("A2"), field, (), (0, 1),
                  (field.one(), field.one()), [{0}, {0, 1}], t)
    chart = x.chart
    assert len(calls) == len(chart.pos_roots) == 3
    assert x.subspace() == x.subspace() and x.reduced
    assert len(calls) == len(chart.pos_roots)
    assert x.residuals == {(0, 1): 1, (1, 0): 1, (1, 1): 3}
    assert type(x.residuals[(1, 1)]) is Fraction
    # the chart keeps no point: residuals in another field are evaluated
    # again, of the type of the point, to the same weights
    h = [chart.hamiltonian_coeffs(v, t, x.residuals) for v in (0, 1)]
    tf = tuple(field.from_rational(c) for c in t)
    residuals = chart.residuals(tf)
    assert type(residuals[(1, 1)]) is type(tf[0])
    assert [chart.hamiltonian_coeffs(v, tf, residuals) for v in (0, 1)] == h
    assert len(calls) == 2 * len(chart.pos_roots)


def test_hamiltonian_fixture_boundary():
    chart = a2_chart([{0}, {0, 1}])
    t = (Fraction(0), Fraction(1))
    h0 = member(chart, 0, t)
    h1 = member(chart, 1, t)
    assert h0 == {(1, 0): Fraction(1), (1, 1): Fraction(0)}
    assert h1 == {(0, 1): Fraction(1), (1, 1): Fraction(1)}


def charts_of(label):
    """Every chart on the simple roots of the type, and the chart of each
    of the first points of a sampled stream (the base of a centralizer)."""
    rs = root_system(label)
    edges = rs.nonorthogonal_edges(rs.simple_roots)
    charts = [Chart(rs.simple_roots, rs.positive_roots, fam)
              for fam in maximal_nested_sets(rs.rank, edges)]
    stream = PointStream(rs, CyclotomicField(default_field_order(rs.family)),
                         3)
    for k in range(12):
        x = stream.point(k, 400)
        if x is None:
            break
        if x.chart.base:
            charts.append(x.chart)
    return charts


@pytest.mark.parametrize("label", TYPES)
def test_residuals_factor_each_root(label):
    # with one indeterminate per member: each base root has the residual
    # 1, and each root, evaluated base root by base root, is its residual
    # times t_Q over the members Q holding its minimal member A(r)
    for chart in charts_of(label):
        m = len(chart.sets)
        t = [Poly.variable(m, q) for q in range(m)]
        for b in chart.base:
            assert chart.r_value(b, t) == 1
        for r, coords in chart.base_coords.items():
            supp = {v for v, c in enumerate(coords) if c}
            top = min((p for p in chart.sets if supp <= p), key=len)
            # members holding a common vertex are nested, so each
            # vertex's member lies in A(r)
            assert all(chart.sets[chart.adapted.index(v)] <= top
                       for v in supp)
            common = prod(tq for q, tq in zip(chart.sets, t) if top <= q)
            direct = sum(c * base_value(chart, v, t)
                         for v, c in enumerate(coords) if c)
            assert direct == chart.r_value(r, t) * common


def missing_vertex_coefficient(chart, coords):
    """The coefficient of the root at the vertex of its minimal member A(r)
    that no smaller member covers."""
    supp = {v for v, c in enumerate(coords) if c}
    top = min((p for p in chart.sets if supp <= p), key=len)
    covered = set().union(*(q for q in chart.sets if q < top))
    [v] = top - covered
    return coords[v]


@pytest.mark.parametrize("label", TYPES)
def test_residuals_at_nonnegative_t_are_at_least_one(label):
    # why a drawn chart point needs no genericity test: a residual is a
    # sum of terms c_v * prod t_Q with every c_v >= 1, and the term of
    # A(r)'s missing vertex has an empty chain, so at t >= 0 it is >= 1
    rng = random.Random(f"residuals-{label}")
    for chart in charts_of(label):
        zero = [Fraction(0)] * len(chart.sets)
        for r, coords in chart.base_coords.items():
            c = missing_vertex_coefficient(chart, coords)
            assert c >= 1 and chart.r_value(r, zero) == c
        for _ in range(4):
            tvals = [Fraction(1) if not any(s < q for q in chart.sets)
                     else Fraction(0) if rng.random() < 0.35
                     else Fraction(rng.randint(1, 40), rng.randint(1, 40))
                     for s in chart.sets]
            assert all(chart.r_value(r, tvals) >= 1 for r in chart.pos_roots)
    # and the stream draws exactly such points: t >= 0, tops at 1
    rs = root_system(label)
    stream = PointStream(rs, CyclotomicField(default_field_order(rs.family)),
                         0)
    for k in range(12):
        x = stream.point(k, 400)
        if x is None:
            break
        sets = x.chart.sets
        assert all(t >= 0 for t in x.tvals)
        assert all(t == 1 for s, t in zip(sets, x.tvals)
                   if not any(s < q for q in sets))
        assert all(x.chart.r_value(r, x.tvals) >= 1 for r in x.chart.pos_roots)


def test_chart_rejects_roots_outside_base_lattice():
    with pytest.raises(ValueError):
        Chart([(2, 0), (0, 1)], [(1, 0)], [{0}, {0, 1}])
    with pytest.raises(ValueError):
        Chart([(1, 0)], [(0, 1)], [{0}])


def assert_base_coords_solve(chart, express_in_rows):
    rows = [list(map(Fraction, b)) for b in chart.base]
    assert list(chart.base_coords) == list(chart.pos_roots)
    for r, coords in chart.base_coords.items():
        assert all(type(c) is int for c in coords)
        assert express_in_rows(list(map(Fraction, r)), rows) == list(coords)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3", "A4",
                                   "B4", "C4", "D4", "F4"])
def test_base_coords_match_row_reduction(label, express_in_rows):
    # the height-chain coordinates against one Fraction row reduction per
    # root: on every chart of the triangularity check (the simple roots
    # of the type) and on the chart of every point of a sampled stream
    # (the base of a centralizer, inside any member of the family)
    rs = root_system(label)
    charts = charts_of(label)
    for chart in charts:
        assert_base_coords_solve(chart, express_in_rows)
    assert len(charts) > len(maximal_nested_sets(
        rs.rank, rs.nonorthogonal_edges(rs.simple_roots)))


@pytest.mark.parametrize("nvert", [1, 2, 3, 4])
def test_is_nested_is_maximality_on_every_small_graph(nvert):
    # every graph on nvert vertices, every family of nvert distinct
    # nonempty vertex sets: the pairwise rule holds exactly on the families
    # maximal_nested_sets lists (87,360 families on 4 vertices)
    pairs = list(itertools.combinations(range(nvert), 2))
    subsets = [frozenset(c) for r in range(1, nvert + 1)
               for c in itertools.combinations(range(nvert), r)]
    for mask in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        adj = adjacency(nvert, edges)
        maximal = {frozenset(f) for f in maximal_nested_sets(nvert, edges)}
        hits = 0
        for fam in itertools.combinations(subsets, nvert):
            nested = is_nested(fam, adj)
            assert nested == (frozenset(fam) in maximal), (edges, fam)
            hits += nested
        assert hits == len(maximal)
