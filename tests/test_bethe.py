"""Holonomy vectors, Weyl action, limit points and their recovery."""

import hashlib
import io
import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest

from trigbethe import bethe as bethe_module, cli
from trigbethe.bethe import (HolonomySpace, PointStream, XPoint, bethe_weight,
                             centralizer, chart_only, injectivity_pool,
                             integer_kernel, recover_data, sample_xpoints,
                             stratum_values, weyl_action_report,
                             xpoint_from_dict)
from trigbethe.field import CyclotomicField, default_field_order
from trigbethe.layers import enumerate_layers, generic_point, subset_layers
from trigbethe.linalg import mat_inverse, nullspace, rank, rref
from trigbethe.nested import maximal_nested_sets
from trigbethe.roots import RootSystem, int_mat_mul, root_system

from oracles import (ModularRing, RatFunc, bethe_rows, char_value, gaudin,
                     modular_reduced, root_of_unity_mod, row_space_equal)

F6 = CyclotomicField(6)
Q = CyclotomicField(1)


def space_of(label):
    return HolonomySpace(root_system(label), F6)


def holonomy_vector(space, t_terms, h_coords):
    """space.vector(t_terms) plus tau(h) for h_coords."""
    v = space.vector(t_terms)
    v[space.npos:] = map(space.field.coerce, h_coords)
    return v


def frac_point(field, *vals):
    return tuple(field.from_rational(Fraction(v)) for v in vals)


def test_vector_layout_and_labels():
    sp = space_of("A2")
    assert sp.dim == 5
    assert sp.labels() == ["t(0,1)", "t(1,0)", "t(1,1)", "tau(1)", "tau(2)"]
    v = holonomy_vector(sp, {(1, 0): 2, (-1, -1): 1}, [5, 7])
    assert [str(c) for c in v] == ["0", "2", "1", "5", "7"]


def test_bethe_fixture_rank_one():
    sp = space_of("A1")
    # weight at u: -u/(u-1) on the only root
    v = bethe_rows(sp, frac_point(F6, 2), [[Fraction(1)]])[0]
    assert v == holonomy_vector(sp, {(1,): -2}, [1])
    v = bethe_rows(sp, frac_point(F6, -1), [[Fraction(1)]])[0]
    assert v == holonomy_vector(sp, {(1,): Fraction(-1, 2)}, [1])


def test_bethe_fixture_a2():
    sp = space_of("A2")
    v = bethe_rows(sp, frac_point(F6, 2, 3), [[Fraction(1), Fraction(1)]])[0]
    assert v == holonomy_vector(sp, {(1, 0): -2, (0, 1): Fraction(-3, 2),
                                     (1, 1): Fraction(-12, 5)}, [1, 1])
    # alpha(h) = 2 on the highest root for h = (1,1); u = 6, u/(u-1) = 6/5
    assert str(v[sp.t_index((1, 1))]) == "-12/5"


def test_bethe_rejects_centralizing_point():
    sp = space_of("A2")
    with pytest.raises(ZeroDivisionError):
        bethe_rows(sp, frac_point(F6, 1, 3), [[Fraction(1), Fraction(0)]])


def test_gaudin_fixture():
    sp = space_of("A2")
    g = gaudin(sp, [Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)])
    assert g == sp.vector({(1, 0): 1, (1, 1): Fraction(1, 2)})
    with pytest.raises(ZeroDivisionError):
        gaudin(sp, [Fraction(1), Fraction(-1)], [Fraction(1), Fraction(0)])


def delta(space, h_coords):
    """The canonical shift tau(h) - (1/2) sum alpha(h) t_alpha."""
    half = Fraction(1, 2)
    terms = {a: -half * space.alpha_of_h(a, [Fraction(c) for c in h_coords])
             for a in space.pos}
    return holonomy_vector(space, terms, h_coords)


def test_delta_and_casimir():
    sp = space_of("A2")
    d = delta(sp, [Fraction(1), Fraction(0)])
    assert d == holonomy_vector(
        sp, {(1, 0): Fraction(-1, 2), (1, 1): Fraction(-1, 2)}, [1, 0])
    # the Casimir: 1 on every t_alpha, 0 on every tau
    casimir = sp.vector({a: 1 for a in sp.pos})
    assert casimir == [F6.one()] * len(sp.pos) + [F6.zero()] * 2


# ----------------------------------------------------------------------
# Reference Weyl actions, written from the Fraction inverse of w.  The
# "equivariant" one is the reference for HolonomySpace.act; the other two
# are wrong on purpose and serve as negative controls.


@lru_cache(maxsize=None)
def fraction_inverse(w):
    inv = mat_inverse([[Fraction(x) for x in row] for row in w])
    return tuple(tuple(int(x) for x in row) for row in inv)


def reference_h_transport(rs, w, h):
    winv = fraction_inverse(w)
    n = rs.rank
    return [sum(winv[j][i] * h[j] for j in range(n)) for i in range(n)]


def reference_action(variant):
    """t_alpha -> t_|w alpha|; tau(h) -> tau(h') - sum alpha(h'') t_alpha over
    the inversion set, with (h', h'') = (w.h, w.h) when equivariant,
    (w.h, h) half-transported, (h, h) untransported."""
    def act(space, w, vec):
        rs = space.rs
        winv = fraction_inverse(w)
        out = space.zero()
        for a in space.pos:
            c = vec[space.t_index(a)]
            out[space.t_index(rs.act(w, a))] += c
        h_old = list(vec[space.npos:])
        h_new = reference_h_transport(rs, w, h_old)
        h_tau = h_old if variant == "untransported" else h_new
        h_weight = h_new if variant == "equivariant" else h_old
        for i, c in enumerate(h_tau):
            out[space.npos + i] += c
        for a in space.pos:
            if min(rs.act(winv, a)) < 0:
                out[space.t_index(a)] -= space.alpha_of_h(a, h_weight)
        return out
    return act


def action_properties(rs, act):
    """(group law on generators, delta transport, Bethe transport) of act,
    each over every Weyl element, on field vectors."""
    space = HolonomySpace(rs, F6)
    n = rs.rank
    elements = list(rs.weyl_elements())
    gens = [rs.simple_reflection(i) for i in range(n)]
    basis = [[F6.from_rational(int(i == j)) for j in range(space.dim)]
             for i in range(space.dim)]
    group_law = all(
        act(space, int_mat_mul(w, g), e) == act(space, w, act(space, g, e))
        for w in elements for g in gens for e in basis)
    h_basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    delta_ok = all(
        act(space, w, delta(space, h))
        == delta(space, reference_h_transport(rs, w, h))
        for w in elements for h in h_basis)
    point = frac_point(F6, *[k + 2 for k in range(n)])
    bethe = all(
        act(space, w, bethe_rows(space, point, [h])[0])
        == bethe_rows(space, tuple(char_value(F6, point, col)
                                   for col in zip(*fraction_inverse(w))),
                      [reference_h_transport(rs, w, h)])[0]
        for w in elements for h in h_basis)
    return group_law, delta_ok, bethe


def test_wrong_actions_fail_and_library_action_passes():
    for label in ["A2", "B2"]:
        rs = root_system(label)
        for variant in ["untransported", "half-transported"]:
            assert action_properties(rs, reference_action(variant)) == \
                (False, False, False), (label, variant)
        assert action_properties(rs, reference_action("equivariant")) == \
            (True, True, True)
        assert action_properties(
            rs, lambda space, w, vec: space.act(w, vec)) == (True, True, True)
        report = weyl_action_report(rs, F6, seed=0, samples=6)
        assert report["group_law"] and report["delta_transport"] \
            and report["bethe_transport"]
        assert report["products"] == len(rs.weyl_elements()) * rs.rank


def test_act_matches_fraction_reference_on_basis():
    reference = reference_action("equivariant")
    for label in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"]:
        rs = root_system(label)
        space = HolonomySpace(rs, F6)
        basis = [[F6.from_rational(int(i == j)) for j in range(space.dim)]
                 for i in range(space.dim)]
        for w in rs.weyl_elements():
            for e in basis:
                assert space.act(w, e) == reference(space, w, e), label


# ----------------------------------------------------------------------
# The whole-group sweep: the oracle for the Coxeter-presentation check
# weyl_action_report.  It visits every element of W on sparse integer
# matrices, with w^-1 from Fraction inverses; delta is doubled and the
# Bethe vectors at one rational point are scaled by the common
# denominator of the Bethe weights of all roots, so every entry is an
# integer.


def whole_group_oracle(rs, seed=0):
    """group_law: rho(1) = 1 and rho(w s_i) = rho(w) rho(s_i) for every w
    and i; twist_formula: rho(w) is the product of the rho(s_i) along
    word_of(w) for every w; delta_transport and bethe_transport:
    w.delta(h) = delta(w.h) and w.B(y, h) = B(w.y, w.h) for every w and
    every h in the coordinate basis, at one seeded regular point y."""
    import random
    from math import lcm
    rng = random.Random(f"weyl-oracle-{rs.label}-{seed}")
    space = HolonomySpace(rs, F6)
    n, dim = rs.rank, space.dim
    cols = {w: space.rho(w) for w in rs.weyl_elements()}

    def compose(a, b):
        out = []
        for col in b:
            acc = {}
            for k, m in col.items():
                for r, x in a[k].items():
                    acc[r] = acc.get(r, 0) + m * x
            out.append({r: x for r, x in acc.items() if x})
        return out

    def apply(a, vec):
        out = [0] * dim
        for col, c in zip(a, vec):
            for r, m in col.items():
                out[r] += m * c
        return out

    gens = [rs.simple_reflection(i) for i in range(n)]
    unit = [{k: 1} for k in range(dim)]
    group_law = cols[rs.identity] == unit and all(
        compose(cols[w], cols[g]) == cols[int_mat_mul(w, g)]
        for w in cols for g in gens)
    # word_of(w) = word_of(w s_i) + (i,): one product per element
    products = {rs.identity: unit}
    for w in sorted(cols, key=lambda w: len(rs.word_of(w))):
        if w != rs.identity:
            i = rs.word_of(w)[-1]
            products[w] = compose(products[int_mat_mul(w, gens[i])], cols[gens[i]])
    twist_formula = products == cols

    def char(point, coords):
        out = Fraction(1)
        for y, k in zip(point, coords):
            out *= y ** k
        return out

    while True:
        point = [Fraction(rng.randint(2, 50), rng.randint(2, 50)) for _ in range(n)]
        if all(char(point, a) != 1 for a in space.pos):
            break
    weights = {r: bethe_weight(Q.coerce(char(point, r))).as_rational()
               for r in rs.roots}
    scale = lcm(*(g.denominator for g in weights.values()))
    scaled = {r: int(g * scale) for r, g in weights.items()}

    def bethe_vector(root_of, h):
        # scale * B: root_of(gamma) is the root whose weight sits on t_gamma
        return [space.alpha_of_h(a, h) * scaled[root_of(a)]
                for a in space.pos] + [scale * c for c in h]

    def doubled_delta(h):
        return [-space.alpha_of_h(a, h) for a in space.pos] + [2 * c for c in h]

    h_basis = [[int(i == j) for j in range(n)] for i in range(n)]
    delta_ok = bethe_ok = True
    for w, m in cols.items():
        winv = fraction_inverse(w)
        # e^gamma(w.y) = e^{w^-1 gamma}(y)
        pulled = {a: rs.act(winv, a) for a in space.pos}
        for h in h_basis:
            wh = reference_h_transport(rs, w, h)
            delta_ok &= apply(m, doubled_delta(h)) == doubled_delta(wh)
            bethe_ok &= apply(m, bethe_vector(lambda a: a, h)) \
                == bethe_vector(pulled.__getitem__, wh)
    return {"group_law": group_law, "twist_formula": twist_formula,
            "delta_transport": delta_ok, "bethe_transport": bethe_ok}


RANK_AT_MOST_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                  "D4", "G2", "F4"]


@pytest.mark.parametrize("label", RANK_AT_MOST_4)
def test_weyl_report_matches_whole_group_oracle(label):
    rs = root_system(label)
    oracle = whole_group_oracle(rs)
    report = weyl_action_report(rs, F6, seed=0, samples=6)
    assert oracle == {k: report[k] for k in oracle}
    assert all(oracle.values()) and report["control"] is True
    assert report["elements"] == len(rs.weyl_elements())
    assert report["relations"] == rs.rank * (rs.rank + 1) // 2


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3"])
def test_weyl_report_and_oracle_reject_a_flipped_generator(label, monkeypatch):
    # rho(s_1) with its correction term sign-flipped: the oracle and the
    # Coxeter-presentation check both fail, delta and Bethe transport both
    rs = root_system(label)
    s1 = rs.simple_reflection(0)
    rho = HolonomySpace.rho

    def flipped(self, w):
        cols = rho(self, w)
        if w != s1:
            return cols
        return cols[:self.npos] + [{r: -x if r < self.npos else x
                                    for r, x in col.items()}
                                   for col in cols[self.npos:]]

    monkeypatch.setattr(HolonomySpace, "rho", flipped)
    oracle = whole_group_oracle(rs)
    report = weyl_action_report(rs, F6, seed=0, samples=6)
    assert not oracle["delta_transport"] and not oracle["bethe_transport"]
    assert not report["delta_transport"] and not report["bethe_transport"]


def test_weyl_report_never_enumerates_the_group(monkeypatch):
    def refuse(self):
        raise AssertionError("whole Weyl group enumerated")
    monkeypatch.setattr(RootSystem, "weyl_elements", refuse)
    for label in ["D4", "F4", "B5"]:
        report = weyl_action_report(root_system(label), F6, seed=3, samples=4)
        assert report["twists"] == 5
        assert all(report[k] for k in ("group_law", "twist_formula",
                                       "delta_transport", "bethe_transport",
                                       "control"))


def test_twisted_point_never_enumerates_the_group(monkeypatch):
    def refuse(self):
        raise AssertionError("whole Weyl group enumerated")
    monkeypatch.setattr(RootSystem, "weyl_elements", refuse)
    x = xpoint_from_dict({"type": "D4", "w": [2, 1, 3, 4, 2],
                          "I": [1, 2, 3, 4], "y": ["2", "3", "5", "7"],
                          "S": [], "t": []})
    assert rank(x.subspace()) == 4


def test_action_fixes_casimir_and_preserves_spans():
    rs = root_system("B2")
    sp = HolonomySpace(rs, F6)
    c = sp.vector({a: 1 for a in sp.pos})
    for m in rs.weyl_elements():
        assert sp.act(m, c) == c


def interior_xpoint(label, *vals):
    rs = root_system(label)
    n = rs.rank
    subset = tuple(range(n))
    y = frac_point(F6, *vals)
    return XPoint.at(rs, F6, (), subset, y, [], ())


def test_interior_point_equals_bethe_subspace():
    x = interior_xpoint("A2", 2, 3)
    sp = x.space
    assert row_space_equal(x.subspace(), bethe_rows(sp, x.point, sp.rs.identity))
    assert not chart_only(x)


def test_interior_recovery_roundtrip():
    x = interior_xpoint("A2", 2, 3)
    rec = recover_data(x.space, x.subspace())
    assert rec.centralized_pos == ()
    assert rec.vanishing == ()
    expected = {(1, 0): "2", (0, 1): "3", (1, 1): "6"}
    assert {a: str(u) for a, u in rec.unit_values.items()} == expected


def test_boundary_point_recovery():
    # ambient stratum keeps only the first simple direction; roots with
    # support outside it acquire weight zero
    rs = root_system("A2")
    y = frac_point(F6, 5)
    x = XPoint.at(rs, F6, (), (0,), y, [], ())
    sub = x.subspace()
    assert rank(sub) == 2
    rec = recover_data(x.space, sub)
    assert rec.centralized_pos == ()
    assert {a: str(u) for a, u in rec.unit_values.items()} == {(1, 0): "5"}
    assert rec.vanishing == ((0, 1), (1, 1))


def test_recovery_rejects_an_inconsistent_weight_profile():
    # both tau rows see the root (1, 1) with alpha(h) = 1, but read
    # different weights off its t-coefficient
    space = HolonomySpace(root_system("A2"), F6)
    vectors = [holonomy_vector(space, {(1, 1): -1}, (1, 0)),
               holonomy_vector(space, {(1, 1): -2}, (0, 1))]
    with pytest.raises(ValueError, match="inconsistent weight profile"):
        recover_data(space, vectors)


def test_torsion_point_subspace():
    # the order-2 point of the short-long rank-2 system: centralizer is
    # spanned by the two long roots, so the subspace is chart-only
    rs = root_system("B2")
    y = (F6.one(), -F6.one())
    cen = [a for a in rs.positive_roots
           if (y[0] ** a[0] * y[1] ** a[1]).is_one()]
    assert cen == [(1, 0), (1, 2)]
    fam = maximal_nested_sets(2, [])  # orthogonal base: no edges
    x = XPoint.at(rs, F6, (), (0, 1), y, fam[0], (Fraction(1), Fraction(1)))
    assert x.centralized == cen
    assert x.chart.base == tuple(rs.base_of(cen))
    assert chart_only(x)
    sub = x.subspace()
    assert rank(sub) == 2
    rec = recover_data(x.space, sub)
    assert rec.centralized_pos == ((1, 0), (1, 2))


def test_xpoint_validation_errors():
    rs = root_system("A2")
    with pytest.raises(ValueError, match="S must list 2 members, one per "
                       "root of the centralizer's base, not 0"):
        # the centralizer at y = (1, 1) is all of A2, so S needs two
        # members, one per vertex of its base: an empty S has the wrong size
        XPoint.at(rs, F6, (), (0, 1), (F6.one(), F6.one()), [], ())
    x = interior_xpoint("A2", 2, 3)
    with pytest.raises(ValueError):
        XPoint.at(rs, F6, (9,), (0, 1), x.point, [], ())
    with pytest.raises(ValueError, match="vertex out of range"):
        # a trivial centralizer has an empty base
        XPoint.at(rs, F6, (), (0, 1), x.point, [{0}, {0, 1}], ())
    one = (F6.one(), F6.one())
    with pytest.raises(ValueError, match="one chart coordinate"):
        XPoint.at(rs, F6, (), (0, 1), one, [{0}, {0, 1}], (Fraction(1),))
    with pytest.raises(ValueError, match="residual hypersurface"):
        # the residual factor of alpha_1 + alpha_2 is t_{1} + 1
        XPoint.at(rs, F6, (), (0, 1), one, [{0}, {0, 1}],
                  (Fraction(-1), Fraction(1)))


def test_dict_roundtrip():
    rs = root_system("B2")
    for x in sample_xpoints(PointStream(rs, F6, 4), 8):
        x2 = xpoint_from_dict(x.to_dict())
        assert x2.signature() == x.signature()
        assert row_space_equal(x2.subspace(), x.subspace())
    with pytest.raises(ValueError):
        xpoint_from_dict({"type": "A2", "I": [3], "y": ["1"]})
    with pytest.raises(ValueError):
        xpoint_from_dict({"type": "A2", "I": [1], "y": []})


def test_sampler_deterministic_and_distinct():
    rs = root_system("A2")
    a = sample_xpoints(PointStream(rs, F6, 7), 10)
    b = sample_xpoints(PointStream(rs, F6, 7), 10)
    assert [x.signature() for x in a] == [x.signature() for x in b]
    assert len({x.signature() for x in a}) == 10
    covered = {len(x.subset) for x in a}
    assert 2 in covered


STREAM_DIGESTS = {
    ("A2", 6, 0): "95cca685db1d470ee43e315c2feff422448e8c977e6cfa075e9d878774456e9b",
    ("A2", 6, 1): "6a3cbda30c4e426cc032e7c49c7a27a8a10a7d2e2889815cbd87db8ea52de934",
    ("B2", 4, 0): "b94aaed46a699b50be4c1dfcb3cabccc2212617651dc997d43c3471103fb18ad",
    ("B2", 4, 1): "fdb31097ef0c740484eb189146d285782f77764874c533b2ff7910b9be0085a0",
    ("G2", 6, 0): "a5c2576e78f765ae1f6da322be401c8d3e3454041cd1c8d4512973e78363febc",
    ("G2", 6, 1): "aa0a25042845c7519f5ddfe67f9adcb94dad0771e792684d2057f8b370965efe",
    ("A3", 6, 0): "2234c91fca999e54cb538213e978a401da17b034a11eb0c91de03ee57f72c80a",
    ("A3", 6, 1): "7489b8472f3c6c1b068c448edb490f9df9cc907bc27313795e8d3e1cafcaae37",
    ("F4", 12, 0): "fc420d66f2d7e4fab494f09b2d275e4bde006ac230edb54c5760e0e81e9bda3c",
    ("F4", 12, 1): "172c00e8bea45b36ceeafe9f85b159c4294d6f239eaa912c0edec16b959c5e16",
}


@pytest.mark.parametrize("label,order,seed", sorted(STREAM_DIGESTS))
def test_drawn_points_are_pinned(label, order, seed):
    # the points a stream draws, layer, seed and all: check payloads print
    # counts only, so these digests are what pins the draw itself
    stream = PointStream(root_system(label), CyclotomicField(order), seed)
    text = "\n".join(json.dumps(x.to_dict(), sort_keys=True)
                     for x in sample_xpoints(stream, 12))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        STREAM_DIGESTS[label, order, seed]


def test_subspace_dimension_always_rank():
    for label in ["A2", "B2", "G2"]:
        rs = root_system(label)
        for x in sample_xpoints(PointStream(rs, F6, 1), 12):
            assert rank(x.subspace()) == rs.rank


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_recovery_weighs_exactly_the_roots_off_the_centralizer_span(label):
    # oracle: a root is read off a tau row exactly when it lies outside
    # the Q-span of the recovered centralizer (a rank test over Q)
    rs = root_system(label)
    seen = 0
    for x in sample_xpoints(PointStream(rs, F6, 3), 16):
        if x.word:
            continue
        seen += 1
        rec = recover_data(x.space, x.subspace())
        cen = [[Fraction(c) for c in a] for a in rec.centralized_pos]
        outside = {a for a in rs.positive_roots
                   if rank(cen + [[Fraction(c) for c in a]]) > rank(cen)}
        assert {*rec.unit_values, *rec.vanishing} == outside
    assert seen


def test_recovery_on_untwisted_samples():
    rs = root_system("A2")
    for x in sample_xpoints(PointStream(rs, F6, 2), 12):
        if x.word:
            continue
        rec = recover_data(x.space, x.subspace())
        assert rec.centralized_pos == tuple(sorted(
            x.centralized, key=lambda c: (sum(c), c)))
        for a, u in rec.unit_values.items():
            assert u == x.root_values[a]


def test_injectivity_pool_distinct_subspaces():
    rs = root_system("A2")
    pool = injectivity_pool(PointStream(rs, F6, 0), 10)
    assert len(pool) == 10
    reduced = [str(rref([list(v) for v in x.subspace()])[0]) for x in pool]
    assert len(set(reduced)) == 10


def test_injectivity_pool_skips_a_chart_only_repeat():
    # two G2 torsion points that share the centralizer {(0,1), (3,1),
    # (3,2)}: both chart-only, with one chart and t, so one subspace
    def torsion(y):
        return xpoint_from_dict({"type": "G2", "field_order": 6, "w": [],
                                 "I": [1, 2], "y": y, "S": [[2], [1, 2]],
                                 "t": ["0", "1"]})

    first, repeat = torsion(["-1 + z", "1"]), torsion(["-z", "1"])
    assert chart_only(first) and chart_only(repeat)
    assert first.centralized == repeat.centralized == [(0, 1), (3, 1), (3, 2)]
    assert first.reduced == repeat.reduced
    other = interior_xpoint("G2", 2, 3)

    class Stream:
        def point(self, k, max_attempts):
            return [first, repeat, other][k]

    assert injectivity_pool(Stream(), 2) == [first, other]


def _sampled_then_deduped(rs, field, seed, count):
    """injectivity_pool as first written, the oracle for the lazy pool:
    sample 3 * count points, then dedup them."""
    out, seen = [], set()
    for x in sample_xpoints(PointStream(rs, field, seed), count * 3):
        if chart_only(x):
            key = ("chart-only", x.word, tuple(x.centralized),
                   tuple(tuple(sorted(s)) for s in x.chart.sets),
                   tuple(str(t) for t in x.tvals))
        else:
            key = x.signature()
        if key in seen:
            continue
        seen.add(key)
        out.append(x)
        if len(out) == count:
            break
    assert len(out) == count
    return out


def test_injectivity_pool_matches_sample_then_dedup():
    for label in ["A1", "A2", "B2", "G2", "A3"]:
        rs = root_system(label)
        for seed in range(6):
            for count in (2, 6):
                pool = injectivity_pool(PointStream(rs, F6, seed), count)
                want = _sampled_then_deduped(rs, F6, seed, count)
                assert [x.signature() for x in pool] == \
                    [x.signature() for x in want]


def test_sample_xpoints_is_a_prefix_of_longer_samples():
    for label in ["A2", "B2", "G2", "A3"]:
        rs = root_system(label)
        for seed in (0, 1, 14):
            long = [x.signature()
                    for x in sample_xpoints(PointStream(rs, F6, seed), 18)]
            for count in (1, 6, 12):
                stream = PointStream(rs, F6, seed)
                assert [x.signature() for x in
                        sample_xpoints(stream, count)] == long[:count]


def test_point_stream_is_shared_and_drawn_on_demand():
    rs = root_system("B2")
    stream = PointStream(rs, F6, 1)
    assert stream.attempts == stream.built == stream.reductions == 0
    pts = sample_xpoints(stream, 6)
    assert pts == stream.points
    pool = injectivity_pool(stream, 6)
    # the pool reads the same point objects and draws no more than it needs
    assert all(any(x is y for y in stream.points) for x in pool)
    assert len(stream.points) == 6
    rows = pts[0].reduced
    assert pts[0].reduced is rows and stream.reductions == 1
    assert rows == rref(pts[0].subspace())[0]
    # a point of another stream is reduced on its own
    assert sample_xpoints(PointStream(rs, F6, 1), 1)[0].reduced == rows
    assert stream.reductions == 1


def test_sampling_budgets_are_per_call(monkeypatch):
    # no draw ever gives a point: each call spends exactly its own budget
    def no_point(*args, **kwargs):
        raise RuntimeError("no generic point")
    monkeypatch.setattr("trigbethe.layers.generic_point", no_point)
    rs = root_system("A2")
    stream = PointStream(rs, F6, 0)
    with pytest.raises(RuntimeError, match="could only sample 0 points"):
        sample_xpoints(stream, 5)
    assert stream.attempts == 5 * 40
    with pytest.raises(RuntimeError, match="could only sample 0 points"):
        injectivity_pool(stream, 5)
    assert stream.attempts == 3 * 5 * 40 and stream.built == 0


def test_twisted_point_subspace_matches_acted_span():
    rs = root_system("A2")
    sp = HolonomySpace(rs, F6)
    y = frac_point(F6, 2, 3)
    x0 = interior_xpoint("A2", 2, 3)
    for word in [(0,), (1,), (0, 1)]:
        x = XPoint.at(rs, F6, word, (0, 1), y, [], ())
        m = rs.matrix_of_word(word)
        assert row_space_equal(x.subspace(),
                               sp.act_span(m, x0.subspace()))


# a prime with 12 | p - 1, so F_p holds the roots of unity of every
# default field order
PRIME = 10 ** 9 + 9
POOL = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
        / "reference.json")


@lru_cache(maxsize=None)
def modular_samples() -> tuple:
    """The first 12 stream points at seeds 0-7 of each type of rank <= 3."""
    out = []
    for label in ("A1", "A2", "B2", "G2", "A3", "B3", "C3"):
        rs = root_system(label)
        field = CyclotomicField(default_field_order(rs.family))
        for seed in range(8):
            out += sample_xpoints(PointStream(rs, field, seed), 12)
    return tuple(out)


@lru_cache(maxsize=None)
def pool_samples() -> tuple:
    """Every 4th point of the frozen subspace pool: its eight type/field
    pairs, orders 6 and 12, and all four kinds of point."""
    pool = json.loads(POOL.read_text(encoding="utf-8"))["pool"]
    return tuple(xpoint_from_dict(json.loads(entry["spec"]))
                 for entry in pool[::4])


def modular_verdicts(samples, root_of) -> list:
    """Per sample: whether its rows rebuilt over F_PRIME, with zeta_N sent
    to root_of(N), equal its exact rows reduced into that ring; the error
    a rebuild raised."""
    # rebuilt on root systems of their own, so no F_p entry enters the
    # shared tables
    own: dict[str, RootSystem] = {}
    verdicts = []
    for x in samples:
        rs = own.setdefault(x.rs.label, RootSystem(x.rs.family, x.rs.rank))
        order = x.field.order
        ring = ModularRing(PRIME, order, root_of(order))
        want = [[ring.image(c) for c in row] for row in x.reduced]
        try:
            verdicts.append(modular_reduced(rs, ring, x) == want)
        except (ValueError, ZeroDivisionError) as error:
            verdicts.append(error)
    return verdicts


def primitive_root(order: int) -> int:
    return root_of_unity_mod(PRIME, order)


def test_point_construction_runs_over_a_prime_field():
    # ROADMAP item 18's scalar protocol: XPoint.at, the subspace and its
    # rref run unchanged over F_p, and give the exact rows reduced mod p,
    # on stream points and on the frozen pool; a bad reduction fails here
    # too
    assert {x.field.order for x in modular_samples()} == {6}
    assert {x.field.order for x in pool_samples()} == {6, 12}
    assert {x.rs.label for x in pool_samples()} == {
        "A3", "B3", "C3", "A4", "D4", "G2"}
    assert modular_verdicts(modular_samples(), primitive_root) == [True] * 672
    assert modular_verdicts(pool_samples(), primitive_root) == [True] * 320


def test_prime_field_oracle_needs_a_primitive_root():
    # zeta_N sent to -1, a root of unity but not a primitive N-th one: the
    # reduction is no ring map, and a point whose y needs zeta rebuilds
    # to other rows or fails
    for samples in (modular_samples(), pool_samples()):
        verdicts = modular_verdicts(samples, lambda order: PRIME - 1)
        assert False in verdicts
        assert 0 < verdicts.count(True) < len(verdicts)


def test_bethe_weight_values():
    # one path over every ring of the scalar protocol: Q = Q(zeta_1),
    # Q(zeta_6), Q(zeta_12), F_p and the rational functions Q(u); the
    # reference -u * (1/(u - 1)) takes the ring's own inverse
    def reference(u):
        return -(u * (1 / (u - 1)))

    assert bethe_weight(Q.coerce(2)) == -2
    assert bethe_weight(Q.coerce(3)) == Fraction(3, -2) == 3 / (1 - Fraction(3))
    assert bethe_weight(F6.from_rational(5)) == Fraction(-5, 4)
    z = F6.zeta(1)
    assert bethe_weight(z) == -(z * (z - 1).inverse())
    u = RatFunc.variable()
    assert bethe_weight(u) * (u - 1) == -u
    F12 = CyclotomicField(12)
    mod = ModularRing(PRIME, 12, primitive_root(12))
    rings = {"Q": (Q.one(), [Q.coerce(c) for c in (2, -1, Fraction(3, 7))]),
             "Q(zeta_6)": (F6.one(), [z, F6.zeta(2) + 3, F6.coerce(-4)]),
             "Q(zeta_12)": (F12.one(), [F12.zeta(1), F12.zeta(5) - F12.zeta(3),
                                        F12.coerce(Fraction(1, 2))]),
             "F_p": (mod.coerce(1), [mod.image(F12.zeta(1)), mod.coerce(2),
                                     mod.coerce(Fraction(-5, 3))]),
             "Q(u)": (RatFunc.from_scalar(1), [u, u * u + 1, 1 / u])}
    for name, (one, values) in rings.items():
        for v in values:
            assert bethe_weight(v) == reference(v), (name, v)
        with pytest.raises(ZeroDivisionError):
            bethe_weight(one)


def test_weight_inversion_proof_at_three_points(monkeypatch):
    # the three-point check, the same identity over Q(u) with the
    # rational-function oracle, and a wrong weight that both reject
    u = RatFunc.variable()
    assert bethe_module._weight_inversion_holds()
    assert bethe_weight(u) + bethe_weight(1 / u) == -1

    def wrong(v):
        return v.over_minus_one()

    assert not wrong(u) + wrong(1 / u) == -1
    monkeypatch.setattr(bethe_module, "bethe_weight", wrong)
    assert not bethe_module._weight_inversion_holds()


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(code, names)
    rs = names["rs"]
    assert len(names["family"]) == len(names["rational"]) == rs.rank
    assert rank(names["family"]) == rank(names["rational"]) == rs.rank


def test_readme_point_description_runs(capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Point descriptions", 1)[1]
    spec = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert set(json.loads(spec)) == {"type", "field_order", "w", "I", "y",
                                     "S", "t"}
    monkeypatch.setattr("sys.stdin", io.StringIO(spec))
    assert cli.main(["subspace", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2


CENTRALIZER_CASES = [(label, 6) for label in
                     ["A2", "B2", "G2", "A3", "B3", "C3", "D4"]] + \
    [("G2", 12), ("B3", 12)]


@pytest.mark.parametrize("label,order", CENTRALIZER_CASES)
def test_centralizer_at_a_generic_point_is_the_layer_roots(label, order):
    # the point stream reads the base and the nested families off the
    # roots of a layer of the walk, before XPoint.at reads the centralizer
    # off a generic point of it: both must be the same roots
    rs = root_system(label)
    layers = enumerate_layers(rs, CyclotomicField(order))
    points = 0
    for subset, on_subset in subset_layers(layers).items():
        for k in on_subset:
            layer = layers[k]
            want = list(layer.roots_pos)
            for seed in (0, 1):
                y = generic_point(rs, subset, layer, seed=seed)
                _, cen, base = centralizer(rs, subset, y)
                assert cen == want, (subset, layer.basis, seed)
                assert base == rs.base_of(want)
                points += 1
    assert points > 0


@pytest.mark.parametrize("label", ["A2", "B3", "G2"])
def test_top_chart_coordinate_is_never_read(label):
    # every root under a maximal member carries its coordinate as a common
    # factor and the chart reads only ratios, so it cancels
    rs = root_system(label)
    tried = 0
    for x in sample_xpoints(PointStream(rs, F6, 3), 16):
        sets = x.chart.sets
        tops = {k for k, s in enumerate(sets) if not any(s < q for q in sets)}
        for top in (Fraction(0), Fraction(5), Fraction(-7, 3)):
            tvals = [top if k in tops else t for k, t in enumerate(x.tvals)]
            moved = XPoint.at(rs, F6, x.word, x.subset, x.point, sets, tvals)
            assert moved.subspace() == x.subspace()
            tried += bool(tops)
    assert tried > 0


def test_top_chart_coordinate_leaves_the_cli_basis_alone(capsys, monkeypatch):
    outs = []
    for t in (["1", "1"], ["1", "5"], ["1", "0"]):
        spec = {"type": "A2", "I": [1, 2], "y": ["1", "1"],
                "S": [[1], [1, 2]], "t": t}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
        assert cli.main(["subspace", "-"]) == 0
        outs.append(json.loads(capsys.readouterr().out)["basis"])
    assert outs[0] == outs[1] == outs[2]


# every type up to rank 4 (C2 is B2 with the other labelling)
RANK_FOUR_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                   "D4", "G2", "F4"]


@pytest.mark.parametrize("label", RANK_FOUR_TYPES)
def test_stratum_values_match_char_value(label):
    # one product per root along the height chain against one character
    # evaluation per root, on every subset of the simple roots, at points
    # mixing roots of unity, rationals and dense field elements
    import random
    rs = root_system(label)
    field = CyclotomicField(12)
    rng = random.Random(f"stratum-values-{label}")
    n = rs.rank
    for mask in range(1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        point = tuple(rng.choice([
            field.zeta(rng.randrange(12)),
            field.from_rational(Fraction(rng.randint(1, 9),
                                         rng.randint(1, 9))),
            field.element([rng.randint(-3, 3) or 1 for _ in range(4)])])
            for _ in subset)
        values = stratum_values(rs, subset, point)
        roots = rs.roots_with_support_in(subset)
        assert list(values) == roots
        for a in roots:
            coords = [a[i] for i in subset]
            assert values[a] == char_value(field, point, coords)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_integer_kernel_matches_fraction_nullspace(label):
    # on the centralized roots of every layer: n - rank primitive integer
    # vectors spanning the kernel that Fraction row reduction finds
    rs = root_system(label)
    n = rs.rank
    seen = set()
    for layer in enumerate_layers(
            rs, CyclotomicField(default_field_order(rs.family))):
        rows = layer.roots_pos
        if rows in seen:
            continue
        seen.add(rows)
        kernel = integer_kernel(rows, n)
        oracle = nullspace([[Fraction(x) for x in r] for r in rows]) if rows \
            else [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert len(kernel) == n - rank([[Fraction(x) for x in r] for r in rows])
        assert all(type(x) is int for v in kernel for x in v)
        assert all(gcd(*v) == 1 for v in kernel)
        assert all(sum(x * y for x, y in zip(r, v)) == 0
                   for r in rows for v in kernel)
        assert row_space_equal([[Fraction(x) for x in v] for v in kernel],
                               oracle)
        # no rows (the full torus, an empty centralizer): the unit vectors
        assert rows or kernel == list(rs.identity)
    assert () in seen and len(seen) > 1


@pytest.mark.parametrize("label", ["A3", "B3", "C3"])
def test_xpoint_accepts_exactly_the_maximal_nested_sets(label):
    # at y = 1 the centralizer is everything and its base the simple
    # roots; with positive t every residual factor is positive, so only
    # the shape of S decides, over all families of 3 distinct members
    rs = root_system(label)
    one = (F6.one(),) * 3
    maximal = {frozenset(f) for f in
               maximal_nested_sets(3, rs.nonorthogonal_edges(rs.simple_roots))}
    subsets = [frozenset(c) for r in (1, 2, 3)
               for c in itertools.combinations(range(3), r)]
    tvals = (Fraction(2), Fraction(3), Fraction(1))
    for fam in itertools.combinations(subsets, 3):
        try:
            XPoint.at(rs, F6, (), (0, 1, 2), one, fam, tvals)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (frozenset(fam) in maximal), fam
