"""Acceptance gate: ten structural criteria, each one test (criterion 01
also has an exact-in-q companion), exact arithmetic.

Every criterion prints one [PASS]/[FAIL] line (visible with -s or -rP and
in the verbose per-test report).  Tolerances are exact equality unless a
criterion states otherwise.
"""

import itertools
import random
import time
from fractions import Fraction
from math import prod

from trigbethe.bethe import (HolonomySpace, PointStream, XPoint, chart_only,
                             injectivity_pool, sample_xpoints)
from trigbethe.field import CyclotomicField
from trigbethe.hecke import HeckeAlgebra, exact_commutator_check
from trigbethe.lattice import int_rank, smith_normal_form
from trigbethe.layers import (enumerate_layers, gamma_divisors, generic_point,
                              is_indecomposable)
from trigbethe.linalg import rank, rref
from trigbethe.nested import Chart, maximal_nested_sets
from trigbethe.roots import root_system
from trigbethe import spin, typea

from oracles import (RatFunc, batch_hermite_form, bethe_rows, char_value,
                     char_values, det, epsilon_limit_span, gaudin,
                     hecke_is_zero, mat_mul, row_space_equal, sample_q,
                     typea_verdicts)

F6 = CyclotomicField(6)
ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
             "D4", "G2", "F4"]


def gaudin_span(sp, chi):
    """The rational family in direction chi, one vector per basis h."""
    return [gaudin(sp, chi, h) for h in sp.rs.identity]


def record(num: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {num} ({name})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------


def test_criterion_01_hecke_family_commutes():
    t0 = time.time()
    checked = 0
    ok = True
    for label in ["A2", "A3", "B2", "B3", "C3", "G2"]:
        rs = root_system(label)
        alg = HeckeAlgebra(rs)
        for seed in range(20):
            fam = alg.family(sample_q(rs, seed))
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    checked += 1
                    if not hecke_is_zero(alg.commutator(fam[i], fam[j])):
                        ok = False
    elapsed = time.time() - t0
    record(1, "symbolic family commutativity", ok and elapsed < 120,
           f"{checked} commutators exactly zero in {elapsed:.1f}s")


def test_criterion_01_hecke_family_commutes_for_every_q():
    # companion of criterion 01: every commutator coefficient vanishes as
    # a polynomial in q, on every type; the sign-flipped rule does not
    t0 = time.time()
    tested = 0
    ok = True
    for label in ALL_TYPES:
        rs = root_system(label)
        count, bad = exact_commutator_check(HeckeAlgebra(rs))
        tested += count
        ok = ok and not bad
        if rs.rank >= 2:
            _, flipped = exact_commutator_check(
                HeckeAlgebra(rs, relation_sign=-1), first_only=True)
            ok = ok and bool(flipped)
    elapsed = time.time() - t0
    record(1, "family commutativity exact in q", ok,
           f"{tested} coefficients vanish identically on {len(ALL_TYPES)} "
           f"types in {elapsed:.1f}s")


def test_criterion_02_spin_chain_commutes_with_scaled_identity():
    # at the integer point x of each sample, H_k scaled by
    # 2 x_k prod_{j != k} (x_k - x_j) and the image by prod_{j != k}
    # (x_k - x_j), so image = -x_k H_k reads: twice the represented image
    # is minus the scaled H_k
    ok = True
    for n in (2, 3):
        src = typea.TrigSource(n)
        tgt = typea.RationalTarget(n)
        for seed in range(20):
            rng = random.Random(f"accept-spin-{n}-{seed}")
            x = typea.integer_point(typea.sample_z(n, seed))
            theta = [[F6.coerce(rng.randint(-9, 9)), F6.zero()],
                     [F6.zero(), F6.coerce(rng.randint(-9, 9))]]
            hams = [spin.trig_hamiltonian(theta, x, k, n)
                    for k in range(1, n + 1)]
            for a, b in itertools.combinations(hams, 2):
                ok = ok and spin.commute(a, b)
            for k, vec in enumerate(src.bethe_span(x), start=1):
                img = typea.reindex_map(src, tgt, vec)
                rep = spin.combination(
                    spin.pair_vector_terms(tgt.pairs, img, theta, n), n)
                want = [{c: -v for c, v in row.items()}
                        for row in hams[k - 1]]
                ok = ok and rep == want
    record(2, "spin commutativity and -z_k scaling", ok,
           "n=2,3 x 20 seeds, exact")


def _stratum_classes(x: XPoint) -> set:
    out = set()
    r = int_rank([list(a) for a in x.centralized])
    m = len(x.subset)
    if m < x.rs.rank:
        out.add("proper-subset")
    if m == x.rs.rank and r == 0:
        out.add("interior")
    if 0 < r < m:
        out.add("positive-dim-layer")
    if r == m and r > 0:
        if all(y.is_one() for y in x.point):
            out.add("identity-fiber")
        else:
            out.add("torsion-0dim")
    if any(t == 0 for t in x.tvals):
        out.add("boundary-tval")
    if x.word:
        out.add("twisted")
    return out


def test_criterion_03_rank_is_system_rank_everywhere():
    ok = True
    details = []
    for label in ["A2", "B2", "G2", "A3"]:
        rs = root_system(label)
        sp = HolonomySpace(rs, F6)
        pts = sample_xpoints(PointStream(rs, F6, 0), 50)
        dims = {rank(x.subspace()) for x in pts}
        ok = ok and dims == {rs.rank}
        seen = set()
        for x in pts:
            seen |= _stratum_classes(x)
        need = {"interior", "proper-subset", "positive-dim-layer",
                "identity-fiber", "boundary-tval", "twisted"}
        if label in ("B2", "G2"):
            need.add("torsion-0dim")
        ok = ok and need <= seen
        rng = random.Random(f"accept-rank-{label}")
        for _ in range(10):
            point = tuple(F6.from_rational(Fraction(rng.randint(2, 60),
                                                    rng.randint(2, 60)))
                          for _ in range(rs.rank))
            if any(char_value(F6, point, a).is_one() for a in rs.positive_roots):
                continue
            ok = ok and rank(bethe_rows(sp, point, rs.identity)) == rs.rank
            chi = [Fraction(rng.randint(1, 40)) for _ in range(rs.rank)]
            if all(sp.alpha_of_h(a, chi) != 0 for a in rs.positive_roots):
                ok = ok and rank(gaudin_span(sp, chi)) == rs.rank
        details.append(f"{label}:50pts")
    record(3, "limit subspaces have full rank", ok,
           "; ".join(details) + "; all stratum classes seen")


def test_criterion_04_type_a_identification():
    ok = True
    for n in (2, 3):
        src = typea.TrigSource(n)
        tgt = typea.RationalTarget(n)
        for seed in range(10):
            z = typea.sample_z(n, seed)
            x = typea.integer_point(z)
            images = [typea.reindex_map(src, tgt, vec)
                      for vec in src.bethe_span(x)]
            ok = ok and typea.check_sample(tgt, x, images) == ([], True) \
                == typea_verdicts(z)
    record(4, "reindexed span equals rational span", ok,
           "n=2,3 x 10 seeds, in integers and RREF-equal over Q")


def test_criterion_05_torsion_component_fixtures():
    rs = root_system("B2")
    top = [l for l in enumerate_layers(rs, F6) if l.codim == 2]
    ok = len(top) == 2
    by_char = {tuple(str(v) for v in char_values(l)): l for l in top}
    ident = by_char.get(("1", "1"))
    other = by_char.get(("1", "-1"))
    ok = ok and ident is not None and other is not None
    ok = ok and is_indecomposable(rs, ident)
    ok = ok and not is_indecomposable(rs, other)
    ok = ok and gamma_divisors([(1, 0), (1, 2)], 2) == [2]

    rs = root_system("G2")
    long_triple = [(0, 1), (3, 1), (3, 2)]
    ok = ok and gamma_divisors(long_triple, 2) == [3]
    cube = [l for l in enumerate_layers(rs, F6)
            if l.codim == 2 and gamma_divisors(l.roots_pos, 2) == [3]]
    ok = ok and len(cube) == 2
    for l in cube:
        ok = ok and l.roots_pos == tuple(sorted(long_triple,
                                                key=lambda c: (sum(c), c)))
        vals = [v for v in char_values(l) if not v.is_one()]
        ok = ok and len(vals) == 1
        ok = ok and (vals[0] ** 3).is_one() and not vals[0].is_one()
    record(5, "order-2 and order-3 torsion fixtures", ok,
           "B2 split 2 components (Z/2); G2 cube pair (Z/3)")


def _g2_omega_pair():
    rs = root_system("G2")
    cube = [l for l in enumerate_layers(rs, F6)
            if l.codim == 2 and gamma_divisors(l.roots_pos, 2) == [3]]
    out = []
    for l in cube:
        y = generic_point(rs, (0, 1), l, seed=0)
        cen = list(l.roots_pos)
        base = rs.base_of(cen)
        edges = [(i, j) for i in range(len(base))
                 for j in range(i + 1, len(base))
                 if rs.inner(base[i], base[j]) != 0]
        fam = maximal_nested_sets(len(base), edges)[0]
        x = XPoint.at(rs, F6, (), (0, 1), y, fam, (Fraction(1), Fraction(1)))
        # the centralizer read off y is the layer's root set
        assert x.centralized == cen and x.chart.base == tuple(base)
        out.append(x)
    return out


def test_criterion_06_injectivity_classical_g2_reported():
    ok = True
    for label in ["A2", "A3", "B2", "B3", "C3"]:
        rs = root_system(label)
        pool = injectivity_pool(PointStream(rs, F6, 0), 30)
        ok = ok and len(pool) == 30
        keys = {str(rref([list(v) for v in x.subspace()])[0]) for x in pool}
        ok = ok and len(keys) == 30
    pair = _g2_omega_pair()
    ok = ok and len(pair) == 2 and all(chart_only(x) for x in pair)
    subs = [x.subspace() for x in pair]
    ok = ok and all(rank(s) == 2 for s in subs)
    equal = row_space_equal(subs[0], subs[1])
    record(6, "distinct points give distinct subspaces (classical)", ok,
           f"30/30 per classical type; G2 omega pair computed, "
           f"subspaces equal: {equal} (reported, not asserted)")


def test_criterion_07_triangular_chain_matrices():
    ok = True
    counted = 0
    for label in ALL_TYPES:
        rs = root_system(label)
        edges = rs.nonorthogonal_edges(rs.simple_roots)
        for fam in maximal_nested_sets(rs.rank, edges):
            chart = Chart(rs.simple_roots, rs.positive_roots, fam)
            m = chart.chain_matrix()
            counted += 1
            for i in range(rs.rank):
                ok = ok and m[i][i] == 1
                for j in range(i):
                    ok = ok and m[i][j] == 0
            ok = ok and det([[Fraction(x) for x in row] for row in m]) == 1
    record(7, "chain matrices unitriangular, det 1", ok,
           f"{counted} charts over {len(ALL_TYPES)} types")


def test_criterion_08_chart_families_extend_gaudin():
    ok = True
    for label in ["A2", "A3", "B2", "G2"]:
        rs = root_system(label)
        sp = HolonomySpace(rs, F6)
        edges = rs.nonorthogonal_edges(rs.simple_roots)
        for fam in maximal_nested_sets(rs.rank, edges):
            chart = Chart(rs.simple_roots, rs.positive_roots, fam)
            tops = [s for s in chart.sets
                    if not any(s < q for q in chart.sets)]
            interior = tuple(Fraction(2 + k) for k in range(rs.rank))
            boundary = tuple(Fraction(1) if s in tops else Fraction(0)
                             for s in chart.sets)
            for tvals, is_interior in [(interior, True), (boundary, False)]:
                residuals = chart.residuals(tvals)
                ok = ok and all(r != 0 for r in residuals.values())
                hams = [sp.vector(dict(chart.hamiltonian_coeffs(
                    v, tvals, residuals))) for v in range(rs.rank)]
                ok = ok and rank(hams) == rs.rank
                total = [sum(col[1:], col[0]) for col in zip(*hams)]
                casimir = sp.vector({a: 1 for a in sp.pos})
                ok = ok and total == casimir
                if is_interior:
                    # the base root adapted at v is the product of t_Q
                    # over the members Q containing v's member
                    chi = [prod(t for q, t in zip(chart.sets, tvals)
                                if chart.sets[chart.adapted.index(v)]
                                <= q)
                           for v in range(rs.rank)]
                    for v in range(rs.rank):
                        hv = [Fraction(int(i == v)) for i in range(rs.rank)]
                        want = [F6.coerce(chi[v]) * c
                                for c in gaudin(sp, chi, hv)]
                        ok = ok and hams[v] == want
                    span = gaudin_span(sp, chi)
                    ok = ok and rank(span + [casimir]) == rank(span)
    record(8, "chart families extend the rational family", ok,
           "rank n, sum = Casimir, interior match, at interior+boundary")


def _bethe_rows_on_path(rs, path):
    """Symbolic family rows along an epsilon-path of torus points."""
    one = RatFunc.from_scalar(Fraction(1))
    rows = []
    for k in range(rs.rank):
        row = []
        for a in rs.positive_roots:
            u = one
            for p, e in zip(path, a):
                for _ in range(abs(e)):
                    u = u * p if e > 0 else u / p
            ah = Fraction(a[k])
            row.append(-(u / (u - one)) * RatFunc.from_scalar(ah) if ah
                       else RatFunc.from_scalar(Fraction(0)))
        for i in range(rs.rank):
            row.append(RatFunc.from_scalar(Fraction(int(i == k))))
        rows.append(row)
    return rows


def test_criterion_09_degeneration_limits():
    eps = RatFunc.variable(Fraction(1))
    one = RatFunc.from_scalar(Fraction(1))
    three = RatFunc.from_scalar(Fraction(3))

    rs = root_system("A2")
    sp = HolonomySpace(rs, F6)
    lim1 = epsilon_limit_span(_bethe_rows_on_path(
        rs, [one + eps, one + eps * three]))
    ok = row_space_equal(lim1, gaudin_span(sp, [Fraction(1), Fraction(3)]))

    rsb = root_system("B2")
    spb = HolonomySpace(rsb, F6)
    lim2 = epsilon_limit_span(_bethe_rows_on_path(
        rsb, [one + eps, (one + eps * three) * RatFunc.from_scalar(-1)]))
    ok = ok and row_space_equal(lim2, [spb.vector({(1, 0): 1}),
                                       spb.vector({(1, 2): 1})])

    lim3 = epsilon_limit_span(_bethe_rows_on_path(
        rs, [RatFunc.from_scalar(Fraction(5)), eps * three]))
    x = XPoint.at(rs, F6, (), (0,), (F6.from_rational(Fraction(5)),), [], ())
    ok = ok and row_space_equal(lim3, x.subspace())
    record(9, "symbolic paths converge to limit subspaces", ok,
           "identity fiber; order-2 torsion point; boundary stratum")


def test_criterion_10_infrastructure_oracles(is_nested,
                                             connected_vertex_subsets):
    rng = random.Random(20260814)
    ok = True
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        sf = smith_normal_form(a, ncols=n)
        # a unimodular U with U A V = diag(divisors) exists iff A V and
        # the diagonal share a row lattice
        diag = [[sf.divisors[i] if i == j and i < sf.rank else 0
                 for j in range(n)] for i in range(m)]
        ok = ok and batch_hermite_form(mat_mul(a, sf.V)) == \
            batch_hermite_form(diag)
        ok = ok and det([[Fraction(x) for x in r] for r in sf.V]) in (1, -1)
        for i in range(len(sf.divisors) - 1):
            ok = ok and sf.divisors[i + 1] % sf.divisors[i] == 0

    fixture = [
        (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})),
        (frozenset({0}), frozenset({2}), frozenset({0, 1, 2})),
        (frozenset({1}), frozenset({0, 1}), frozenset({0, 1, 2})),
        (frozenset({1}), frozenset({1, 2}), frozenset({0, 1, 2})),
        (frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2})),
    ]
    rs = root_system("A3")
    edges = rs.nonorthogonal_edges(rs.simple_roots)
    ok = ok and set(maximal_nested_sets(3, edges)) == set(fixture)

    for nvert, graph in [(2, [(0, 1)]), (3, [(0, 1), (1, 2)])]:
        conn = [frozenset(s) for s in connected_vertex_subsets(nvert, graph)]
        brute = set()
        for combo in itertools.combinations(conn, nvert):
            if is_nested(nvert, graph, combo):
                brute.add(tuple(sorted(combo,
                                       key=lambda s: (len(s), sorted(s)))))
        ok = ok and brute == set(maximal_nested_sets(nvert, graph))
    record(10, "infrastructure oracles", ok,
           "500 Smith factorizations; A3 family fixture; nestedness "
           "cross-check rank <= 3")
