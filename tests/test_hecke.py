"""Deformed operator algebra: exchange rule, commuting family, images."""

import json
import random
from fractions import Fraction

import pytest

from trigbethe.bethe import HolonomySpace
from trigbethe.cli import main
from trigbethe.field import CyclotomicField
from trigbethe.hecke import HeckeAlgebra, cleared_numerator, q_power
from trigbethe.linalg import rank
from trigbethe.poly import Poly
from trigbethe.roots import RootSystem, int_mat_mul, root_system

from oracles import (bethe_rows, hecke_is_zero, holonomy_image,
                     product_cleared_numerator, row_space_equal, sample_q)


# coefficient profiles c(u) of the root power u = q^a.  The library family
# uses "standard", which is bethe.bethe_weight; "inverted" and "bethe" (the
# profile of the holonomy image) are negative and comparison controls.
PROFILES = {
    "standard": lambda u: u / (1 - u),
    "inverted": lambda u: 1 / (u - 1),
    "bethe": lambda u: u / (u - 1),
}


def at_numeric_t(alg, a, tval):
    """A Hecke element flattened to exact coordinates over (group
    element, x-monomial) at the numeric value tval of t; a coefficient
    stays in its ring (int, or Q(zeta_1) in a family member)."""
    out = {}
    for w, p in a.items():
        for e, c in p.terms.items():
            key = (w, e[:alg.n])
            val = c * Fraction(tval) ** e[alg.n]
            out[key] = out.get(key, 0) + val
    return {k: v for k, v in out.items() if v != 0}


def all_reduced_words(rs, w):
    """Every shortest generator word for w, to show that the exchange
    move does not depend on the word chosen."""
    target_len = len(rs.word_of(w))
    if target_len == 0:
        return [()]
    out = []
    for i in range(rs.rank):
        prev = rs.times_generator(w, i)
        if len(rs.word_of(prev)) == target_len - 1:
            out.extend(u + (i,) for u in all_reduced_words(rs, prev))
    return out


def weighted_family(alg, weights):
    """x_k + t * sum_a a_k c_a (s_a - 1) for the weights c_a, one per
    positive root, built independently of bmo."""
    fam = []
    for k in range(alg.n):
        out = alg.x(k)
        for a, c in zip(alg.rs.positive_roots, weights):
            if a[k]:
                coeff = alg.tvar * (c * a[k])
                out = alg.add(out, {alg.rs.reflection_in_root(a): coeff,
                                    alg.ident: coeff * Fraction(-1)})
        fam.append(out)
    return fam


def profile_family(alg, qvals, weight):
    """The degree-one family with coefficient PROFILES[weight](u) on the
    reflection in each positive root."""
    return weighted_family(alg, [PROFILES[weight](q_power(qvals, a))
                                 for a in alg.rs.positive_roots])


def test_defining_relation_elementwise():
    rs = root_system("B2")
    alg = HeckeAlgebra(rs)
    for i in range(rs.rank):
        gen = rs.simple_reflection(i)
        m = gen  # row k of the matrix gives the image of x_k
        for j in range(rs.rank):
            lhs = alg.multiply(alg.x(j), alg.group(gen))
            subst = Poly(alg.nvars)
            for k in range(rs.rank):
                if m[j][k]:
                    subst = subst + Poly.variable(alg.nvars, k) \
                        * Fraction(m[j][k])
            rhs = {gen: subst}
            if i == j:
                rhs = alg.add(rhs, {alg.ident: alg.tvar})
            assert hecke_is_zero(alg.sub(lhs, rhs))


def test_normal_form_word_independent():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    p = Poly.variable(alg.nvars, 0) * Poly.variable(alg.nvars, 1) + \
        Poly.variable(alg.nvars, 0) * Fraction(3)
    for w in rs.weyl_elements():
        words = all_reduced_words(rs, w)
        forms = [alg.move_across_word(p, word) for word in words]
        for f in forms[1:]:
            assert hecke_is_zero(alg.sub(f, forms[0]))
    long_words = all_reduced_words(rs, rs.matrix_of_word((0, 1, 0)))
    assert sorted(long_words) == [(0, 1, 0), (1, 0, 1)]


def test_group_multiplication_consistent():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    for w1, word1 in rs.weyl_elements().items():
        for w2, word2 in rs.weyl_elements().items():
            prod = alg.multiply(alg.group(w1), alg.group(w2))
            direct = alg.group(rs.matrix_of_word(word1 + word2))
            assert hecke_is_zero(alg.sub(prod, direct))


def test_associativity_spot_check():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    s0 = rs.simple_reflection(0)
    a = alg.add(alg.x(0), alg.group(s0))
    b = alg.add(alg.x(1), alg.scale(alg.group(alg.ident), Fraction(2)))
    c = alg.add(alg.group(rs.simple_reflection(1)), alg.x(0))
    left = alg.multiply(alg.multiply(a, b), c)
    right = alg.multiply(a, alg.multiply(b, c))
    assert hecke_is_zero(alg.sub(left, right))


def test_sample_q_deterministic_and_regular():
    rs = root_system("G2")
    q1 = sample_q(rs, 3)
    q2 = sample_q(rs, 3)
    assert q1 == q2
    for a in rs.positive_roots:
        assert q_power(q1, a) != 1


def test_standard_and_inverted_families_commute():
    for label in ["A2", "B2", "G2"]:
        rs = root_system(label)
        alg = HeckeAlgebra(rs)
        for seed in (0, 1):
            q = sample_q(rs, seed)
            assert profile_family(alg, q, "standard") == alg.family(q)
            for fam in (alg.family(q), profile_family(alg, q, "inverted")):
                for i in range(len(fam)):
                    for j in range(i + 1, len(fam)):
                        assert hecke_is_zero(alg.commutator(fam[i], fam[j]))


def test_bethe_weight_family_does_not_commute():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    q = sample_q(rs, 0)
    fam = profile_family(alg, q, "bethe")
    assert not hecke_is_zero(alg.commutator(fam[0], fam[1]))


def test_flipped_relation_sign_breaks_commutativity():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs, relation_sign=-1)
    q = sample_q(rs, 0)
    fam = alg.family(q)
    assert not hecke_is_zero(alg.commutator(fam[0], fam[1]))


def test_singular_q_rejected():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    with pytest.raises(ZeroDivisionError):
        alg.bmo(0, (Fraction(1), Fraction(3)))


def test_at_numeric_t_fixture():
    rs = root_system("A1")
    alg = HeckeAlgebra(rs)
    # q = 3: weight 3/(1-3) = -3/2; at t = 2 the reflection carries -3
    a = alg.bmo(0, (Fraction(3),))
    flat = at_numeric_t(alg, a, Fraction(2))
    s = rs.simple_reflection(0)
    assert flat == {(s, (0,)): Fraction(-3),
                    (alg.ident, (0,)): Fraction(3),
                    (alg.ident, (1,)): Fraction(1)}


def span_vectors(keyed):
    """Dense rows over Q = Q(zeta_1) on the union of all keys, for span
    tests."""
    keys = sorted({k for d in keyed for k in d},
                  key=lambda kv: (kv[0], kv[1]))
    rationals = CyclotomicField(1)
    return [[rationals.coerce(d.get(k, 0)) for k in keys] for d in keyed]


def split_spans(alg, keyed_a, keyed_b):
    dense = span_vectors(list(keyed_a) + list(keyed_b))
    return dense[:len(keyed_a)], dense[len(keyed_a):]


def test_holonomy_image_matches_bethe_weight_span():
    # pinned resolution: the degree-one correspondence carries the limit
    # span at a regular point onto the u/(u-1)-weighted family span,
    # which differs from both commuting-weight spans
    tval = Fraction(5)
    for label, seed in [("A2", 0), ("B2", 1), ("A3", 2)]:
        rs = root_system(label)
        field = CyclotomicField(6)
        alg = HeckeAlgebra(rs)
        q = sample_q(rs, seed)
        point = tuple(field.from_rational(v) for v in q)
        space = HolonomySpace(rs, field)
        imgs = [holonomy_image(alg, space, v, tval)
                for v in bethe_rows(space, point, rs.identity)]
        bethe = [at_numeric_t(alg, el, tval)
                 for el in profile_family(alg, q, "bethe")]
        std = [at_numeric_t(alg, el, tval) for el in alg.family(q)]
        rows_img, rows_bethe = split_spans(alg, imgs, bethe)
        assert row_space_equal(rows_img, rows_bethe)
        rows_img2, rows_std = split_spans(alg, imgs, std)
        assert not row_space_equal(rows_img2, rows_std)
        rows_b2, rows_s2 = split_spans(alg, bethe, std)
        assert not row_space_equal(rows_b2, rows_s2)
        assert rank(rows_img) == rs.rank


def test_commutator_rank_control():
    # the failed variants genuinely fail: nonzero commutator of full rank
    rs = root_system("A2")
    alg = HeckeAlgebra(rs, relation_sign=-1)
    q = sample_q(rs, 0)
    fam = alg.family(q)
    comm = alg.commutator(fam[0], fam[1])
    flat = at_numeric_t(alg, comm, Fraction(7))
    assert len(flat) >= 2


def evaluate_table(alg, table, weights):
    """The commutator table with each c_a replaced by weights[a]."""
    out = {}
    for (w, e), coeff in table.items():
        val = Fraction(0)
        for mono, v in coeff.items():
            for b in mono:
                v = v * weights[b]
            val += v
        out[w] = out.get(w, Poly(alg.nvars)) + Poly(alg.nvars, {e: val})
    return out


def test_commutator_table_matches_normal_form_products():
    # oracle: the table at arbitrary rational weights equals the
    # normal-form commutator of the family built from the same weights
    rng = random.Random(20261018)
    for label in ["A2", "B2", "G2", "A3"]:
        rs = root_system(label)
        for sign in (1, -1):
            alg = HeckeAlgebra(rs, relation_sign=sign)
            for _ in range(2):
                weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in rs.positive_roots]
                fam = weighted_family(alg, weights)
                for i in range(rs.rank):
                    for j in range(i + 1, rs.rank):
                        want = alg.commutator(fam[i], fam[j])
                        assert not hecke_is_zero(want)
                        got = evaluate_table(alg, alg.commutator_table(i, j),
                                             weights)
                        assert hecke_is_zero(alg.sub(got, want)), (label, sign)


def test_cleared_numerator_fixture():
    # A2, roots a = (0,1), b = (1,0), a + b: c_a c_b = c_{a+b}(1 + c_a + c_b)
    # for c = u/(1-u); dropping any one term leaves a non-zero polynomial
    rs = root_system("A2")
    assert rs.positive_roots == [(0, 1), (1, 0), (1, 1)]
    identity = {(0, 1): Fraction(1), (2,): Fraction(-1), (0, 2): Fraction(-1),
                (1, 2): Fraction(-1)}
    assert cleared_numerator(rs, identity).is_zero()
    for mono in identity:
        rest = {m: v for m, v in identity.items() if m != mono}
        assert not cleared_numerator(rs, rest).is_zero()
    # c_a alone: u_a
    assert cleared_numerator(rs, {(0,): Fraction(3)}) == \
        Poly(2, {(0, 1): Fraction(3)})


ORACLE_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"]


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_x_reflection_commutator_matches_the_product(label, sign):
    # [x_k, s_b] read off the exchange formula equals the normal-form
    # product x_k s_b - s_b x_k
    rs = root_system(label)
    alg = HeckeAlgebra(rs, relation_sign=sign)
    nonzero = 0
    for k in range(rs.rank):
        for b, beta in enumerate(rs.positive_roots):
            s_b = rs.reflection_in_root(beta)
            want = alg.commutator(alg.x(k), alg.group(s_b))
            assert alg.x_reflection_commutator(k, b) == want, (k, b)
            nonzero += not hecke_is_zero(want)
    # and on these types [x_k, s_b] = 0 exactly when b_k = 0
    assert nonzero == sum(1 for beta in rs.positive_roots
                          for k in range(rs.rank) if beta[k])


def same_poly(got, want):
    """Equal terms with coefficients of the same types."""
    return got.nvars == want.nvars and got.terms == want.terms and all(
        type(got.terms[e]) is type(c) for e, c in want.terms.items())


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_packed_cleared_numerator_matches_products_on_the_tables(label):
    rs = root_system(label)
    for sign in (1, -1):
        alg = HeckeAlgebra(rs, relation_sign=sign)
        for i in range(rs.rank):
            for j in range(i + 1, rs.rank):
                for coeff in alg.commutator_table(i, j).values():
                    assert same_poly(cleared_numerator(rs, coeff),
                                     product_cleared_numerator(rs, coeff))


def test_packed_cleared_numerator_matches_products_at_random():
    # square-free c-monomials of degree at most 2, as the table's, with
    # int or Fraction values
    rng = random.Random(20261019)
    systems = [root_system(label) for label in ("A2", "B2", "G2", "A3", "B3")]
    nonzero = 0
    for trial in range(1200):
        rs = rng.choice(systems)
        npos = len(rs.positive_roots)
        coeff = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(sorted(rng.sample(range(npos), rng.randint(0, 2))))
            val = rng.choice([-3, -2, -1, 1, 2, 3])
            coeff[mono] = val if trial % 2 else Fraction(val, rng.randint(1, 5))
        got = cleared_numerator(rs, coeff)
        assert same_poly(got, product_cleared_numerator(rs, coeff)), coeff
        nonzero += not got.is_zero()
    assert nonzero >= 1000


def test_packed_cleared_numerator_reaches_the_top_digit():
    # two G2 roots whose first coordinates sum to K - 1 = 5: the product
    # of u_a (1 - u_b) and u_b (1 - u_a) reaches q^(a+b), its exponent
    # the largest the packing must keep apart from the others
    rs = root_system("G2")
    a, b = rs.positive_roots.index((3, 1)), rs.positive_roots.index((2, 1))
    coeff = {(a,): 1, (b,): 2}
    got = cleared_numerator(rs, coeff)
    assert got == Poly(2, {(3, 1): 1, (2, 1): 2, (5, 2): -3})
    assert same_poly(got, product_cleared_numerator(rs, coeff))


def test_integer_path_has_int_coefficients():
    # the normal forms and the commutator table only add and multiply
    # integers; a Fraction here means a stray conversion came back
    def all_int(poly):
        return all(type(c) is int for c in poly.terms.values())

    for label in ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]:
        rs = root_system(label)
        alg = HeckeAlgebra(rs)
        for k in range(rs.rank):
            for b in range(len(rs.positive_roots)):
                comm = alg.x_reflection_commutator(k, b)
                assert all(all_int(p) for p in comm.values()), (label, k, b)
        for i in range(rs.rank):
            for j in range(i + 1, rs.rank):
                for coeff in alg.commutator_table(i, j).values():
                    assert all(type(v) is int for v in coeff.values()), label
                    assert all_int(cleared_numerator(rs, coeff)), label


def folded_exchange(alg, k, word):
    """x_k * w for w the product of generators along the word, folded
    from the defining relation x_g s_i = s_i x_{g M_i} + t sign g_i,
    M_i the matrix of s_i and g a row of coefficients: the oracle of
    x_times."""
    rs, n = alg.rs, alg.n
    g = [int(j == k) for j in range(n)]
    u = rs.identity
    consts = {}  # group element -> integer coefficient of t
    for i in word:
        m = rs.simple_reflection(i)
        shifted = {}
        for z, c in consts.items():
            zs = int_mat_mul(z, m)
            shifted[zs] = shifted.get(zs, 0) + c
        shifted[u] = shifted.get(u, 0) + alg.relation_sign * g[i]
        consts = shifted
        g = [sum(g[l] * m[l][j] for l in range(n)) for j in range(n)]
        u = int_mat_mul(u, m)
    out = {u: sum((Poly.variable(alg.nvars, j) * c for j, c in enumerate(g)),
                  Poly(alg.nvars))}
    for z, c in consts.items():
        out = alg.add(out, {z: alg.tvar * c})
    return out


EXCHANGE_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3"]


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("label", EXCHANGE_TYPES)
def test_x_times_matches_folded_relation(label, sign):
    rs = root_system(label)
    alg = HeckeAlgebra(rs, relation_sign=sign)
    for v, word in rs.weyl_elements().items():
        for k in range(rs.rank):
            got = alg.x_times(k, alg.group(v))
            assert hecke_is_zero(alg.sub(got, folded_exchange(alg, k, word))), \
                (label, sign, word, k)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("label", EXCHANGE_TYPES)
def test_x_times_commute(label, sign):
    rs = root_system(label)
    alg = HeckeAlgebra(rs, relation_sign=sign)
    for v in rs.weyl_elements():
        for j in range(rs.rank):
            for k in range(j + 1, rs.rank):
                jk = alg.x_times(j, alg.x_times(k, alg.group(v)))
                kj = alg.x_times(k, alg.x_times(j, alg.group(v)))
                assert hecke_is_zero(alg.sub(jk, kj)), (label, sign, v, j, k)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C3", "C4", "D4", "G2", "F4"])
def test_x_reflection_commutators_have_x_degree_at_most_one(label, sign):
    # the only products check hecke forms: their normal forms never grow
    # in x, so multiply needs no degree guard
    rs = root_system(label)
    alg = HeckeAlgebra(rs, relation_sign=sign)
    for k in range(rs.rank):
        for b in range(len(rs.positive_roots)):
            for p in alg.x_reflection_commutator(k, b).values():
                assert max(sum(e[:rs.rank]) for e in p.terms) <= 1, (k, b)


def test_results_hold_no_zero_polynomial():
    rng = random.Random(20261019)
    for label in ["A1", "A2", "B2", "G2", "A3"]:
        rs = root_system(label)
        n = rs.rank
        words = list(rs.weyl_elements().values())
        for sign in (1, -1):
            alg = HeckeAlgebra(rs, relation_sign=sign)
            assert alg.move_across_word(Poly(n + 1), ()) == {}
            assert alg.multiply({}, alg.x(0)) == {}
            for _ in range(8):
                terms = {}
                for _ in range(3):  # x-degree at most 2, so a * a fits the cap
                    e = [0] * n + [rng.randint(0, 1)]
                    for _ in range(rng.randint(0, 2)):
                        e[rng.randrange(n)] += 1
                    terms[tuple(e)] = rng.randint(-3, 3)
                p = Poly(n + 1, terms)
                word = rng.choice(words)
                moved = alg.move_across_word(p, word)
                assert all(not q.is_zero() for q in moved.values())
                a = {rs.matrix_of_word(word): p}
                for prod in (alg.multiply(a, a), alg.commutator(a, alg.x(0))):
                    assert all(not q.is_zero() for q in prod.values())


def test_word_of_is_reduced():
    rs = root_system("B3")
    for w, word in rs.weyl_elements().items():
        found = rs.word_of(w)
        assert len(found) == len(word)
        assert rs.matrix_of_word(found) == w
    with pytest.raises(ValueError):
        rs.word_of(((1, 1, 0), (0, 1, 0), (0, 0, 1)))


def test_hecke_never_enumerates_the_group(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("whole Weyl group enumerated")
    monkeypatch.setattr(RootSystem, "weyl_elements", refuse)
    assert main(["check", "hecke", "--type", "F4"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    rs = root_system("D4")
    alg = HeckeAlgebra(rs)
    w0 = tuple(tuple(-x for x in row) for row in rs.identity)  # longest element
    assert len(rs.word_of(w0)) == len(rs.positive_roots) == 12
    prod = alg.multiply(alg.x(1), alg.group(w0))
    assert w0 in prod and len(prod) > 1
