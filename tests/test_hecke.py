"""Deformed operator algebra: exchange rule, commuting family, images."""

import json
import random
from fractions import Fraction

import pytest

from trigbethe.bethe import HolonomySpace
from trigbethe.cli import main
from trigbethe.field import CyclotomicField
from trigbethe.hecke import (HeckeAlgebra, all_reduced_words,
                             cleared_numerator, q_power, sample_q)
from trigbethe.linalg import rank, row_space_equal
from trigbethe.poly import Poly
from trigbethe.roots import RootSystem, root_system


# coefficient profiles c(u) of the root power u = q^a.  The library family
# uses "standard", which is bethe.bethe_weight; "inverted" and "bethe" (the
# profile of the holonomy image) are negative and comparison controls.
PROFILES = {
    "standard": lambda u: u / (1 - u),
    "inverted": lambda u: 1 / (u - 1),
    "bethe": lambda u: u / (u - 1),
}


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
                    subst = subst + Poly.variable(alg.nvars, k,
                                                  Fraction(m[j][k]))
            rhs = {gen: subst}
            if i == j:
                rhs = alg.add(rhs, {alg.ident: alg.tvar})
            assert alg.is_zero(alg.sub(lhs, rhs))


def test_normal_form_word_independent():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    p = Poly.variable(alg.nvars, 0) * Poly.variable(alg.nvars, 1) + \
        Poly.variable(alg.nvars, 0, Fraction(3))
    for w in rs.weyl_elements():
        words = all_reduced_words(rs, w)
        forms = [alg.move_across_word(p, word) for word in words]
        for f in forms[1:]:
            assert alg.is_zero(alg.sub(f, forms[0]))
    long_words = all_reduced_words(rs, rs.matrix_of_word((0, 1, 0)))
    assert sorted(long_words) == [(0, 1, 0), (1, 0, 1)]


def test_group_multiplication_consistent():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    for w1, word1 in rs.weyl_elements().items():
        for w2, word2 in rs.weyl_elements().items():
            prod = alg.multiply(alg.group(w1), alg.group(w2))
            direct = alg.group(rs.matrix_of_word(word1 + word2))
            assert alg.is_zero(alg.sub(prod, direct))


def test_associativity_spot_check():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    s0 = rs.simple_reflection(0)
    a = alg.add(alg.x(0), alg.group(s0))
    b = alg.add(alg.x(1), alg.scale(alg.one(), Fraction(2)))
    c = alg.add(alg.group(rs.simple_reflection(1)), alg.x(0))
    left = alg.multiply(alg.multiply(a, b), c)
    right = alg.multiply(a, alg.multiply(b, c))
    assert alg.is_zero(alg.sub(left, right))


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
                        assert alg.is_zero(alg.commutator(fam[i], fam[j]))


def test_bethe_weight_family_does_not_commute():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    q = sample_q(rs, 0)
    fam = profile_family(alg, q, "bethe")
    assert not alg.is_zero(alg.commutator(fam[0], fam[1]))


def test_flipped_relation_sign_breaks_commutativity():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs, relation_sign=-1)
    q = sample_q(rs, 0)
    fam = alg.family(q)
    assert not alg.is_zero(alg.commutator(fam[0], fam[1]))


def test_singular_q_rejected():
    rs = root_system("A2")
    alg = HeckeAlgebra(rs)
    with pytest.raises(ZeroDivisionError):
        alg.bmo(0, (Fraction(1), Fraction(3)))


def test_degree_cap_guard():
    rs = root_system("A1")
    alg = HeckeAlgebra(rs)
    alg.degree_cap = 3
    acc = alg.one()
    with pytest.raises(RuntimeError):
        for _ in range(5):
            acc = alg.multiply(acc, alg.x(0))


def test_at_numeric_t_fixture():
    rs = root_system("A1")
    alg = HeckeAlgebra(rs)
    # q = 3: weight 3/(1-3) = -3/2; at t = 2 the reflection carries -3
    a = alg.bmo(0, (Fraction(3),))
    flat = alg.at_numeric_t(a, Fraction(2))
    s = rs.simple_reflection(0)
    assert flat == {(s, (0,)): Fraction(-3),
                    (alg.ident, (0,)): Fraction(3),
                    (alg.ident, (1,)): Fraction(1)}


def span_vectors(keyed):
    """Dense rational rows over the union of all keys, for span tests."""
    keys = sorted({k for d in keyed for k in d},
                  key=lambda kv: (kv[0], kv[1]))
    return [[d.get(k, Fraction(0)) for k in keys] for d in keyed]


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
        imgs = [alg.holonomy_image(space, v, tval)
                for v in space.bethe_subspace(point)]
        bethe = [alg.at_numeric_t(el, tval)
                 for el in profile_family(alg, q, "bethe")]
        std = [alg.at_numeric_t(el, tval) for el in alg.family(q)]
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
    flat = alg.at_numeric_t(comm, Fraction(7))
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
                        assert not alg.is_zero(want)
                        got = evaluate_table(alg, alg.commutator_table(i, j),
                                             weights)
                        assert alg.is_zero(alg.sub(got, want)), (label, sign)


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


def test_monomial_image_matches_direct_substitution():
    # oracle: x_k -> sum_j m[k][j] x_j built from the reflection matrix,
    # applied to the monomial by repeated multiplication (Poly.evaluate)
    rng = random.Random(20261018)
    for label in ["A2", "B2", "G2", "A3"]:
        rs = root_system(label)
        n = rs.rank
        for sign in (1, -1):
            alg = HeckeAlgebra(rs, relation_sign=sign)
            for i in range(n):
                m = rs.simple_reflection(i)
                values = [sum((Poly.variable(n + 1, j, m[k][j])
                               for j in range(n)), Poly(n + 1))
                          for k in range(n)] + [alg.tvar]
                for _ in range(6):
                    e = tuple(rng.randint(0, 3) for _ in range(n)) + \
                        (rng.randint(0, 2),)
                    want = Poly(n + 1, {e: 1}).evaluate(values)
                    assert alg.monomial_image(i, e) == want, (label, i, e)
                    assert alg.monomial_image(i, e) is alg.monomial_image(i, e)
                terms = {tuple(rng.randint(0, 2) for _ in range(n + 1)):
                         rng.randint(-5, 5) for _ in range(4)}
                p = Poly(n + 1, terms)
                assert alg.apply_generator_subst(p, i) == p.evaluate(values)


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
