"""Deformed operator algebra: exchange rule, commuting family, images."""

from fractions import Fraction

import pytest

from trigbethe.bethe import HolonomySpace
from trigbethe.field import CyclotomicField
from trigbethe.hecke import (HeckeAlgebra, all_reduced_words, q_power,
                             sample_q, span_vectors)
from trigbethe.linalg import rank, row_space_equal
from trigbethe.poly import Poly
from trigbethe.roots import root_system


# coefficient profiles c(u) of the root power u = q^a.  The library family
# uses "standard", which is bethe.bethe_weight; "inverted" and "bethe" (the
# profile of the holonomy image) are negative and comparison controls.
PROFILES = {
    "standard": lambda u: u / (1 - u),
    "inverted": lambda u: 1 / (u - 1),
    "bethe": lambda u: u / (u - 1),
}


def profile_family(alg, qvals, weight):
    """The degree-one family with coefficient PROFILES[weight](u) on the
    reflection in each positive root, built independently of bmo."""
    fam = []
    for k in range(alg.n):
        out = alg.x(k)
        for a in alg.rs.positive_roots:
            if a[k]:
                coeff = alg.tvar * (PROFILES[weight](q_power(qvals, a)) * a[k])
                out = alg.add(out, {alg.rs.reflection_in_root(a): coeff,
                                    alg.ident: coeff * Fraction(-1)})
        fam.append(out)
    return fam


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
