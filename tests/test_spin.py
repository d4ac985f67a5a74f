"""Spin-chain matrices: Casimir tensor, commuting trig elements.

The library's operators are sparse rows; a dense Kronecker-product
reference, kept here, checks them entry by entry.
"""

import json
import random
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest

from trigbethe.field import CyclotomicField
from trigbethe.linalg import mat_mul
from trigbethe import spin
from trigbethe.spin import (E, F, H, HALF, ID2, combination, commute,
                            lowering_pair, mat_add, mat_equal, mat_scale,
                            pair_vector_terms, place, raising_pair,
                            trig_hamiltonian, zero_matrix)
from trigbethe.typea import (RationalTarget, TrigSource, marked_points,
                             reindex_map, sample_z)


# ----------------------------------------------------------------------
# dense reference: full row lists and Kronecker products


def kron(a, b):
    """Kronecker product, blocks of b scaled by entries of a."""
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def dense_add(a, b, s=1):
    return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(a, s):
    return [[s * x for x in row] for row in a]


def dense_place(factors, n):
    mats = [factors.get(slot, ID2) for slot in range(1, n + 1)]
    return reduce(kron, mats) if mats else [[Fraction(1)]]


def dense_casimir_pair(i, j, n):
    out = dense_add(dense_place({i: E, j: F}, n), dense_place({i: F, j: E}, n))
    return dense_add(out, dense_place({i: H, j: H}, n), Fraction(1, 2))


def dense_lowering_pair(i, j, n):
    return dense_place({i: F, j: E}, n)


def dense_trig_hamiltonian(theta, z, k, n):
    zk = z[k - 1]
    out = dense_scale(dense_place({k: theta}, n), 1 / zk)
    for j in range(1, n + 1):
        if j != k:
            out = dense_add(out, dense_casimir_pair(k, j, n), 1 / (zk - z[j - 1]))
            out = dense_add(out, dense_lowering_pair(k, j, n), -1 / zk)
    return out


def dense_represent_pair_vector(pairs, coeffs, theta, n):
    out = [[Fraction(0)] * 2 ** n for _ in range(2 ** n)]
    for (i, j), c in zip(pairs, coeffs):
        if i == 0:
            block = dense_place({j: theta}, n)
            for l in range(1, n + 1):
                if l != j:
                    block = dense_add(block, dense_lowering_pair(j, l, n), -1)
        else:
            block = dense_casimir_pair(i, j, n)
        out = dense_add(out, block, c)
    return out


def to_dense(m):
    return [[row.get(c, 0) for c in range(len(m))] for row in m]


def test_kron_shape_and_values():
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(3)]]
    assert kron(a, b) == [[Fraction(3), Fraction(6)], [Fraction(0), Fraction(3)]]
    c = kron(a, a)
    assert len(c) == 4 and c[0][3] == Fraction(4)


def test_sparse_operators_match_dense_reference():
    field = CyclotomicField(6)
    rng = random.Random(20261018)
    for n in (1, 2, 3, 4):
        z = sample_z(field, n, n)
        theta = [[Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))],
                 [Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))]]
        local = {1: theta, n: E} if n > 1 else {1: theta}
        assert to_dense(place(local, n)) == dense_place(local, n)
        for slot in range(1, n + 1):
            assert to_dense(place({slot: theta}, n)) == \
                dense_place({slot: theta}, n)
            assert to_dense(trig_hamiltonian(theta, z, slot, n)) == \
                dense_trig_hamiltonian(theta, z, slot, n)
            for other in range(1, n + 1):
                if other != slot:
                    omega = ("omega2", *sorted((slot, other)))
                    assert to_dense(combination([(HALF, omega)], n)) == \
                        dense_casimir_pair(slot, other, n)
                    assert to_dense(lowering_pair(slot, other, n)) == \
                        dense_lowering_pair(slot, other, n)
        pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
        coeffs = [field.from_rational(Fraction(rng.randint(-5, 5),
                                               rng.randint(1, 5)))
                  for _ in pairs]
        terms = pair_vector_terms(pairs, coeffs, theta, n)
        assert to_dense(combination(terms, n)) == \
            dense_represent_pair_vector(pairs, coeffs, theta, n)


def test_sparse_product_matches_dense_product():
    rng = random.Random(7)
    for n in (1, 2, 3):
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(2 ** n)]
             for _ in range(2 ** n)]
        b = [[Fraction(rng.randint(-2, 2)) for _ in range(2 ** n)]
             for _ in range(2 ** n)]
        sparse = [[{c: x for c, x in enumerate(row) if x} for row in m]
                  for m in (a, b)]
        assert to_dense(spin.mat_mul(*sparse)) == mat_mul(a, b)


def swap_matrix():
    m = zero_matrix(4)
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for k, (a, b) in enumerate(basis):
        m[basis.index((b, a))][k] = Fraction(1)
    return m


def test_casimir_is_swap_minus_half():
    omega = combination([(HALF, ("omega2", 1, 2))], 2)
    swap = swap_matrix()
    expected = mat_add(swap, mat_scale(place({}, 2), Fraction(-1, 2)))
    assert mat_equal(omega, expected)
    # symmetric in its two slots: the swap conjugates it to itself
    assert mat_equal(spin.mat_mul(spin.mat_mul(swap, omega), swap), omega)


def test_casimir_on_highest_vector():
    omega = combination([(HALF, ("omega2", 1, 2))], 2)
    vplus = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    out = [sum(x * vplus[c] for c, x in row.items()) for row in omega]
    assert out == [Fraction(1, 2), 0, 0, 0]


def test_lowering_raising_slots():
    low = lowering_pair(1, 2, 2)
    high = raising_pair(1, 2, 2)
    # f in slot 1, e in slot 2: sends v+(x)v- to v-(x)v+
    src = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    out = [sum(x * src[c] for c, x in row.items()) for row in low]
    assert out == [0, 0, Fraction(1), 0]
    assert mat_equal(high, lowering_pair(2, 1, 2))


def rand_theta(rng):
    return [[Fraction(rng.randint(-9, 9)), Fraction(0)],
            [Fraction(0), Fraction(rng.randint(-9, 9))]]


def test_trig_elements_commute():
    rng = random.Random(20260814)
    for n in (2, 3):
        for _ in range(4):
            z = []
            while len(set(z)) != n or 0 in z:
                z = [Fraction(rng.randint(1, 40), rng.randint(1, 9))
                     for _ in range(n)]
            theta = rand_theta(rng)
            hams = [trig_hamiltonian(theta, z, k, n) for k in range(1, n + 1)]
            for a in hams:
                for b in hams:
                    assert commute(a, b)


def test_trig_elements_need_distinct_coordinates():
    with pytest.raises(ZeroDivisionError):
        trig_hamiltonian(ID2, [Fraction(3), Fraction(3)], 1, 2)


def test_commutator_detects_noncommuting():
    a = place({1: [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]}, 1)
    b = place({1: [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]}, 1)
    assert not commute(a, b)
    comm = mat_add(spin.mat_mul(a, b), mat_scale(spin.mat_mul(b, a), -1))
    assert any(x != 0 for row in comm for x in row.values())


def test_represented_image_is_scaled_hamiltonian():
    # the reindexed trig element, represented on the chain, equals
    # -z_k times the k-th trig matrix, exactly
    field = CyclotomicField(6)
    rng = random.Random(99)
    for n in (2, 3):
        src = TrigSource(n, field)
        tgt = RationalTarget(n, field)
        for seed in (0, 1):
            z = sample_z(field, n, seed)
            theta = [[field.coerce(Fraction(rng.randint(-9, 9))), field.zero()],
                     [field.zero(), field.coerce(Fraction(rng.randint(-9, 9)))]]
            for k in range(1, n + 1):
                img = reindex_map(src, tgt, src.bethe(z, k))
                rep = combination(
                    pair_vector_terms(tgt.pairs, img, theta, n), n)
                ham = trig_hamiltonian(theta, z, k, n)
                want = mat_scale(ham, -z[k - 1])
                assert mat_equal(rep, want)


def test_represented_gaudin_elements_commute():
    field = CyclotomicField(6)
    tgt = RationalTarget(3, field)
    z = sample_z(field, 3, 5)
    pts = marked_points(field, z)
    theta = [[field.coerce(4), field.zero()], [field.zero(), field.coerce(-7)]]
    mats = [combination(pair_vector_terms(tgt.pairs, tgt.gaudin(pts, k),
                                          theta, 3), 3)
            for k in tgt.indices]
    for a in mats:
        for b in mats:
            assert commute(a, b)


def test_twist_at_places_single_slot():
    theta = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(5)]]
    m = place({2: theta}, 2)
    assert m[0][0] == 2 and m[1][1] == 5 and m[2][2] == 2 and m[3][3] == 5


def test_chain_operators_match_dense_reference():
    # the constant integer operators, and H_k assembled from them with
    # cleared denominators, entry by entry against Kronecker products
    units = {(a, b): [[int((r, c) == (a, b)) for c in (0, 1)] for r in (0, 1)]
             for a in (0, 1) for b in (0, 1)}
    field = CyclotomicField(6)
    rng = random.Random(4)
    for n in (2, 3):
        ops = spin.chain_operators(n)
        assert spin.chain_operators(n) is ops
        assert all(isinstance(x, int) for op in ops.values()
                   for row in op for x in row.values())
        for i in range(1, n + 1):
            for (a, b), unit in units.items():
                assert to_dense(ops["unit", i, a, b]) == dense_place({i: unit}, n)
            for j in range(1, n + 1):
                if j != i:
                    assert to_dense(ops["lower", i, j]) == \
                        dense_lowering_pair(i, j, n)
                if j > i:
                    assert to_dense(ops["omega2", i, j]) == \
                        dense_scale(dense_casimir_pair(i, j, n), 2)
        for seed in range(3):
            z = [v.as_rational() for v in sample_z(field, n, seed)]
            theta = [[rng.randint(-9, 9), 0], [0, rng.randint(-9, 9)]]
            for k in range(1, n + 1):
                terms = spin.hamiltonian_terms(theta, z, k, n)
                scale = lcm(*(c.denominator for c, _ in terms))
                assert to_dense(spin.integer_combination(terms, n)) == \
                    dense_scale(dense_trig_hamiltonian(theta, z, k, n), scale)
                assert to_dense(trig_hamiltonian(theta, z, k, n)) == \
                    dense_trig_hamiltonian(theta, z, k, n)


def test_commutativity_check_detects_flipped_lowering_sign(capsys,
                                                           monkeypatch):
    from trigbethe.cli import main
    terms = spin.hamiltonian_terms

    def flipped(theta, z, k, n):
        return [(-c if key[0] == "lower" else c, key)
                for c, key in terms(theta, z, k, n)]

    assert main(["check", "commutativity"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    monkeypatch.setattr(spin, "hamiltonian_terms", flipped)
    assert main(["check", "commutativity"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is False
    [entry] = data["checks"]
    assert entry["passed"] is False and "-z_k H_k" in entry["detail"]
