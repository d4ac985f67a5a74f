"""Spin-chain matrices: Casimir tensor, commuting trig elements.

The library builds its sparse operators from their action on basis
indices, and scales each to integer coefficients; a dense
Kronecker-product reference over the single-site factors E, F, H
(tests/oracles.py) checks them entry by entry.
"""

import json
import random
from fractions import Fraction
from math import prod

import pytest

from trigbethe.field import CyclotomicField
from trigbethe import spin
from trigbethe.spin import (combination, commute, pair_vector_terms,
                            trig_hamiltonian)
from trigbethe.typea import (RationalTarget, TrigSource, integer_point,
                             marked_points, reindex_map, sample_z)

from oracles import (E, F, H, HALF, ID2, dense_add, dense_casimir_pair,
                     dense_chain_operator, dense_lowering_pair, dense_place,
                     dense_represent_pair_vector, dense_scale,
                     dense_trig_hamiltonian, kron, mat_mul)


def scale_of(z, k):
    """2 z_k prod_{j != k} (z_k - z_j), the factor of the k-th element."""
    return 2 * z[k - 1] * prod(z[k - 1] - v for j, v in enumerate(z, 1)
                               if j != k)


def to_dense(m):
    return [[row.get(c, 0) for c in range(len(m))] for row in m]


def to_sparse(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m]


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
        z = sample_z(n, n)
        theta = [[Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))],
                 [Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))]]
        for slot in range(1, n + 1):
            twist = [(theta[a][b], ("unit", slot, a, b))
                     for a in (0, 1) for b in (0, 1)]
            assert to_dense(combination(twist, n)) == \
                dense_place({slot: theta}, n)
            assert to_dense(trig_hamiltonian(theta, z, slot, n)) == \
                dense_scale(dense_trig_hamiltonian(theta, z, slot, n),
                            scale_of(z, slot))
            for other in range(1, n + 1):
                if other != slot:
                    omega = ("omega2", *sorted((slot, other)))
                    assert to_dense(combination([(HALF, omega)], n)) == \
                        dense_casimir_pair(slot, other, n)
                    lower = ("lower", slot, other)
                    assert to_dense(combination([(1, lower)], n)) == \
                        dense_lowering_pair(slot, other, n)
        pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
        coeffs = [field.from_rational(Fraction(rng.randint(-5, 5),
                                               rng.randint(1, 5)))
                  for _ in pairs]
        terms = pair_vector_terms(pairs, coeffs, theta, n)
        assert to_dense(combination(terms, n)) == dense_scale(
            dense_represent_pair_vector(pairs, coeffs, theta, n), 2)


def test_sparse_product_matches_dense_product():
    rng = random.Random(7)
    for n in (1, 2, 3):
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(2 ** n)]
             for _ in range(2 ** n)]
        b = [[Fraction(rng.randint(-2, 2)) for _ in range(2 ** n)]
             for _ in range(2 ** n)]
        assert to_dense(spin.mat_mul(to_sparse(a), to_sparse(b))) == \
            mat_mul(a, b)


def swap_matrix():
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return [{basis.index((b, a)): 1} for a, b in basis]


def test_casimir_is_swap_minus_half():
    omega = combination([(HALF, ("omega2", 1, 2))], 2)
    swap = swap_matrix()
    assert to_dense(omega) == dense_add(to_dense(swap), dense_place({}, 2),
                                        Fraction(-1, 2))
    # symmetric in its two slots: the swap conjugates it to itself
    assert spin.mat_mul(spin.mat_mul(swap, omega), swap) == omega


def test_casimir_on_highest_vector():
    omega = combination([(HALF, ("omega2", 1, 2))], 2)
    vplus = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    out = [sum(x * vplus[c] for c, x in row.items()) for row in omega]
    assert out == [Fraction(1, 2), 0, 0, 0]


def test_lowering_raising_slots():
    low = combination([(1, ("lower", 1, 2))], 2)
    high = combination([(1, ("lower", 2, 1))], 2)
    # f in slot 1, e in slot 2: sends v+(x)v- to v-(x)v+
    src = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    out = [sum(x * src[c] for c, x in row.items()) for row in low]
    assert out == [0, 0, Fraction(1), 0]
    # the reversed pair is the raising pair: e in slot 1, f in slot 2
    assert to_dense(high) == dense_place({1: E, 2: F}, 2)


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
    a, b = to_sparse(E), to_sparse(H)
    assert not commute(a, b)
    assert commute(a, a) and commute(b, to_sparse(ID2))
    comm = dense_add(to_dense(spin.mat_mul(a, b)),
                     to_dense(spin.mat_mul(b, a)), -1)
    assert any(x != 0 for row in comm for x in row)


def test_represented_image_is_scaled_hamiltonian():
    # the reindexed trig element, represented on the chain, equals -z_k
    # times the k-th trig matrix; scaled to integers at x, twice the image
    # times P_k is minus 2 x_k P_k H_k, exactly
    field = CyclotomicField(6)
    rng = random.Random(99)
    for n in (2, 3):
        src = TrigSource(n)
        tgt = RationalTarget(n)
        for seed in (0, 1):
            x = integer_point(sample_z(n, seed))
            theta = [[field.coerce(Fraction(rng.randint(-9, 9))), field.zero()],
                     [field.zero(), field.coerce(Fraction(rng.randint(-9, 9)))]]
            for k, vec in enumerate(src.bethe_span(x), start=1):
                img = reindex_map(src, tgt, vec)
                terms = pair_vector_terms(tgt.pairs, img, theta, n)
                ham = trig_hamiltonian(theta, x, k, n)
                assert combination(terms, n) == \
                    [{c: -v for c, v in row.items()} for row in ham]
                assert not any(combination(
                    terms + spin.hamiltonian_terms(theta, x, k, n), n))


def test_represented_gaudin_elements_commute():
    field = CyclotomicField(6)
    tgt = RationalTarget(3)
    z = sample_z(3, 5)
    pts = marked_points(z)
    theta = [[field.coerce(4), field.zero()], [field.zero(), field.coerce(-7)]]
    mats = [combination(pair_vector_terms(tgt.pairs, tgt.gaudin(pts, k),
                                          theta, 3), 3)
            for k in tgt.indices]
    for a in mats:
        for b in mats:
            assert commute(a, b)


def test_twist_at_places_single_slot():
    theta = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(5)]]
    m = combination([(theta[a][b], ("unit", 2, a, b))
                     for a in (0, 1) for b in (0, 1)], 2)
    assert m[0][0] == 2 and m[1][1] == 5 and m[2][2] == 2 and m[3][3] == 5


def entries_to_dense(entries, n):
    out = [[0] * 2 ** n for _ in range(2 ** n)]
    for r, c, x in entries:
        out[r][c] += x
    return out


def test_chain_operators_match_dense_reference():
    # the constant integer operators, stored as their nonzero entries, and
    # H_k assembled from them at integer points, entry by entry against
    # Kronecker products
    rng = random.Random(4)
    for n in (1, 2, 3, 4, 5):
        ops = spin.chain_operators(n)
        assert spin.chain_operators(n) is ops
        assert len(ops) == 4 * n + n * (n - 1) + n * (n - 1) // 2
        assert all(isinstance(x, int) and x != 0 for op in ops.values()
                   for _, _, x in op)
        for key, op in ops.items():
            assert len({(r, c) for r, c, _ in op}) == len(op), key
            assert entries_to_dense(op, n) == \
                [list(row) for row in dense_chain_operator(key, n)], key
        for seed in range(3):
            x = integer_point(sample_z(n, seed))
            theta = [[rng.randint(-9, 9), 0], [0, rng.randint(-9, 9)]]
            for k in range(1, n + 1):
                ham = trig_hamiltonian(theta, x, k, n)
                assert all(isinstance(v, int) for row in ham
                           for v in row.values())
                assert to_dense(ham) == dense_scale(
                    dense_trig_hamiltonian(theta, x, k, n), scale_of(x, k))


def test_combination_is_zero_exactly_when_the_operator_is():
    n = 2
    same = [(3, ("omega2", 1, 2)), (-5, ("lower", 1, 2)),
            (-3, ("omega2", 1, 2)), (5, ("lower", 1, 2))]
    assert not any(combination(same, n))
    assert any(combination(same[:3], n))
    # the identity in slot 1 minus the identity in slot 2: zero, although
    # no key's coefficients cancel
    identities = [(1, ("unit", 1, 0, 0)), (1, ("unit", 1, 1, 1)),
                  (-1, ("unit", 2, 0, 0)), (-1, ("unit", 2, 1, 1))]
    assert not any(combination(identities, n))


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
