"""Integer lattices: Smith form, Hermite form, saturation, membership."""

import random
from fractions import Fraction

import pytest

from trigbethe.field import CyclotomicField
from trigbethe.lattice import (diagonal_insert, hermite_coordinates,
                               hermite_insert, hermite_normal_form, int_rank,
                               smith_normal_form)
from trigbethe.layers import enumerate_layers
from trigbethe.roots import root_system
from trigbethe.linalg import rank

from oracles import batch_hermite_form, det, mat_mul


def in_lattice(vec, rows):
    """Is vec an integer combination of the rows?"""
    return hermite_coordinates(hermite_normal_form(rows), vec) is not None


def unimodular(m):
    d = det([[Fraction(x) for x in row] for row in m])
    return d in (1, -1)


def rand_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_smith_fixture_divisor_two():
    # two long roots of the rank-2 short-long system span index 2
    sf = smith_normal_form([[1, 0], [1, 2]], ncols=2)
    assert sf.divisors == [1, 2]
    assert sf.torsion_divisors() == [2]


def test_smith_fixture_divisor_three():
    # the long triple of the rank-2 hexagonal system spans index 3
    sf = smith_normal_form([[0, 1], [3, 1], [3, 2]], ncols=2)
    assert sf.divisors == [1, 3]
    assert sf.torsion_divisors() == [3]


def test_smith_forms_of_the_same_rows_are_equal():
    rows = [[0, 1], [3, 1], [3, 2]]
    assert smith_normal_form(rows, ncols=2) == \
        smith_normal_form([r[:] for r in rows], ncols=2)
    assert smith_normal_form(rows, ncols=2) != \
        smith_normal_form([[1, 0], [1, 2]], ncols=2)


def test_smith_form_takes_the_column_count():
    # no rows: the zero lattice of Z^3, whose V is the identity
    sf = smith_normal_form([], ncols=3)
    assert sf.divisors == [] and sf.V == sf.Vinv == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="column count"):
        smith_normal_form([[1, 2]], ncols=3)


def test_smith_factorization_random():
    rng = random.Random(101)
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, m, n)
        sf = smith_normal_form(a, ncols=n)
        # a unimodular U with U @ A @ V = diag(divisors) exists: A @ V and
        # the diagonal have one row lattice, so one Hermite form
        diag = [[sf.divisors[i] if i == j and i < sf.rank else 0
                 for j in range(n)] for i in range(m)]
        assert batch_hermite_form(mat_mul(a, sf.V)) == batch_hermite_form(diag)
        assert unimodular(sf.V)
        assert mat_mul(sf.V, sf.Vinv) == [[int(i == j) for j in range(n)]
                                          for i in range(n)]
        for i in range(len(sf.divisors) - 1):
            if sf.divisors[i + 1]:
                assert sf.divisors[i + 1] % sf.divisors[i] == 0
        assert sum(1 for d in sf.divisors if d) == \
            rank([[Fraction(x) for x in row] for row in a])


def test_saturation_contains_lattice_with_right_index():
    rng = random.Random(102)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(m, 4)
        a = rand_int_matrix(rng, m, n, -6, 6)
        sf = smith_normal_form(a, ncols=n)
        sat = sf.Vinv[:sf.rank]
        assert len(sat) == sf.rank
        # d_i times the i-th saturation vector lies in the original lattice
        for d, v in zip([d for d in sf.divisors if d], sat):
            assert in_lattice([d * x for x in v], a)
            if d > 1:
                assert not in_lattice(list(v), a)


def test_in_lattice_roundtrip_random():
    rng = random.Random(103)
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        a = rand_int_matrix(rng, m, n, -5, 5)
        combo = [0] * n
        for row in a:
            c = rng.randint(-4, 4)
            combo = [x + c * y for x, y in zip(combo, row)]
        assert in_lattice(combo, a)
        # shifting off-lattice breaks membership when the shift escapes
        sf = smith_normal_form(a, ncols=n)
        if sf.rank < n:
            # add a vector outside the rational span
            outside = list(sf.Vinv[sf.rank])
            assert not in_lattice([x + y for x, y in zip(combo, outside)], a)


def test_hermite_canonical_under_row_operations():
    rng = random.Random(104)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        a = rand_int_matrix(rng, m, n, -6, 6)
        h1 = hermite_normal_form(a)
        # random unimodular integer left factor preserves the row lattice
        u = [[int(i == j) for j in range(m)] for i in range(m)]
        for _ in range(6):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                c = rng.randint(-3, 3)
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        b = mat_mul(u, a)
        assert hermite_normal_form(b) == h1
        for row in h1:
            assert in_lattice(list(row), a)


def test_hermite_shape():
    h = hermite_normal_form([[2, 4, 0], [0, 0, 3], [2, 4, 3]])
    # pivots positive, entries above pivots reduced, zero rows dropped
    assert h == ((2, 4, 0), (0, 0, 3))
    assert hermite_normal_form([[0, 0]]) == ()


def test_int_rank():
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 0], [0, 1]]) == 2
    assert int_rank([]) == 0


def test_hermite_insert_matches_full_form_on_root_lattices():
    # the layer walk's step: a Hermite form of roots plus one more root
    rng = random.Random(16)
    for label in ["B6", "F4", "G2"]:
        rs = root_system(label)
        pos = rs.positive_roots
        for _ in range(400):
            rows = batch_hermite_form(rng.sample(pos, rng.randint(0, rs.rank)))
            a = rng.choice(pos)
            assert hermite_insert(rows, a) == batch_hermite_form(rows + (a,))


def test_hermite_insert_matches_full_form_on_integer_vectors():
    rng = random.Random(17)
    for _ in range(1500):
        n = rng.randint(1, 5)
        rows = batch_hermite_form(rand_int_matrix(rng, rng.randint(0, 4), n))
        kind = rng.randrange(4)
        if kind == 0:
            v = [0] * n
        elif kind == 1:  # already in the lattice
            v = [sum(rng.randint(-3, 3) * r[j] for r in rows) for j in range(n)]
        else:
            v = [rng.randint(-12, 12) for _ in range(n)]
        assert hermite_insert(rows, v) == batch_hermite_form(list(rows) + [v])


def test_hermite_insert_cases():
    h = batch_hermite_form([[2, 4, 0], [0, 0, 3]])
    # the zero vector and a lattice vector leave the form alone
    assert hermite_insert(h, [0, 0, 0]) == h
    assert hermite_insert(h, [2, 4, -3]) == h
    assert hermite_insert((), [0, 0]) == ()
    # a non-unit pivot meets an entry it does not divide: one gcd step
    assert hermite_insert(((4, 1),), (6, 0)) == batch_hermite_form(
        [[4, 1], [6, 0]])
    assert hermite_insert(((4, 1),), (6, 0)) == ((2, 2), (0, 3))
    # a negative leading entry becomes a positive pivot
    assert hermite_insert(((0, 1),), (-3, 5)) == ((3, 0), (0, 1))
    assert hermite_insert((), (0, -2, 7)) == ((0, 2, -7),)
    # a gcd step makes a later entry of the vector nonzero: (2, 0) becomes
    # (0, 2) against the pivot row, so that entry must be read afresh
    assert hermite_insert(((4, -2),), (2, 0)) == ((2, 0), (0, 2))


def test_diagonal_insert_grows_the_form_of_the_lattice():
    # L = span(d_i Vinv[i], i < k) for a random unimodular V and random
    # divisors, grown by a random vector outside its Q-span
    rng = random.Random(23)
    grown = fallbacks = 0
    for _ in range(1500):
        n = rng.randint(1, 5)
        sf = smith_normal_form(rand_int_matrix(rng, n, n, -3, 3), ncols=n)
        vcols = [list(c) for c in zip(*sf.V)]
        vinv = [list(r) for r in sf.Vinv]
        k = rng.randrange(n)
        divisors = [rng.choice([1, 1, 2, 3, 4, 6]) for _ in range(k)]
        a = [rng.randint(-6, 6) for _ in range(n)]
        image = [sum(x * y for x, y in zip(a, col)) for col in vcols]
        if not any(image[k:]):
            continue
        before = [c[:] for c in vcols], [r[:] for r in vinv]
        lattice = [[d * x for x in vinv[i]] for i, d in enumerate(divisors)]
        out = diagonal_insert(divisors, vcols, vinv, image)
        assert (vcols, vinv) == before
        if out is None:
            fallbacks += 1
            assert any(x % d for x, d in zip(image, divisors))
            continue
        grown += 1
        d2, vcols2, vinv2 = out
        assert d2[:k] == divisors and d2[k] > 0
        assert vcols2[:k] == vcols[:k] and vinv2[:k] == vinv[:k]
        assert mat_mul(list(map(list, zip(*vcols2))), vinv2) == [
            [int(i == j) for j in range(n)] for i in range(n)]
        assert batch_hermite_form(
            [[d * x for x in vinv2[i]] for i, d in enumerate(d2)]) == \
            batch_hermite_form(lattice + [a])
    assert grown > 500 and fallbacks > 100


def test_diagonal_insert_cases():
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # a saturated lattice always grows, whatever the head of the image;
    # a zero tail entry first swaps the columns, and a negative g is
    # negated
    swap = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
    assert diagonal_insert([1], e, e, [5, 0, -3]) == ([1, 3], swap, swap)
    # a head entry that is a multiple of its divisor: 2 | 4
    swap = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert diagonal_insert([2], e, e, [4, 0, 6]) == ([2, 6], swap, swap)
    # two tail entries, neither dividing the other: one gcd step,
    # 2 = -1 * 4 + 1 * 6, so 2 (2, 3, 0) = (4, 6, 0)
    assert diagonal_insert([], e, e, [4, 6, 0]) == (
        [2], [[-1, 1, 0], [-3, 2, 0], [0, 0, 1]],
        [[2, 3, 0], [-1, -1, 0], [0, 0, 1]])
    # the head is not a multiple of the divisor: no diagonal form
    assert diagonal_insert([2], e, e, [1, 1, 0]) is None


def test_hermite_normal_form_matches_batch_oracle_on_integer_matrices():
    # the fold of hermite_insert from the empty form, zero rows included
    rng = random.Random(19)
    for _ in range(1500):
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, rng.randint(0, 5), n)
        if a and rng.random() < 0.2:
            a.insert(rng.randrange(len(a) + 1), [0] * n)
        assert hermite_normal_form(a) == batch_hermite_form(a)


def test_hermite_normal_form_matches_batch_oracle_on_layer_roots():
    # every layer's centralized roots, in the order the layer stores them
    for label, order in [("B4", 6), ("F4", 12)]:
        for layer in enumerate_layers(root_system(label),
                                      CyclotomicField(order)):
            rows = layer.roots_pos
            assert hermite_normal_form(rows) == batch_hermite_form(rows)
            if rows:
                assert hermite_insert(batch_hermite_form(rows[:-1]),
                                      rows[-1]) == batch_hermite_form(rows)


def test_hermite_coordinates_read_back_combinations():
    rng = random.Random(20)
    for _ in range(1000):
        n = rng.randint(1, 5)
        h = hermite_normal_form(rand_int_matrix(rng, rng.randint(0, 4), n))
        coeffs = [rng.randint(-6, 6) for _ in h]
        v = [sum(c * row[j] for c, row in zip(coeffs, h)) for j in range(n)]
        assert hermite_coordinates(h, v) == coeffs


def test_hermite_coordinates_reject_off_lattice_vectors():
    rng = random.Random(21)
    for _ in range(1000):
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, rng.randint(0, 4), n)
        h = hermite_normal_form(a)
        v = [rng.randint(-12, 12) for _ in range(n)]
        # v is in the lattice iff inserting it leaves the form alone
        inside = hermite_insert(h, v) == h
        assert (hermite_coordinates(h, v) is not None) == inside
        sf = smith_normal_form(a, ncols=n)
        for d, w in zip(sf.divisors, sf.Vinv):
            if d > 1:   # in the saturation, not in the lattice
                assert hermite_coordinates(h, w) is None


def test_hermite_coordinates_cases():
    h = ((2, 4, 0), (0, 0, 3))
    assert hermite_coordinates(h, (4, 8, -3)) == [2, -1]
    assert hermite_coordinates(h, (0, 0, 0)) == [0, 0]
    # a residue at a pivot
    assert hermite_coordinates(h, (1, 2, 0)) is None
    assert hermite_coordinates(h, (0, 0, 2)) is None
    # the only nonzero entry in a non-pivot column, before, between and
    # after the pivots
    assert hermite_coordinates(h, (0, 1, 0)) is None
    assert hermite_coordinates(((0, 1),), (1, 0)) is None
    assert hermite_coordinates(((1, 0),), (0, 5)) is None
    assert hermite_coordinates((), (0, 0)) == []
    assert hermite_coordinates((), (0, 1)) is None
