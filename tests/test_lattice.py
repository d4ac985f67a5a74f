"""Integer lattices: Smith form, Hermite form, saturation, membership."""

import random
from fractions import Fraction

from trigbethe.field import CyclotomicField
from trigbethe.lattice import (hermite_coordinates, hermite_insert,
                               hermite_normal_form, int_rank,
                               smith_normal_form)
from trigbethe.layers import RootAmbient, enumerate_layers
from trigbethe.roots import root_system
from trigbethe.linalg import det, mat_mul, rank


def batch_hermite_form(rows):
    """Row-style Hermite form of a whole matrix at once, column by column:
    the independent oracle for the insertion-built hermite_normal_form."""
    M = [list(map(int, r)) for r in rows if any(r)]
    if not M:
        return ()
    n = len(M[0])
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, len(M)) if M[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(M[i][c]))
            M[r], M[piv] = M[piv], M[r]
            clean = True
            for i in range(r + 1, len(M)):
                if M[i][c]:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    if M[i][c]:
                        clean = False
            if clean:
                break
        if r < len(M) and M[r][c]:
            if M[r][c] < 0:
                M[r] = [-a for a in M[r]]
            for i in range(r):  # entries above a pivot reduced into [0, pivot)
                q = M[i][c] // M[r][c]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            r += 1
            if r == len(M):
                break
    return tuple(tuple(row) for row in M[:r])


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
    sf = smith_normal_form([[1, 0], [1, 2]])
    assert sf.divisors == [1, 2]
    assert sf.torsion_divisors() == [2]


def test_smith_fixture_divisor_three():
    # the long triple of the rank-2 hexagonal system spans index 3
    sf = smith_normal_form([[0, 1], [3, 1], [3, 2]])
    assert sf.divisors == [1, 3]
    assert sf.torsion_divisors() == [3]


def test_smith_factorization_random():
    rng = random.Random(101)
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, m, n)
        sf = smith_normal_form(a)
        # U @ A @ V is the diagonal of the divisors
        left = mat_mul(sf.U, a)
        prod = mat_mul(left, sf.V)
        for i in range(m):
            for j in range(n):
                want = sf.divisors[i] if i == j and i < len(sf.divisors) else 0
                assert prod[i][j] == want
        assert unimodular(sf.U) and unimodular(sf.V)
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
        sf = smith_normal_form(a)
        sat = sf.saturation_basis()
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
        sf = smith_normal_form(a)
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
        amb = RootAmbient.from_root_system(root_system(label),
                                           CyclotomicField(order))
        for layer in enumerate_layers(amb):
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
        for d, w in zip(sf.divisors, sf.saturation_basis()):
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
