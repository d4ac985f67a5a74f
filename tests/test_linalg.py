"""Exact linear algebra over any scalar obeying the field protocol."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from trigbethe.field import CyclotomicField, FieldElement
from trigbethe.linalg import mat_inverse, nullspace, rank, rref

from oracles import RatFunc, det, mat_mul, row_space_equal


def rand_matrix(rng, rows, cols, den=6):
    return [[Fraction(rng.randint(-8, 8), rng.randint(1, den))
             for _ in range(cols)] for _ in range(rows)]


def test_rref_canonical_fixture():
    rows = [[Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(1), Fraction(2), Fraction(4)]]
    red, pivots = rref(rows)
    assert pivots == [0, 2]
    assert red == [[Fraction(1), Fraction(2), Fraction(0)],
                   [Fraction(0), Fraction(0), Fraction(1)]]


def test_rref_invariant_under_row_operations():
    # the reduced form is a canonical invariant of the row space
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = rand_matrix(rng, m, n)
        # random invertible left factor
        while True:
            u = rand_matrix(rng, m, m, den=3)
            if det([row[:] for row in u]) != 0:
                break
        b = mat_mul(u, a)
        ra, _ = rref(a)
        rb, _ = rref(b)
        assert ra == rb
        assert row_space_equal(a, b)


def rank_via_minors(a):
    """Rank as the largest size of a nonvanishing square minor.

    Exponential-time oracle for small matrices, independent of the
    elimination path used by rref().
    """
    m = len(a)
    n = len(a[0]) if m else 0
    for size in range(min(m, n), 0, -1):
        for rows_ix in combinations(range(m), size):
            for cols_ix in combinations(range(n), size):
                sub = [[a[i][j] for j in cols_ix] for i in rows_ix]
                if not det(sub) == 0:
                    return size
    return 0


def test_rank_matches_minor_oracle():
    rng = random.Random(12)
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, m, n, den=4)
        assert rank([r[:] for r in a]) == rank_via_minors(a)


def test_nullspace_is_exact_kernel():
    rng = random.Random(13)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(2, 5)
        a = rand_matrix(rng, m, n)
        ker = nullspace(a)
        assert len(ker) == n - rank([r[:] for r in a])
        for v in ker:
            assert all(x == 0 for (x,) in mat_mul(a, [[x] for x in v]))


def test_express_in_rows_solves_or_refuses(express_in_rows):
    rows = [[Fraction(1), Fraction(0), Fraction(2)],
            [Fraction(0), Fraction(1), Fraction(-1)]]
    c = express_in_rows([Fraction(3), Fraction(2), Fraction(4)], rows)
    assert c == [Fraction(3), Fraction(2)]
    assert express_in_rows([Fraction(0), Fraction(0), Fraction(1)], rows) is None
    inside = [Fraction(2), Fraction(-2), Fraction(6)]
    assert rank(rows + [inside]) == rank(rows)


def test_mat_inverse_and_det():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 4)
        while True:
            a = rand_matrix(rng, n, n, den=3)
            if det([r[:] for r in a]) != 0:
                break
        inv = mat_inverse(a)
        assert mat_mul(a, inv) == [[int(i == j) for j in range(n)]
                                   for i in range(n)]
    with pytest.raises(ValueError):
        mat_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_det_multiplicative():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = rand_matrix(rng, n, n)
        b = rand_matrix(rng, n, n)
        assert det(mat_mul(a, b)) == det([r[:] for r in a]) * det([r[:] for r in b])


def test_works_over_cyclotomic_scalars():
    F = CyclotomicField(6)
    z = F.zeta(1)
    rows = [[z, F.one()], [F.one(), z - 1]]
    red, piv = rref([r[:] for r in rows])
    # det = z(z-1) - 1 = z^2 - z - 1 = -2 (using z^2 = z - 1): invertible
    assert piv == [0, 1]
    assert rank([r[:] for r in rows]) == 2
    ns = nullspace([[z, F.one()]])
    assert len(ns) == 1
    v = ns[0]
    assert (z * v[0] + v[1]).is_zero()


def reference_rref(rows):
    """Row reduction that divides the pivot row entry by entry (a field
    element, which has no quotient operator, by its inverse)."""
    mat = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, len(mat)) if not mat[i][c] == 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        head = mat[r][c]
        mat[r] = [x * head.inverse() if isinstance(head, FieldElement)
                  else x / head for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c] == 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def test_rref_matches_divide_per_entry_reference():
    rng = random.Random(16)
    F = CyclotomicField(6)
    eps = RatFunc.variable()

    def rand_field():
        return F.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(F.degree)])

    def rand_ratfunc():
        num = Fraction(rng.randint(-4, 4)) + rng.randint(-3, 3) * eps
        return num / (Fraction(rng.randint(1, 3)) + rng.randint(0, 2) * eps)

    makers = [lambda: Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
              rand_field, rand_ratfunc]
    for make in makers:
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[make() if rng.random() < 0.7 else make() * 0
                     for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.3:
                rows[-1] = [x + y for x, y in zip(rows[0], rows[-2])]
            red, piv = rref(rows)
            want, want_piv = reference_rref(rows)
            assert piv == want_piv
            assert red == want
            for row, p in zip(red, piv):
                assert row[p] == 1


def dense_rref(rows):
    """Row reduction that scales and eliminates across every column."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if not mat[i][c] == 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c] == 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


@pytest.mark.parametrize("scalar", ["fraction", "zeta6", "zeta12", "ratfunc"])
def test_rref_matches_dense_oracle(scalar):
    # sparse pivot rows against the dense elimination, including zero rows,
    # rank-deficient, wide and sparse matrices
    rng = random.Random(f"rref-{scalar}")
    eps = RatFunc.variable()
    fields = {"zeta6": CyclotomicField(6), "zeta12": CyclotomicField(12)}

    def make():
        if scalar in fields:
            F = fields[scalar]
            return F.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              if rng.random() < 0.6 else 0
                              for _ in range(F.degree)])
        if scalar == "ratfunc":
            num = Fraction(rng.randint(-4, 4)) + rng.randint(-3, 3) * eps
            return num / (Fraction(rng.randint(1, 3)) + rng.randint(0, 2) * eps)
        return Fraction(rng.randint(-8, 8), rng.randint(1, 6))

    # rational-function entries grow in degree with each elimination step
    max_rows = 3 if scalar == "ratfunc" else 5
    for trial in range(40):
        m, n = rng.randint(1, max_rows), rng.randint(1, 9)
        density = rng.choice([0.2, 0.5, 0.9])
        rows = [[make() if rng.random() < density else make() * 0
                 for _ in range(n)] for _ in range(m)]
        if trial % 4 == 0:
            rows[rng.randrange(m)] = [make() * 0 for _ in range(n)]
        if m > 2 and trial % 3 == 0:
            c = make()
            rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
        red, piv = rref(rows)
        want, want_piv = dense_rref(rows)
        assert piv == want_piv
        assert red == want
        assert [[type(x) for x in row] for row in red] == \
            [[type(x) for x in row] for row in want]
    assert rref([]) == dense_rref([]) == ([], [])


def _no_floats(value):
    if isinstance(value, list):
        return all(_no_floats(v) for v in value)
    return not isinstance(value, float)


def test_int_input_stays_exact():
    # an int pivot is inverted as a Fraction: plain int matrices give the
    # same results as their Fraction copies, and never a float
    rng = random.Random(5)
    cases = [[[3, 1], [1, 1]], [[3, 1, 1]], [[2, 4, 6], [1, 2, 4]]]
    cases += [[[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
              for n in (2, 3, 4) for _ in range(5)]
    for ints in cases:
        fracs = [[Fraction(x) for x in row] for row in ints]
        assert rref(ints) == rref(fracs) and _no_floats(rref(ints)[0])
        assert nullspace(ints) == nullspace(fracs)
        assert _no_floats(nullspace(ints))
        assert det(ints) == det(fracs) and not isinstance(det(ints), float)
        if len(ints) == len(ints[0]) and det(fracs) != 0:
            assert mat_inverse(ints) == mat_inverse(fracs)
            assert _no_floats(mat_inverse(ints))
    assert rref([[3, 1], [1, 1]])[0] == [[1, 0], [0, 1]]
    assert nullspace([[3, 1, 1]])[0] == [Fraction(-1, 3), 1, 0]
