"""Cyclotomic field: exact arithmetic, inversion, parsing."""

import random
from fractions import Fraction
from math import gcd

import pytest

from trigbethe.field import (DEFAULT_FIELD_ORDER, MAX_FIELD_ORDER,
                             CyclotomicField, cyclotomic_polynomial)


# ----------------------------------------------------------------------
# a test-local reference: Fraction coordinate tuples, products reduced
# modulo the cyclotomic polynomial by long division

PHI = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1),
       6: (1, -1, 1), 8: (1, 0, 0, 0, 1), 12: (1, 0, -1, 0, 1)}
ORDERS = sorted(PHI)


def ref_reduce(vec, n):
    mod, deg = PHI[n], len(PHI[n]) - 1
    vec = list(vec) + [Fraction(0)] * max(0, deg - len(vec))
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        for j, m in enumerate(mod):
            vec[i - deg + j] -= c * m
    return tuple(vec[:deg])


def ref_mul(a, b, n):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(prod, n)


def ref_lift(s, n):
    return ref_reduce([Fraction(s)], n)


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_neg(a):
    return tuple(-x for x in a)


def assert_canonical(x):
    assert all(type(v) is int for v in x.nums) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    if x.is_zero():
        assert x.den == 1
    assert len(x.nums) == x.field.degree


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_field_is_interned():
    assert CyclotomicField(6) is CyclotomicField(6)
    assert CyclotomicField(6) is not CyclotomicField(12)
    assert isinstance(CyclotomicField(6), CyclotomicField)


def test_field_order_is_bounded():
    assert CyclotomicField(MAX_FIELD_ORDER).order == MAX_FIELD_ORDER
    for order in (0, -3, MAX_FIELD_ORDER + 1, 20000):
        with pytest.raises(ValueError):
            CyclotomicField(order)
    assert 20000 not in CyclotomicField._cache


def test_default_order_six_identities():
    F = CyclotomicField(DEFAULT_FIELD_ORDER)
    z = F.zeta()
    assert (z ** 6).is_one()
    for k in range(1, 6):
        assert not (z ** k).is_one()
    # minimal polynomial z^2 - z + 1 = 0, hence z + 1/z = 1
    assert z * z - z + 1 == 0
    assert z + z ** -1 == 1


def test_roots_of_unity_by_divisor():
    F = CyclotomicField(6)
    for k in (1, 2, 3, 6):
        w = F.zeta(F.root_exponent(k))
        assert (w ** k).is_one()
        for j in range(1, k):
            assert not (w ** j).is_one()
    with pytest.raises(ValueError, match="enlarge the field order"):
        F.root_exponent(4)
    F12 = CyclotomicField(12)
    assert (F12.zeta(F12.root_exponent(4)) ** 4).is_one()


def test_field_axioms_random():
    F = CyclotomicField(6)
    rng = random.Random(20260814)

    def rand_elem():
        return F.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(F.degree)])

    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert (a * a.inverse()).is_one()
            assert a ** -2 == (a.inverse()) ** 2


def test_rational_detection_and_coercion():
    F = CyclotomicField(6)
    x = F.from_rational(Fraction(-7, 3))
    assert x.is_rational() and x.as_rational() == Fraction(-7, 3)
    assert not F.zeta().is_rational()
    with pytest.raises(ValueError):
        F.zeta().as_rational()
    assert F.coerce(5) == F.from_rational(Fraction(5))
    assert F.coerce(F.zeta()) is F.zeta() or F.coerce(F.zeta()) == F.zeta()


def test_int_and_fraction_mixing():
    F = CyclotomicField(6)
    z = F.zeta()
    assert 1 + z == z + 1
    assert 2 * z - z == z
    assert (z / 2) * 2 == z
    assert Fraction(1, 2) + z == z + Fraction(1, 2)
    assert sum([z, z, F.one()]) == 2 * z + 1


def test_str_parse_roundtrip_random():
    rng = random.Random(7)
    for n in ORDERS:
        F = CyclotomicField(n)
        for _ in range(100):
            x = F.element([Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                           if rng.random() < 0.7 else 0
                           for _ in range(F.degree)])
            assert F.parse(str(x)) == x
    F = CyclotomicField(6)
    assert F.parse("1/2 - 3*z") == F.from_rational(Fraction(1, 2)) - 3 * F.zeta()
    assert F.parse("0") == F.zero()


def fraction_str(x):
    """str() of a field element rendered from its Fraction coordinates."""
    parts = []
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        mag = abs(c)
        var = "z" if i == 1 else f"z^{i}"
        body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
def test_str_and_parse_match_fraction_oracle(n):
    # str() from integer numerators against the Fraction rendering; parse()
    # of random term lists (repeated and wrapped powers, unreduced p/q)
    # against element() of the Fraction sums
    rng = random.Random(f"str-{n}")
    F = CyclotomicField(n)

    def coeff():
        return rng.choice([1, -1, Fraction(rng.randint(-40, 40),
                                           rng.choice([1, 2, 3, 4, 6, 35]))])

    for _ in range(150):
        x = F.element([coeff() if rng.random() < 0.7 else 0
                       for _ in range(F.degree)])
        assert str(x) == fraction_str(x)
        assert F.parse(str(x)) == x
        assert_canonical(F.parse(str(x)))
        sums = [Fraction(0)] * n
        text = []
        for k in range(rng.randint(1, 6)):
            p, q = rng.randint(0, 30), rng.choice([1, 2, 4, 6, 9, 10])
            power = rng.randint(0, 2 * n)
            sign = rng.choice("+-")
            sums[power % n] += Fraction(p, q) * (-1 if sign == "-" else 1)
            term = f"{p}/{q}*z^{power}" if power else f"{p}/{q}"
            text.append(term if k == 0 and sign == "+" else f"{sign} {term}")
        parsed = F.parse(" ".join(text))
        assert parsed == F.element(sums)
        assert_canonical(parsed)
    for k in range(-6, 7):
        assert F.coerce(k) == F.from_rational(Fraction(k))
        assert_canonical(F.coerce(k))
        assert str(F.coerce(k)) == str(k)


def test_pow_modulus_reduction():
    # z^2 reduces to z - 1 at order 6: coefficients stay in degree < 2
    F = CyclotomicField(6)
    z = F.zeta()
    assert z ** 2 == z - 1
    assert F.zeta(2) == z - 1
    assert len(z.coeffs) == F.degree


def test_cross_field_operations_rejected():
    for n, m in [(6, 12), (3, 6), (4, 12), (1, 2), (5, 8)]:
        a = CyclotomicField(n).zeta()
        b = CyclotomicField(m).zeta()
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y, lambda x, y: x / y,
                   lambda x, y: x == y):
            with pytest.raises(ValueError):
                op(a, b)
            with pytest.raises(ValueError):
                op(b, a)


def test_unhashable_and_equal():
    F = CyclotomicField(6)
    z = F.zeta()
    assert z == z + 0 == z * 1
    assert F.one() == F.from_rational(Fraction(1)) == 1
    # equal to the int 1, so a hash would have to be hash(1)
    for x in (z, F.one()):
        with pytest.raises(TypeError):
            hash(x)


def test_field_matches_fraction_reference():
    rng = random.Random(20261018)
    for n in ORDERS:
        F = CyclotomicField(n)
        deg = len(PHI[n]) - 1
        assert F.degree == deg and F.modulus == PHI[n]

        def rand_coeffs():
            return [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                    if rng.random() < 0.8 else Fraction(0) for _ in range(deg)]

        def scalars():
            return [rng.randint(-9, 9), Fraction(rng.randint(-9, 9),
                                                 rng.randint(1, 9))]

        one = ref_lift(1, n)
        for _ in range(60):
            ca, cb = rand_coeffs(), rand_coeffs()
            a, b = F.element(ca), F.element(cb)
            ra, rb = tuple(ca), tuple(cb)
            for x in (a, b, a + b, a - b, a * b, -a):
                assert_canonical(x)
            assert (a + b).coeffs == ref_add(ra, rb)
            assert (a - b).coeffs == ref_add(ra, ref_neg(rb))
            assert (a * b).coeffs == ref_mul(ra, rb, n)
            # an element of longer length reduces like the reference
            long = rand_coeffs() + rand_coeffs() + rand_coeffs()
            assert F.element(long).coeffs == ref_reduce(long, n)
            for s in scalars():
                rs = ref_lift(s, n)
                for x in (a + s, s + a, a - s, s - a, a * s, s * a):
                    assert_canonical(x)
                assert (a + s).coeffs == (s + a).coeffs == ref_add(ra, rs)
                assert (a - s).coeffs == ref_add(ra, ref_neg(rs))
                assert (s - a).coeffs == ref_add(rs, ref_neg(ra))
                assert (a * s).coeffs == (s * a).coeffs == ref_mul(ra, rs, n)
                assert (a == s) == (ra == rs) and (s == a) == (ra == rs)
                if s:
                    assert_canonical(a / s)
                    assert ref_mul((a / s).coeffs, rs, n) == ra
                if not a.is_zero():
                    assert_canonical(s / a)
                    assert ref_mul((s / a).coeffs, ra, n) == rs
            if b.is_zero():
                continue
            q = a / b
            assert_canonical(q)
            assert ref_mul(q.coeffs, rb, n) == ra
            inv = b.inverse()
            assert_canonical(inv)
            assert b * inv == 1 and (b * inv).is_one()
            assert ref_mul(inv.coeffs, rb, n) == one
            k = rng.randint(1, 4)
            power = rb
            for _ in range(k - 1):
                power = ref_mul(power, rb, n)
            assert (b ** k).coeffs == power
            assert ref_mul((b ** -k).coeffs, power, n) == one
        assert_canonical(F.zero())
        assert_canonical(F.element([0] * deg))
        assert F.element([Fraction(2, 4)] + [0] * (deg - 1)) == Fraction(1, 2)


def test_parse_rejects_malformed_text():
    F = CyclotomicField(6)
    for text in ["zz", "z junk", "2*", "", "  ", "1 + + z", "+", "- ",
                 "1/0", "z^", "*z", "2 z", "z*2", "1 -", "--1", "1/2/3",
                 "z^2^3", "0.5", "x", "1 +"]:
        with pytest.raises(ValueError):
            F.parse(text)
    for value in [3, 0.1, None, ["1"]]:
        with pytest.raises(ValueError):
            F.parse(value)
    # accepted spellings beyond the str() form: spacing, a leading sign,
    # repeated and high powers (reduced mod N)
    assert F.parse(" -z+ 2 * z ") == F.zeta()
    assert F.parse("+3") == 3
    assert F.parse("z^7") == F.zeta()
    assert F.parse("z^0") == 1


def schoolbook_product(a, b, modulus):
    """The product of integer coordinate tuples a and b: their full
    convolution, then long division by the monic polynomial modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    deg = len(modulus) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        for j, m in enumerate(modulus):
            prod[i - deg + j] -= c * m
    return prod[:deg] + [0] * (deg - len(prod))


def test_product_table_matches_schoolbook_product():
    # every order up to 60 (E8 needs 60): dense and sparse operands,
    # rational operands on either side, and the inverse, whose norm reads
    # only the constant row of the table
    rng = random.Random(20261019)
    for n in range(1, 61):
        F = CyclotomicField(n)
        mod = cyclotomic_polynomial(n)
        deg = len(mod) - 1

        def operand(nums):
            # nums over a random denominator, and the element it names
            den = rng.randint(1, 9)
            return nums, den, F.element([Fraction(x, den) for x in nums])

        def rand_nums(density):
            return [rng.randint(-40, 40) if rng.random() < density else 0
                    for _ in range(deg)]

        for density in (1.0, 0.5, 0.2):
            a, b = operand(rand_nums(density)), operand(rand_nums(density))
            r = operand([rng.randint(-40, 40)] + [0] * (deg - 1))
            assert r[2].is_rational()
            for (xn, xd, x), (yn, yd, y) in [(a, b), (b, a), (a, r), (r, a),
                                             (r, r)]:
                prod = x * y
                assert_canonical(prod)
                want = schoolbook_product(xn, yn, mod)
                assert prod.coeffs == tuple(Fraction(v, xd * yd)
                                            for v in want), n
        # one inverse per order: at a prime order near 60 it multiplies
        # more than 50 dense conjugates
        if not a[2].is_zero():
            assert (a[2] * a[2].inverse()).is_one(), n
