"""Polynomials, rational functions, and limits of row spaces at 0."""

from fractions import Fraction

import pytest

from trigbethe.field import CyclotomicField
from trigbethe.poly import Poly

from oracles import (RatFunc, UPoly, epsilon_limit_span, evaluate,
                     row_space_equal, valuation_at_zero)


def test_poly_expand_square():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x + y)
    assert p.terms == {(2, 0): Fraction(1), (1, 1): Fraction(2),
                       (0, 2): Fraction(1)}
    assert all(type(c) is int for c in p.terms.values())
    assert evaluate(p, [Fraction(2), Fraction(3)]) == 25
    assert max(sum(e) for e in p.terms) == 2


def test_poly_scalar_lifting_and_zero_pruning():
    x = Poly.variable(1, 0)
    assert (x - x).is_zero()
    assert (x * 0).is_zero()
    p = Fraction(1, 2) * x + 1
    assert p.terms == {(1,): Fraction(1, 2), (0,): Fraction(1)}
    F = CyclotomicField(6)
    q = x * F.zeta()
    assert q.terms[(1,)] == F.zeta()


def test_poly_unhashable():
    x = Poly.variable(1, 0)
    assert x + 1 == 1 + x
    # a constant equals its coefficient, so a hash would have to be its hash
    assert Poly.constant(1, 3) == 3
    for p in (x + 1, Poly.constant(1, 3)):
        with pytest.raises(TypeError):
            hash(p)


def test_upoly_divmod_property():
    import random
    rng = random.Random(3)
    for _ in range(100):
        p = UPoly([Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 6))])
        d = UPoly([Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))])
        if d.is_zero():
            continue
        q, r = p.divmod(d)
        assert q * d + r == p
        assert r.is_zero() or r.degree < d.degree


def test_upoly_gcd_monic():
    # gcd(x^2 - 1, x^2 - 2x + 1) = x - 1
    a = UPoly([Fraction(-1), Fraction(0), Fraction(1)])
    b = UPoly([Fraction(1), Fraction(-2), Fraction(1)])
    assert a.gcd(b) == UPoly([Fraction(-1), Fraction(1)])


def test_ratfunc_normalization():
    x = RatFunc.variable()
    f = (x * x - 1) / (x - 1)
    assert f == x + 1
    assert (x / x) == RatFunc.from_scalar(1)
    assert ((x - 1) / (2 * x - 2)) == RatFunc.from_scalar(Fraction(1, 2))


def test_ratfunc_arithmetic_and_poles():
    x = RatFunc.variable()
    f = 1 / (x - 1) + 1 / (x + 1)
    assert f == (2 * x) / (x * x - 1)
    assert f.evaluate(Fraction(2)) == Fraction(4, 3)
    assert f.at_zero() == 0
    with pytest.raises(ZeroDivisionError):
        (1 / x).at_zero()
    with pytest.raises(ZeroDivisionError):
        f.evaluate(Fraction(1))


def test_valuation_at_zero():
    x = RatFunc.variable()
    assert valuation_at_zero(x) == 1
    assert valuation_at_zero((x * x * x) / (x - x * x)) == 2
    assert valuation_at_zero(1 / x) == -1
    assert valuation_at_zero(RatFunc.from_scalar(5)) == 0


def test_limit_span_pushes_dependency_deeper():
    x = RatFunc.variable()
    one = RatFunc.from_scalar(1)
    zero = RatFunc.from_scalar(0)
    # values at 0 coincide but the pencil opens up to the full plane
    rows = [[one, x], [one, zero]]
    lim = epsilon_limit_span(rows)
    assert row_space_equal(lim, [[Fraction(1), Fraction(0)],
                                 [Fraction(0), Fraction(1)]])


def test_limit_span_handles_poles_and_dependence():
    x = RatFunc.variable()
    one = RatFunc.from_scalar(1)
    # a pole just rescales the row
    lim = epsilon_limit_span([[1 / x, one]])
    assert row_space_equal(lim, [[Fraction(1), Fraction(0)]])
    # rows dependent as functions collapse to one limit row
    lim2 = epsilon_limit_span([[one, x], [one + one, x + x]])
    assert row_space_equal(lim2, [[Fraction(1), Fraction(0)]])
    assert epsilon_limit_span([]) == []


def test_limit_span_over_cyclotomic_scalars():
    F = CyclotomicField(6)
    z = F.zeta()
    one = RatFunc.from_scalar(F.one())
    x = RatFunc.variable(F.one())
    rows = [[one * z, x * z]]
    lim = epsilon_limit_span(rows)
    assert len(lim) == 1 and lim[0][0].is_one() and lim[0][1].is_zero()
