"""Fraction field: canonicalization, arithmetic, variables, derivatives."""

import random

import pytest

from exprcount import Frac, Poly, canonicalize
from exprcount.polys import ONE
from genlib import random_fraction

x1 = Poly.variable(1)
x2 = Poly.variable(2)
x3 = Poly.variable(3)
f1 = Frac.variable(1)
f2 = Frac.variable(2)
f3 = Frac.variable(3)
ZERO = Frac.const(0)


def test_canonicalize_cancels_common_factor():
    f = canonicalize(x1 * x2 + x1 * x3, x1)
    assert f.num == x2 + x3
    assert f.den == ONE


def test_canonicalize_sign_convention():
    f = canonicalize(-x1, -x2)
    assert (f.num, f.den) == (x1, x2)
    g = canonicalize(x1, Poly.const(-1))
    assert (g.num, g.den) == (-x1, ONE)


def test_canonicalize_idempotent():
    f = canonicalize(x1 * x2 + x1 * x3, -x1 * x2)
    again = canonicalize(f.num, f.den)
    assert (again.num, again.den) == (f.num, f.den)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        canonicalize(x1, Poly.const(0))


def test_zero_fraction_normal_form():
    f = canonicalize(Poly.const(0), -x2)
    assert f.is_zero()
    assert (f.num, f.den) == (Poly.const(0), ONE)


def test_add_with_common_denominator():
    f = f1 / f2 + f3
    assert f.num == x2 * x3 + x1
    assert f.den == x2


def test_mul_inverse_pair():
    assert (f1 / f2) * (f2 / f1) == Frac.const(1)


def test_reciprocal_swaps_the_canonical_pair():
    rnd = random.Random(77)
    one = Frac.const(1)
    for _ in range(200):
        f = random_fraction(rnd, [1, 2, 3], nonzero=True)
        assert f.reciprocal() == one / f
        assert f.reciprocal().reciprocal() == f
    with pytest.raises(ZeroDivisionError):
        canonicalize(Poly.const(0), x1).reciprocal()


def test_zero_operands_give_the_zero_pair():
    # no zero shortcut in +, *, / or canonicalize: the general cancellation
    # must give (0, 1), also from a denominator that leads negative
    rnd = random.Random(13)
    fractions = []
    while len(fractions) < 200:
        f = random_fraction(rnd, [1, 2, 3], nonzero=True)
        if len(f.den.terms) > 1:
            fractions.append(f)
    for f in fractions:
        assert ZERO + f == f and f + ZERO == f
        for got in (ZERO * f, f * ZERO, ZERO / f, f - f, canonicalize(Poly.const(0), -f.den)):
            assert got == ZERO
            assert (got.num, got.den) == (Poly.const(0), ONE)
        with pytest.raises(ZeroDivisionError):
            f / ZERO
    # equal denominators of 1 take the coprime branch of +, which the
    # multi-term denominators above never reach
    poly = canonicalize(x1 * x2 - x3, ONE)
    for got in (f1 - f1, poly - poly):
        assert (got.num, got.den) == (Poly.const(0), ONE)


def test_division_by_zero_fraction():
    with pytest.raises(ZeroDivisionError):
        f1 / Frac.const(0)


def test_sub_and_neg():
    assert f1 - f2 == f1 + (-f2)
    assert -(-f1) == f1


def test_variables():
    f = (f1 + f2 * f3) / f2
    assert f.variables() == frozenset({1, 2, 3})
    assert Frac.const(1).variables() == frozenset()
    assert (-Frac.variable(4)).variables() == frozenset({4})


def test_derivative_examples():
    assert (f1 * f2).derivative(1) == f2
    d = (f1 / f2).derivative(2)
    assert d.num == -x1
    assert d.den == x2 * x2
    # derivative w.r.t. an uncontained variable vanishes
    assert ((f1 + f2) / f3).derivative(5).is_zero()


def test_render_deterministic():
    f = canonicalize(x1 * x2 + x3, x2)
    assert f.render() == "(x1*x2 + x3)/(x2)"
    assert Frac.const(0).render() == "(0)/(1)"
    assert (-Frac.variable(4)).render() == "(-x4)/(1)"


def test_hash_consistent_with_eq():
    a = f1 / f2 + f3
    b = f3 + f1 / f2
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_operators_match_plain_cross_multiplication():
    # the cross-cancelling operators must agree with the textbook formulas
    # followed by one full canonicalization
    rnd = random.Random(77)
    for _ in range(800):
        f = random_fraction(rnd, [1, 2])
        g = random_fraction(rnd, [2, 3])
        assert f + g == canonicalize(f.num * g.den + g.num * f.den, f.den * g.den)
        assert f - g == canonicalize(f.num * g.den - g.num * f.den, f.den * g.den)
        assert f * g == canonicalize(f.num * g.num, f.den * g.den)
        if not g.is_zero():
            assert f / g == canonicalize(f.num * g.den, f.den * g.num)
