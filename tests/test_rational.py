"""Fraction field: canonicalization, arithmetic, variables, derivatives."""

import random

import pytest

from exprcount import Frac, Poly, canonicalize, rational
from exprcount.polys import ONE, divexact
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


def test_sub_is_one_frac_operation_equal_to_adding_the_negation(monkeypatch):
    rnd = random.Random(31)
    pairs = [(random_fraction(rnd, [1, 2, 3]), random_fraction(rnd, [2, 3])) for _ in range(300)]
    expected = [a + (-b) for a, b in pairs]
    adds = []
    add = Frac.__add__

    def counted_add(a, b):
        adds.append((a, b))
        return add(a, b)

    monkeypatch.setattr(Frac, "__add__", counted_add)
    assert [a - b for a, b in pairs] == expected
    assert not adds


def test_frac_holds_only_its_pair():
    # no cached hash: a Frac's hash is its two polynomials', whose hashes
    # Poly caches
    assert Frac.__slots__ == ("num", "den")
    f = f1 / f2 + f3
    assert hash(f) == hash((f.num, f.den))


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


def test_no_gcd_with_a_one(monkeypatch):
    gcds = []
    poly_gcd = rational.poly_gcd
    monkeypatch.setattr(rational, "poly_gcd", lambda p, q: gcds.append((p, q)) or poly_gcd(p, q))
    p, q = f1 * f2 + f3, f1 - f2
    assert p.den is ONE and q.den is ONE
    assert (p + q, p - q, p * q) == (
        Frac._raw(x1 * x2 + x3 + x1 - x2, ONE),
        Frac._raw(x1 * x2 + x3 - x1 + x2, ONE),
        Frac._raw((x1 * x2 + x3) * (x1 - x2), ONE),
    )
    assert gcds == []
    # p / q: of the gcds (p.num, q.num) and (1, 1) only the first runs
    r = p / q
    assert r.num == x1 * x2 + x3 and r.den == x1 - x2
    assert gcds == [(p.num, q.num)]
    # (1/q) * q: of the gcds (1, 1) and (q.num, q.num) only the second runs
    gcds.clear()
    assert Frac._raw(ONE, q.num) * q == Frac.const(1)
    assert gcds == [(q.num, q.num)]
    # a 1 that is not the shared object, such as q.num / q.num, is one too
    one = divexact(q.num, q.num)
    assert one == ONE and one is not ONE
    gcds.clear()
    assert Frac._raw(p.num, one) + q == p + q
    assert Frac._raw(p.num, one) * q == p * q
    assert gcds == []
