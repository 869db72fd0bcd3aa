"""Polynomial layer: representation, term order, gcd, exact division."""

import random

import pytest

from exprcount import Poly, divexact, normalize_sign, poly_gcd, poly_str, polys
from exprcount.polys import ONE
from genlib import random_poly

x1 = Poly.variable(1)
x2 = Poly.variable(2)
x3 = Poly.variable(3)


def test_zero_and_constants():
    assert Poly.const(0).is_zero()
    assert (Poly.const(3) + Poly.const(-3)).is_zero()
    assert ONE.is_constant()
    # zero operands go through the general code of +, * and divexact
    zero, p = Poly.const(0), x1 * x2 - x3 + ONE
    assert zero + p == p and p + zero == p
    assert (p * zero).is_zero() and (zero * p).is_zero()
    assert divexact(zero, Poly.const(-2) * x1).is_zero()
    assert divexact(zero, x1 - x2).is_zero()
    with pytest.raises(ValueError):
        Poly.variable(0)


def test_no_zero_terms_stored():
    p = x1 + x2 - x1
    assert p == x2
    assert all(c != 0 for c in p.terms.values())


def test_variables_and_degree():
    p = x1 * x2 * x2 + x3
    assert p.variables() == frozenset({1, 2, 3})
    assert p.leading_monomial() == ((1, 1), (2, 2))


def test_grlex_leading_term():
    # degree first, then lower variable index wins ties
    p = x1 + x2 * x3
    assert p.leading_monomial() == ((2, 1), (3, 1))
    q = x1 * x3 + x2 * x2
    assert q.leading_monomial() == ((1, 1), (3, 1))
    with pytest.raises(ValueError):
        Poly.const(0).leading_monomial()
    assert (Poly.const(-3) * x2 * x3).leading_monomial() == ((2, 1), (3, 1))
    assert ONE.leading_monomial() == ()


def test_unit_arithmetic_returns_an_operand():
    # polys are immutable, so a product with 1, a quotient by ONE and the
    # gcd of variable-disjoint inputs hand back existing objects
    p = x1 * x2 - x3 + Poly.const(2)
    assert p * ONE is p and ONE * p is p
    assert Poly.const(1) * p is p and p * Poly.const(1) is p
    assert divexact(p, ONE) is p
    assert poly_gcd(x1, x2) is ONE
    assert poly_gcd(Poly.const(3), x1) is ONE
    assert poly_gcd(Poly.const(4), Poly.const(6)) == Poly.const(2)


def test_sub_equals_adding_the_negation():
    # same value and same term order as a + (-b), with cancellations
    rnd = random.Random(5)
    for _ in range(300):
        a = random_poly(rnd, [1, 2, 3])
        b = random_poly(rnd, [1, 2, 3]) if rnd.random() < 0.7 else a
        assert a - b == a + (-b)
        assert list((a - b).terms) == list((a + -b).terms)
    assert (x1 - x1).is_zero()


def test_derivative():
    p = x1 * x1 * x2 + x2
    d1 = p.derivative(1)
    assert d1 == Poly.const(2) * x1 * x2
    assert p.derivative(3).is_zero()


def test_str_deterministic():
    p = x2 * x3 - x1 + Poly.const(1)
    assert poly_str(p) == "x2*x3 - x1 + 1"
    assert poly_str(Poly.const(0)) == "0"
    assert poly_str(-x1) == "-x1"


def test_gcd_difference_of_squares():
    assert poly_gcd(x1 * x1 - x2 * x2, x1 + x2) == x1 + x2


def test_gcd_common_variable_factor():
    assert poly_gcd(x1 * x2, x1 * x3) == x1
    assert poly_gcd(x1 * x3, x1 * x1 * x3 * x3) == x1 * x3
    # one monomial against a polynomial: least exponents and integer content
    two, six = Poly.const(2), Poly.const(6)
    assert poly_gcd(six * x1 * x1 * x2, two * x1 * x2 * x3 + six * x1 * x1) == two * x1
    assert poly_gcd(x1 * x2 + x3, x1 * x2) == ONE


def test_gcd_with_zero_normalizes():
    assert poly_gcd(-x1, Poly.const(0)) == x1
    assert poly_gcd(Poly.const(0), -x1 - x2) == x1 + x2
    assert poly_gcd(Poly.const(0), Poly.const(0)).is_zero()


def test_gcd_integer_content():
    two_x_plus_two = Poly.const(2) * x1 + Poly.const(2)
    assert poly_gcd(two_x_plus_two, Poly.const(4)) == Poly.const(2)


def test_divexact_errors_on_inexact():
    with pytest.raises(ArithmeticError):
        divexact(x1 + Poly.const(1), x2)
    # a remainder left after the leading terms divided
    b = x1 * x2 + x3 * x3 - Poly.const(2)
    with pytest.raises(ArithmeticError):
        divexact(b * b * x1 + x3, b)
    # one-term divisors: a term misses a variable, a coefficient does not divide
    with pytest.raises(ArithmeticError):
        divexact(x1 * x2 + x1, x1 * x2)
    with pytest.raises(ArithmeticError):
        divexact(Poly.const(3) * x1 * x2, Poly.const(2) * x1)
    with pytest.raises(ZeroDivisionError):
        divexact(x1, Poly.const(0))


def test_divexact_roundtrip_random():
    rnd = random.Random(7)
    for _ in range(300):
        a = random_poly(rnd, [1, 2, 3])
        b = random_poly(rnd, [2, 3], nonzero=True)
        assert divexact(a * b, b) == a
    # one-term divisors c*m, divided term by term
    for _ in range(300):
        a = random_poly(rnd, [1, 2, 3])
        c = rnd.choice([-1, 1]) * rnd.randint(1, 6)
        m = Poly.const(c)
        for v in (1, 2, 3):
            for _ in range(rnd.randint(0, 2)):
                m = m * Poly.variable(v)
        assert divexact(a * m, m) == a
        assert divexact(a, Poly.const(-1)) == -a


def test_gcd_divides_both_and_is_symmetric_up_to_sign():
    rnd = random.Random(11)
    for _ in range(200):
        a = random_poly(rnd, [1, 2], max_exp=2)
        b = random_poly(rnd, [2, 3], max_exp=2)
        g = poly_gcd(a, b)
        assert g == poly_gcd(b, a)
        if not g.is_zero():
            divexact(a, g)
            divexact(b, g)
            assert g.leading_coeff() > 0


def test_gcd_recovers_planted_factor():
    rnd = random.Random(13)
    for _ in range(200):
        common = random_poly(rnd, [1, 2], nonzero=True)
        a = random_poly(rnd, [1, 3], nonzero=True)
        b = random_poly(rnd, [2, 3], nonzero=True)
        g = poly_gcd(common * a, common * b)
        # the planted factor divides the gcd, and the gcd divides both products
        assert poly_gcd(g, common) == normalize_sign(common)
        assert divexact(common * a, g) * g == common * a
        assert divexact(common * b, g) * g == common * b


def _no_prs(p, q):
    raise AssertionError("heuristic gcd failed at every point")


def test_heuristic_and_prs_agree_on_planted_factors(monkeypatch):
    rnd = random.Random(17)
    pairs = []
    for _ in range(300):
        common = random_poly(rnd, [1, 2, 3], nonzero=True)
        a = random_poly(rnd, [1, 2, 3], nonzero=True)
        b = random_poly(rnd, [1, 2, 3], nonzero=True)
        pairs.append((common * a, common * b))
    with monkeypatch.context() as m:
        m.setattr(polys, "_prs_gcd", _no_prs)
        heuristic = [poly_gcd(a, b) for a, b in pairs]
    monkeypatch.setattr(polys, "GCDHEU_POINTS", 0)
    assert [poly_gcd(a, b) for a, b in pairs] == heuristic


def test_heuristic_needs_one_point_when_a_cofactor_is_a_monomial(monkeypatch):
    # The gcd's coefficients exceed the first xi/2, so its image cannot be
    # read back; the cofactor candidate reads back 1 at every level instead,
    # once the monomial contents are taken out.
    monkeypatch.setattr(polys, "GCDHEU_POINTS", 1)
    monkeypatch.setattr(polys, "_prs_gcd", _no_prs)
    rnd = random.Random(19)
    for _ in range(20):
        g = random_poly(rnd, [1, 2, 3, 4, 5], max_terms=4, max_exp=3, max_coeff=10**6, nonzero=True)
        g = g * g
        a = random_poly(rnd, [1, 2, 3, 4, 5], nonzero=True)
        expected = normalize_sign(g)
        assert poly_gcd(g * a, g) == expected
        assert poly_gcd(g * x1 * x1 * x3, g * x2 * Poly.variable(5)) == expected


def test_prs_takes_as_many_contents_in_either_argument_order(monkeypatch):
    # p has the lower degree in x3; ordering the inputs by degree up front
    # spares the content of p, which is already primitive
    g = x1 * x3 + x2
    p = g * (x3 + x1)
    q = g * (x2 * x3 * x3 + x1 + ONE)
    calls = []
    content_in = polys._content_in
    monkeypatch.setattr(polys, "_content_in", lambda f, v: calls.append(f) or content_in(f, v))
    counts = []
    for a, b in ((p, q), (q, p)):
        calls.clear()
        assert normalize_sign(polys._prs_gcd(a, b)) == g
        counts.append(len(calls))
    assert counts == [3, 3]


def test_hash_consistent_with_eq():
    p = x1 * x2 + Poly.const(3)
    q = Poly.const(3) + x2 * x1
    assert p == q
    assert hash(p) == hash(q)


def test_cached_hash_matches_the_term_set_hash():
    # equal polynomials whose terms were inserted in different orders hash
    # equal whichever is hashed first, and the cached value is the term set's
    rnd = random.Random(23)
    for _ in range(200):
        p = random_poly(rnd, [1, 2, 3], max_terms=5)
        items = list(p.terms.items())
        rnd.shuffle(items)
        for first, second in ((p, Poly(dict(items))), (Poly(dict(items)), p)):
            assert first == second
            assert hash(first) == hash(frozenset(first.terms.items()))
            assert hash(second) == hash(first) == hash(second)
