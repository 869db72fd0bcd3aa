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
    assert ONE.variables() == frozenset()  # poly_gcd's variable-disjoint exit takes constants
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


def test_constructor_normalizes_pair_monomials():
    # Poly(terms) takes (variable, exponent) pairs in any order and gives
    # the Poly that arithmetic builds
    assert Poly({((2, 1), (1, 1)): 1}) == x1 * x2
    assert Poly({((1, 0), (2, 1)): 1}) == x2
    assert poly_str(Poly({((1, 0), (2, 1)): 1})) == "x2"
    assert Poly({((1, 1), (1, 1)): 1}) == x1 * x1
    assert Poly({((1, 0),): 4}) == Poly.const(4)
    # pairs giving one monomial add their coefficients; zero sums are dropped
    assert Poly({((1, 2),): 2, ((1, 1), (1, 1)): 3}) == Poly.const(5) * x1 * x1
    assert Poly({((1, 2),): 3, ((1, 1), (1, 1)): -3, ((2, 1),): 1, (): 0}) == x2
    assert Poly({((1, 2),): 3, ((1, 1), (1, 1)): -3}).terms == {}
    for bad in (((0, 1),), ((1, 1), (-2, 1)), ((1, -1),)):
        with pytest.raises(ValueError):
            Poly({bad: 1})


def test_variables_and_degree():
    p = x1 * x2 * x2 + x3
    assert p.variables() == frozenset({1, 2, 3})
    assert p.leading_monomial() == (1, 2, 2)


def test_grlex_leading_term():
    # degree first, then lower variable index wins ties
    p = x1 + x2 * x3
    assert p.leading_monomial() == (2, 3)
    q = x1 * x3 + x2 * x2
    assert q.leading_monomial() == (1, 3)
    with pytest.raises(ValueError):
        Poly.const(0).leading_monomial()
    assert (Poly.const(-3) * x2 * x3).leading_monomial() == (2, 3)
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


def test_icontent():
    assert Poly.const(0).icontent() == 0
    assert Poly.const(-7).icontent() == 7
    assert (Poly.const(-6) * x1 + Poly.const(9)).icontent() == 3
    assert (Poly.const(4) * x1 + Poly.const(6) * x2 + Poly.const(9)).icontent() == 1


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


def test_divexact_stops_at_max_terms():
    p = x1 * x1 * x1 * x1 - x2 * x2 * x2 * x2
    quotient = divexact(p, x1 - x2)
    assert len(quotient.terms) == 4
    assert divexact(p, x1 - x2, max_terms=4) == quotient
    with pytest.raises(polys.QuotientTooLong):
        divexact(p, x1 - x2, max_terms=3)
    # a step that does not divide raises ArithmeticError even past the limit
    with pytest.raises(ArithmeticError):
        divexact(x2 * x2 + x1, x1 + x2, max_terms=0)


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


def _gcdheu_spy(monkeypatch) -> list:
    """Record every call of _gcdheu, recursive ones included."""
    calls = []
    gcdheu = polys._gcdheu
    monkeypatch.setattr(polys, "_gcdheu", lambda p, q, v: calls.append((p, q)) or gcdheu(p, q, v))
    return calls


def _primitive(p):
    """p without its integer and monomial contents, as poly_gcd takes them out."""
    return divexact(p, Poly._raw({polys._monomial_content(p.terms): p.icontent()}))


def test_linear_exit_criterion():
    one = Poly.const(1)
    # degree 1 in x1, but a = x2 + 1 and b = x2 + 1 both have two terms
    assert not polys._linear_irreducible((x1 + one) * (x2 + one))
    assert polys._linear_irreducible(x1 * x3 + x2)
    assert not polys._linear_irreducible(x1 * x1 + x2 * x2)  # no variable of degree 1
    # a = x2^2 is one term; b = x2 + 3 has two
    assert polys._linear_irreducible(x1 * x2 * x2 + x2 + Poly.const(3))
    # b = x2*x3 is one term, a = x2 + x3 has two
    assert polys._linear_irreducible(x1 * x2 + x1 * x3 + x2 * x3)


def test_linear_exit_divides_or_is_coprime(monkeypatch):
    calls = _gcdheu_spy(monkeypatch)
    f = x1 * x3 + x2
    cof = x1 * x1 + x2 * x3 + Poly.const(3)
    six, four = Poly.const(6), Poly.const(4)
    # planted: the linear input divides the other, so it is the gcd
    assert poly_gcd(f * cof, f) == f
    assert poly_gcd(-f, f * cof) == f
    # contents are taken out first and multiply the answer back
    assert poly_gcd(six * x1 * f * cof, four * x1 * x2 * f) == Poly.const(2) * x1 * f
    # coprime: the gcd is the contents' gcd
    assert poly_gcd(f * f, cof) == ONE
    assert poly_gcd(six * x2 * x3 * cof, four * x3 * f) == Poly.const(2) * x3
    assert calls == []
    # neither input is linear with a one-term part: GCDHEU runs
    g = (x1 + ONE) * (x2 + ONE)
    assert poly_gcd(g * (x1 - x2), g * (x1 + x3)) == g
    assert calls


def _power(p, n):
    out = ONE
    for _ in range(n):
        out = out * p
    return out


def test_linear_exit_gives_up_on_a_long_quotient(monkeypatch):
    # s = x1 + ... + x9 qualifies, but dividing x1^20 + 1 or x1^20 + ... + x9^20
    # by it fails only after millions of quotient terms; the exit stops at
    # as many quotient terms as the two inputs have and leaves the pair to
    # GCDHEU, so every level of GCDHEU's recursion pays at most that much
    xs = [Poly.variable(i) for i in range(1, 10)]
    s = sum(xs[1:], xs[0])
    products = []
    monomial_mul = polys.monomial_mul

    def counted(a, b):
        products.append(1)
        if len(products) > 2000:
            raise AssertionError("trial division past its limit")
        return monomial_mul(a, b)

    calls = _gcdheu_spy(monkeypatch)
    monkeypatch.setattr(polys, "monomial_mul", counted)
    assert poly_gcd(_power(x1, 20) + ONE, s) == ONE
    assert poly_gcd(sum((_power(x, 20) for x in xs[1:]), _power(x1, 20)), s) == ONE
    # a quotient longer than the limit: x1 - x2 divides, GCDHEU finds it
    assert poly_gcd(_power(x1, 9) - _power(x2, 9), x1 - x2) == x1 - x2
    assert len(calls) >= 3


def test_heuristic_and_prs_agree_on_planted_factors(monkeypatch):
    rnd = random.Random(17)
    pairs = []
    for _ in range(300):
        common = random_poly(rnd, [1, 2, 3], nonzero=True)
        a = random_poly(rnd, [1, 2, 3], nonzero=True)
        b = random_poly(rnd, [1, 2, 3], nonzero=True)
        pairs.append((common * a, common * b))
    # Pairs past the exits for zero, constant, variable-disjoint and one-term
    # inputs reach GCDHEU unless the linear exit settles them; GCDHEU is
    # checked against the PRS directly on the primitive parts of those.
    past_exits = {}
    for i, (a, b) in enumerate(pairs):
        if len(a.terms) > 1 and len(b.terms) > 1 and a.variables() & b.variables():
            p, q = _primitive(a), _primitive(b)
            past_exits[i] = polys._linear_irreducible(p) or polys._linear_irreducible(q), p, q
    calls = _gcdheu_spy(monkeypatch)
    heuristic, reached, direct = [], [], {}
    with monkeypatch.context() as m:
        m.setattr(polys, "_prs_gcd", _no_prs)
        for a, b in pairs:
            calls.clear()
            heuristic.append(poly_gcd(a, b))
            reached.append(bool(calls))
        for i, (linear, p, q) in past_exits.items():
            if linear:
                direct[i] = normalize_sign(polys._gcdheu(p, q, max(p.variables() | q.variables())))
    assert reached == [i in past_exits and not past_exits[i][0] for i in range(len(pairs))]
    assert (sum(reached), len(direct)) == (88, 119)
    for i, h in direct.items():
        _, p, q = past_exits[i]
        assert h == normalize_sign(polys._prs_gcd(p, q)) == _primitive(heuristic[i])
    monkeypatch.setattr(polys, "GCDHEU_POINTS", 0)
    assert [poly_gcd(a, b) for a, b in pairs] == heuristic


def test_heuristic_needs_one_point_when_a_cofactor_is_a_monomial(monkeypatch):
    # The gcd's coefficients exceed the first xi/2, so its image cannot be
    # read back; the cofactor candidate reads back 1 at every level instead,
    # once the monomial contents are taken out.
    monkeypatch.setattr(polys, "GCDHEU_POINTS", 1)
    monkeypatch.setattr(polys, "_prs_gcd", _no_prs)
    calls = _gcdheu_spy(monkeypatch)
    rnd = random.Random(19)
    reached = 0
    for _ in range(20):
        g = random_poly(rnd, [1, 2, 3, 4, 5], max_terms=4, max_exp=3, max_coeff=10**6, nonzero=True)
        g = g * g
        a = random_poly(rnd, [1, 2, 3, 4, 5], nonzero=True)
        expected = normalize_sign(g)
        for p, q in ((g * a, g), (g * x1 * x1 * x3, g * x2 * Poly.variable(5))):
            calls.clear()
            assert poly_gcd(p, q) == expected
            # a square has no variable of degree 1, so only a one-term g
            # (a one-term input) keeps the pair away from GCDHEU
            assert bool(calls) == (len(g.terms) > 1)
            reached += bool(calls)
    assert reached == 30


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


def test_cached_hash_matches_the_term_set_hash():
    # equal polynomials whose terms were inserted in different orders hash
    # equal whichever is hashed first, and the cached value is the term set's
    rnd = random.Random(23)
    for _ in range(200):
        p = random_poly(rnd, [1, 2, 3], max_terms=5)
        items = list(p.terms.items())
        rnd.shuffle(items)
        for first, second in ((p, Poly._raw(dict(items))), (Poly._raw(dict(items)), p)):
            assert first == second
            assert hash(first) == hash(frozenset(first.terms.items()))
            assert hash(second) == hash(first) == hash(second)


def test_high_degree_gcd():
    # a monomial is one index per unit of degree, so x1^200 has 200 of them
    assert poly_gcd(_power(x1, 200) - ONE, _power(x1, 100) - ONE) == _power(x1, 100) - ONE
    assert poly_str(_power(x1, 200) * x2) == "x1^200*x2"


def test_evaluate_matches_substitution_through_poly_arithmetic():
    # _evaluate(p, 3, xi) against x3 -> xi term by term; the first inputs
    # have no x3, the last two have terms that cancel at xi = 7
    def substitute(p, xi):
        out = Poly.const(0)
        for m, c in p.terms.items():
            term = Poly.const(c)
            for u in m:
                term = term * (Poly.const(xi) if u == 3 else Poly.variable(u))
            out = out + term
        return out

    rnd = random.Random(31)
    seven = Poly.const(7)
    cases = [random_poly(rnd, [1, 2], max_terms=4) for _ in range(20)]
    cases += [random_poly(rnd, [1, 2, 3], max_terms=6, max_exp=3) for _ in range(200)]
    cases += [x1 * x3 - seven * x1, x2 * x3 * x3 - seven * seven * x2 + x1]
    for p in cases:
        for xi in (2, 7, -5, 1000):
            assert polys._evaluate(p, 3, xi) == substitute(p, xi)
    assert polys._evaluate(cases[-2], 3, 7).is_zero()
    assert polys._evaluate(cases[-1], 3, 7) == x1


# References: the monomial helpers as they were when a monomial was a tuple
# of (variable, exponent) pairs sorted by variable, every exponent positive.


def _pairs(m):
    return tuple((v, m.count(v)) for v in dict.fromkeys(m))


def _ref_grlex_desc_key(m):
    return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))


def _ref_lex_key(m):
    return tuple((-v, e) for v, e in m)


def _ref_mul(a, b):
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _ref_div(a, b):
    exps = dict(a)
    for v, e in b:
        have = exps.get(v, 0)
        if have < e:
            return None
        if have == e:
            del exps[v]
        else:
            exps[v] = have - e
    return tuple(sorted(exps.items()))


def _ref_content(monomials):
    rest = iter(monomials)
    exps = dict(next(rest))
    for m in rest:
        have = dict(m)
        exps = {v: min(e, have[v]) for v, e in exps.items() if v in have}
    return tuple(exps.items())


def _ref_poly_str(p):
    if p.is_zero():
        return "0"
    parts = []
    terms = [(_pairs(m), c) for m, c in p.terms.items()]
    for m, c in sorted(terms, key=lambda t: _ref_grlex_desc_key(t[0])):
        mag = abs(c)
        if m == ():
            body = str(mag)
        else:
            body = "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in m)
            if mag != 1:
                body = f"{mag}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _random_monomial(rnd):
    return tuple(v for v in range(1, 7) for _ in range(rnd.choice((0, 0, 0, 1, 1, 2, 4))))


def _sample_monomials():
    rnd = random.Random(29)
    monomials = [_random_monomial(rnd) for _ in range(3000)]
    for _ in range(300):
        monomials += random_poly(rnd, [1, 2, 3, 4], max_terms=5, max_exp=3).terms
    return monomials


def test_monomial_keys_give_the_pair_form_orders():
    monomials = list(set(_sample_monomials()))
    random.Random(31).shuffle(monomials)
    for key, ref in ((polys._grlex_desc_key, _ref_grlex_desc_key), (polys._lex_key, _ref_lex_key)):
        ordered = [_pairs(m) for m in sorted(monomials, key=key)]
        assert ordered == sorted(map(_pairs, monomials), key=ref)
    p = random_poly(random.Random(37), [1, 2, 3], max_terms=8, max_exp=3)
    assert _pairs(p.leading_monomial()) == min(map(_pairs, p.terms), key=_ref_grlex_desc_key)


def test_monomial_arithmetic_matches_the_pair_form():
    rnd = random.Random(41)
    monomials = _sample_monomials()
    divided = 0
    for _ in range(3000):
        a, b = rnd.choice(monomials), rnd.choice(monomials)
        pa, pb = _pairs(a), _pairs(b)
        ab = polys.monomial_mul(a, b)
        assert _pairs(ab) == _ref_mul(pa, pb) and ab == polys.monomial_mul(b, a)
        for num, den in ((a, b), (ab, b), (ab, a), (b, a)):
            q = polys.monomial_div(num, den)
            ref = _ref_div(_pairs(num), _pairs(den))
            assert (q if q is None else _pairs(q)) == ref
            divided += q is not None
        group = [a, b] + rnd.sample(monomials, rnd.randint(0, 3))
        assert _pairs(polys._monomial_content(group)) == _ref_content(map(_pairs, group))
        group = [polys.monomial_mul(ab, m) for m in group]  # a content of at least ab
        assert _pairs(polys._monomial_content(group)) == _ref_content(map(_pairs, group))
    assert divided > 6000


def test_poly_str_matches_a_pair_form_rendering():
    rnd = random.Random(43)
    for _ in range(500):
        p = random_poly(rnd, [1, 2, 3, 4], max_terms=6, max_exp=4, max_coeff=5)
        assert poly_str(p) == _ref_poly_str(p)
