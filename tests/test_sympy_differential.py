"""Differential checks of the polynomial/fraction core against sympy."""

import operator
import random

import pytest

from exprcount import Add, Div, Leaf, Mul, Neg, Sub, canonicalize, evaluate, poly_gcd, polys
from genlib import random_poly, random_tree

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols("x1:5")
OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def to_sympy(p):
    """The exprcount Poly p as a sympy Poly over ZZ in x1..x4."""
    exps = {}
    for m, c in p.terms.items():
        e = [0] * len(GENS)
        for v in m:
            e[v - 1] += 1
        exps[tuple(e)] = c
    return sympy.Poly.from_dict(exps, *GENS, domain="ZZ")


def as_expr(f):
    """The exprcount Frac f as a sympy expression."""
    return to_sympy(f.num).as_expr() / to_sympy(f.den).as_expr()


def tree_to_sympy(tree):
    if isinstance(tree, Leaf):
        return GENS[tree.index - 1]
    if isinstance(tree, Neg):
        return -tree_to_sympy(tree.child)
    return OPS[type(tree)](tree_to_sympy(tree.left), tree_to_sympy(tree.right))


def _pairs(seed, count):
    # repeated variables on both sides, and a planted common factor half the
    # time so that the gcds are not mostly trivial
    rnd = random.Random(seed)
    for _ in range(count):
        a = random_poly(rnd, [1, 2, 3], nonzero=True)
        b = random_poly(rnd, [2, 3, 4], nonzero=True)
        if rnd.random() < 0.5:
            common = random_poly(rnd, [1, 2, 4], nonzero=True)
            a, b = a * common, b * common
        yield a, b


def _check_gcds_against_sympy():
    for a, b in _pairs(101, 300):
        ours = to_sympy(poly_gcd(a, b))
        theirs = sympy.gcd(to_sympy(a), to_sympy(b))
        assert ours in (theirs, -theirs)


def test_gcd_matches_sympy_up_to_sign():
    _check_gcds_against_sympy()


def test_prs_fallback_matches_sympy_up_to_sign(monkeypatch):
    # no evaluation points: every gcd past the cheap exits takes the PRS
    monkeypatch.setattr(polys, "GCDHEU_POINTS", 0)
    _check_gcds_against_sympy()


def _linear_pairs(seed, count):
    # f = a*x_v + b with a and b free of x_v and one of them one term, and
    # either a multiple of f or a random polynomial against it, in either order
    rnd = random.Random(seed)
    for _ in range(count):
        v = rnd.randint(1, 4)
        rest = [u for u in range(1, 5) if u != v]
        one_term = random_poly(rnd, rest, max_terms=1, nonzero=True)
        other_part = random_poly(rnd, rest, nonzero=True)
        a, b = (one_term, other_part) if rnd.random() < 0.5 else (other_part, one_term)
        f = a * polys.Poly.variable(v) + b
        if rnd.random() < 0.5:
            g = f * random_poly(rnd, [1, 2, 3, 4], nonzero=True)
        else:
            g = random_poly(rnd, [1, 2, 3, 4], max_terms=4, nonzero=True)
        yield (f, g) if rnd.random() < 0.5 else (g, f)


def test_linear_exit_matches_sympy_and_the_prs(monkeypatch):
    calls = []
    gcdheu = polys._gcdheu
    monkeypatch.setattr(polys, "_gcdheu", lambda p, q, v: calls.append(v) or gcdheu(p, q, v))
    branches = {"divides": 0, "coprime": 0}
    for a, b in _linear_pairs(404, 700):
        calls.clear()
        ours = poly_gcd(a, b)
        if len(a.terms) > 1 and len(b.terms) > 1 and a.variables() & b.variables():
            # past the earlier exits the linear input decides the pair: the
            # gcd is it (several terms) or the contents' gcd (one term)
            assert calls == []
            branches["divides" if len(ours.terms) > 1 else "coprime"] += 1
        theirs = sympy.gcd(to_sympy(a), to_sympy(b))
        assert to_sympy(ours) in (theirs, -theirs)
        assert ours == polys.normalize_sign(polys._prs_gcd(a, b))
    assert sum(branches.values()) >= 500
    assert min(branches.values()) >= 200, branches


def test_canonicalize_matches_sympy_cancel():
    for n, d in _pairs(202, 200):
        f = canonicalize(n, d)
        num, den = to_sympy(f.num), to_sympy(f.den)
        assert sympy.gcd(num, den).as_expr() in (1, -1)
        ratio = to_sympy(n).as_expr() / to_sympy(d).as_expr()
        p, q = sympy.fraction(sympy.cancel(ratio))
        assert sympy.expand(num.as_expr() * q - p * den.as_expr()) == 0


def test_evaluate_matches_sympy_on_random_trees():
    rnd = random.Random(303)
    checked = 0
    for _ in range(200):
        tree = random_tree(rnd, 4)
        try:
            f = evaluate(tree)
        except ZeroDivisionError:
            continue
        expected = sympy.cancel(tree_to_sympy(tree))
        assert sympy.cancel(as_expr(f) - expected) == 0
        checked += 1
    assert checked >= 150
