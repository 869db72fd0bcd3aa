"""Seeded random generators shared by the property suites."""

from __future__ import annotations

import random

from exprcount import Add, Div, ExprTree, Frac, Leaf, Mul, Neg, Poly, Sub, canonicalize


def random_poly(
    rnd: random.Random,
    variables: list[int],
    max_terms: int = 3,
    max_exp: int = 2,
    max_coeff: int = 4,
    nonzero: bool = False,
) -> Poly:
    terms: dict = {}
    for _ in range(rnd.randint(0 if not nonzero else 1, max_terms)):
        mono = []
        for v in variables:
            e = rnd.randint(0, max_exp)
            if e:
                mono.append((v, e))
        c = rnd.randint(-max_coeff, max_coeff)
        if c:
            key = tuple(sorted(mono))
            terms[key] = terms.get(key, 0) + c
    p = Poly(terms)
    if nonzero and p.is_zero():
        return Poly.const(rnd.randint(1, max_coeff))
    return p


def random_fraction(
    rnd: random.Random, variables: list[int], nonzero: bool = False
) -> Frac:
    num = random_poly(rnd, variables, nonzero=nonzero)
    den = random_poly(rnd, variables, nonzero=True)
    f = canonicalize(num, den)
    if nonzero and f.is_zero():
        return Frac.const(rnd.randint(1, 4))
    return f


def random_tree(rnd: random.Random, depth: int, max_index: int = 4) -> ExprTree:
    """Tree of at most ``depth`` levels; leaves repeat among x1..x<max_index>."""
    if depth == 0 or rnd.random() < 0.3:
        return Leaf(rnd.randint(1, max_index))
    kind = rnd.choice(["add", "sub", "mul", "div", "neg"])
    if kind == "neg":
        return Neg(random_tree(rnd, depth - 1, max_index))
    ctor = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
    return ctor(random_tree(rnd, depth - 1, max_index), random_tree(rnd, depth - 1, max_index))


def disjoint_blocks(rnd: random.Random, count: int, width: int = 2) -> list[list[int]]:
    """Disjoint variable-index blocks, e.g. [[1,2],[3,4],[5,6]]."""
    start = rnd.randint(1, 3)
    blocks = []
    for i in range(count):
        lo = start + i * width
        blocks.append(list(range(lo, lo + width)))
    return blocks
