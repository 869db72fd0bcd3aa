"""Properties over seeded random expression trees on x1..x6 (genlib)."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

from exprcount import Leaf, Neg, Sub, eliminate_subtraction, evaluate, parse, render
from exprcount.cli import main
from genlib import random_tree
from test_expressions import _mirror


def _value(tree):
    try:
        return evaluate(tree)
    except ZeroDivisionError:
        return ZeroDivisionError


def _has_sub(tree):
    if isinstance(tree, Leaf):
        return False
    if isinstance(tree, Neg):
        return _has_sub(tree.child)
    return isinstance(tree, Sub) or _has_sub(tree.left) or _has_sub(tree.right)


def _has_stacked_neg(tree):
    if isinstance(tree, Leaf):
        return False
    if isinstance(tree, Neg):
        return isinstance(tree.child, Neg) or _has_stacked_neg(tree.child)
    return _has_stacked_neg(tree.left) or _has_stacked_neg(tree.right)


def _equiv(lhs, rhs):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["equiv", "--", render(lhs), render(rhs)])
    return code, out.getvalue()


def test_parse_inverts_render():
    rnd = random.Random(6)
    identity = parse(" + ".join(f"x{i}" for i in range(1, 7)))[1]
    for _ in range(500):
        tree = random_tree(rnd, 4, 6)
        assert parse(render(tree), identity)[0] == tree


def test_equiv_is_symmetric():
    # two independent random trees are almost never equivalent, so every
    # second pair is a tree and its mirror image, equivalent by construction
    rnd = random.Random(32)
    equivalent = 0
    for i in range(400):
        a = random_tree(rnd, 4, 6)
        b = _mirror(a) if i % 2 else random_tree(rnd, 4, 6)
        fwd = _equiv(a, b)
        assert fwd == _equiv(b, a)
        equivalent += fwd == (0, "equivalent\n")
    assert equivalent >= 160


def test_eliminate_subtraction_keeps_value():
    # a repeated variable can make a divisor formally zero; removing
    # subtraction must keep it zero, so both sides raise
    rnd = random.Random(99)
    zero_divisions = 0
    for _ in range(400):
        tree = random_tree(rnd, 4)
        flat = eliminate_subtraction(tree)
        assert not _has_sub(flat)
        assert not _has_stacked_neg(flat)
        assert _value(flat) == _value(tree)
        zero_divisions += _value(tree) is ZeroDivisionError
    assert 0 < zero_divisions < 100
