"""Expression trees: parsing, rendering, subtraction removal, evaluation."""

import random

import pytest

from exprcount import (
    Add,
    Div,
    ExprSyntaxError,
    Leaf,
    Mul,
    NameMap,
    Neg,
    Sub,
    eliminate_subtraction,
    evaluate,
    parse,
    render,
)
from exprcount.expressions import MAX_DEPTH
from genlib import random_tree


def test_parse_unary_minus_in_parens():
    tree, names = parse("a-(-b)")
    assert tree == Sub(Leaf(1), Neg(Leaf(2)))
    assert [names.name_of(i) for i in (1, 2, 3)] == ["a", "b", "x3"]


def test_parse_precedence():
    tree, _ = parse("(a*b)/c")
    assert tree == Div(Mul(Leaf(1), Leaf(2)), Leaf(3))
    tree, _ = parse("a+b*c")
    assert tree == Add(Leaf(1), Mul(Leaf(2), Leaf(3)))
    tree, _ = parse("-a*b")
    assert tree == Mul(Neg(Leaf(1)), Leaf(2))
    tree, _ = parse("--a")
    assert tree == Neg(Neg(Leaf(1)))


def test_parse_left_associativity():
    tree, _ = parse("a-b-c")
    assert tree == Sub(Sub(Leaf(1), Leaf(2)), Leaf(3))
    tree, _ = parse("a/b/c")
    assert tree == Div(Div(Leaf(1), Leaf(2)), Leaf(3))


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("a+")
    assert exc.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError) as exc:
        parse("a ? b")
    assert exc.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse("(a+b")
    with pytest.raises(ExprSyntaxError):
        parse("a b")
    with pytest.raises(ExprSyntaxError) as exc:
        parse("   ")
    assert str(exc.value).startswith("empty input")
    assert parse(" a\t\n")[0] == Leaf(1)


def test_name_map_first_occurrence_order():
    _, names = parse("z + y*z + x")
    assert [names.name_of(i) for i in (1, 2, 3, 4)] == ["z", "y", "x", "x4"]
    shared = NameMap()
    parse("p+q", shared)
    tree, _ = parse("q-p", shared)
    assert tree == Sub(Leaf(2), Leaf(1))


def test_render_examples():
    assert render(Sub(Leaf(1), Neg(Leaf(2))), NameMap({"a": 1, "b": 2})) == "a - -b"
    assert render(Leaf(1)) == "x1"
    tree = Mul(Sub(Leaf(1), Leaf(2)), Sub(Leaf(3), Leaf(4)))
    nm = NameMap({"a": 1, "b": 2, "c": 3, "d": 4})
    assert render(tree, nm) == "(a - b) * (c - d)"


def test_render_parse_round_trip_random():
    rnd = random.Random(2024)
    identity = NameMap({f"x{i}": i for i in range(1, 5)})
    for _ in range(500):
        tree = random_tree(rnd, 4)
        back, _ = parse(render(tree), identity)
        assert back == tree


def _nest(wrap, depth):
    tree = Leaf(1)
    for _ in range(depth):
        tree = wrap(tree)
    return tree


@pytest.mark.parametrize(
    "tree",
    [
        _nest(Neg, MAX_DEPTH),
        _nest(lambda t: Neg(Add(Leaf(2), t)), MAX_DEPTH // 2),
        _nest(lambda t: Mul(Leaf(2), Neg(t)), MAX_DEPTH // 2),
    ],
    ids=["unary-minus-chain", "neg-add-alternation", "mul-neg-chain"],
)
def test_render_of_deepest_trees_parses_back(tree):
    # each tree is MAX_DEPTH levels high, the most that parse returns, so its
    # text parses back only if it nests no deeper than the tree is high
    identity = NameMap({"x1": 1, "x2": 2})
    assert parse(render(tree), identity)[0] == tree


def test_eliminate_subtraction_examples():
    assert eliminate_subtraction(Sub(Leaf(1), Leaf(2))) == Add(Leaf(1), Neg(Leaf(2)))
    assert eliminate_subtraction(Neg(Neg(Leaf(1)))) == Leaf(1)
    assert eliminate_subtraction(Leaf(1)) == Leaf(1)


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


def test_eliminate_subtraction_preserves_value():
    rnd = random.Random(99)
    checked = 0
    for _ in range(400):
        tree = random_tree(rnd, 4)
        try:
            value = evaluate(tree)
        except ZeroDivisionError:
            continue  # repeated-variable divisor; not produced by enumeration
        flat = eliminate_subtraction(tree)
        assert not _has_sub(flat)
        assert not _has_stacked_neg(flat)
        assert evaluate(flat) == value
        checked += 1
    assert checked > 300


def test_evaluate_equivalences_from_tree_pictures():
    pairs = [
        ("a+b", "a-(-b)"),
        ("(a-b)*(c-d)", "(d-c)*(b-a)"),
        ("(a*b)/c", "b/(c/a)"),
    ]
    for lhs, rhs in pairs:
        names = NameMap()
        tl, _ = parse(lhs, names)
        tr, _ = parse(rhs, names)
        assert evaluate(tl) == evaluate(tr)


def test_evaluate_distinguishes():
    names = NameMap()
    tl, _ = parse("a+b", names)
    tr, _ = parse("a*b", names)
    assert evaluate(tl) != evaluate(tr)


def test_repeated_variables_allowed_and_zero_division_raises():
    tree, _ = parse("a*a + a")
    value = evaluate(tree)
    assert value.variables() == frozenset({1})
    bad, _ = parse("b/(a-a)")
    with pytest.raises(ZeroDivisionError):
        evaluate(bad)


def test_distinct_leaves_never_divide_by_zero():
    rnd = random.Random(5)
    # trees whose leaves are distinct variables: build by shuffling indices
    from exprcount import iter_expression_trees

    for tree in iter_expression_trees(2):
        evaluate(tree)  # must not raise
