"""Expression trees: parsing, rendering, subtraction removal, evaluation."""

import math
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
from exprcount.expressions import MAX_DEPTH, _PRIME, _evaluator, _point, _residue
from genlib import random_tree


def test_parse_unary_minus_in_parens():
    tree, names = parse("a-(-b)")
    assert tree == Sub(Leaf(1), Neg(Leaf(2)))
    assert [names.name_of(i) for i in (1, 2, 3)] == ["a", "b", "x3"]


def test_nodes_round_trip_through_repr_and_hash_as_they_compare():
    rnd = random.Random(26)
    namespace = {cls.__name__: cls for cls in (Leaf, Neg, Add, Sub, Mul, Div)}
    for _ in range(300):
        tree = random_tree(rnd, 6)
        copy = eval(repr(tree), namespace)
        assert copy == tree and copy is not tree
        assert hash(copy) == hash(tree)
    assert repr(Add(Leaf(1), Leaf(2))) == "Add(left=Leaf(index=1), right=Leaf(index=2))"


def test_nodes_are_equal_only_within_one_class():
    a, b = Leaf(1), Leaf(2)
    assert Add(a, b) != Sub(a, b)
    assert len({Add(a, b), Sub(a, b), Mul(a, b), Div(a, b), Add(a, b)}) == 4
    assert Neg(a) != a and Leaf(1) != 1 and Leaf(1) == Leaf(1)


def test_nodes_match_by_position_and_have_no_dict():
    tree, _ = parse("-(a+b)*c")
    match tree:
        case Mul(Neg(Add(left, right)), Leaf(index)):
            assert (left, right, index) == (Leaf(1), Leaf(2), 3)
        case _:
            pytest.fail(f"no case matched {tree!r}")
    a = Leaf(1)
    for node in (a, Neg(a), Add(a, a), Sub(a, a), Mul(a, a), Div(a, a)):
        assert not hasattr(node, "__dict__")


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
    for text, message, position in [
        ("(a b", "expected ')', got 'b'", 3),
        ("a + * b", "unexpected token '*'", 4),
        (")", "unexpected token ')'", 0),
    ]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position


DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("a+", "unexpected end of input", 2),
        ("a + ", "unexpected end of input", 4),
        ("(a", "missing ')'", 2),
        ("a + $", "unexpected character '$'", 4),
        ("(a*b) ? c", "unexpected character '?'", 6),
        ("1a", "unexpected character '1'", 0),
        ("a1 + 2b", "unexpected character '2'", 5),
        ("x + \u00f1ame", "unexpected character '\u00f1'", 4),
        ("(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1), DEEP, MAX_DEPTH),
        ("( " * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1), DEEP, 2 * MAX_DEPTH),
        ("-" * (MAX_DEPTH + 1) + "a", DEEP, MAX_DEPTH),
        ("-(" * (MAX_DEPTH // 2) + "-a" + ")" * (MAX_DEPTH // 2), DEEP, MAX_DEPTH),
        # a tree MAX_DEPTH + 1 operators high: the error names the last '*'
        ("a" + "*-a" * MAX_DEPTH, DEEP, 3 * MAX_DEPTH - 2),
    ],
    ids=[
        "end", "end-after-space", "unclosed", "bad-char-after-prefix", "bad-char-mid",
        "leading-digit", "digit-after-space", "non-ascii-name", "deep-parens",
        "deep-spaced-parens", "deep-minus", "deep-minus-parens", "tall-tree",
    ],
)
def test_every_parse_error_keeps_its_message_and_position(text, message, position):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_name_map_first_occurrence_order():
    _, names = parse("z + y*z + x")
    assert [names.name_of(i) for i in (1, 2, 3, 4)] == ["z", "y", "x", "x4"]
    shared = NameMap()
    parse("p+q", shared)
    tree, _ = parse("q-p", shared)
    assert tree == Sub(Leaf(2), Leaf(1))
    with pytest.raises(ValueError, match="name map must be injective"):
        NameMap({"a": 1, "b": 1})


def test_render_examples():
    assert render(Sub(Leaf(1), Neg(Leaf(2))), NameMap({"a": 1, "b": 2})) == "a - -b"
    assert render(Leaf(1)) == "x1"
    tree = Mul(Sub(Leaf(1), Leaf(2)), Sub(Leaf(3), Leaf(4)))
    nm = NameMap({"a": 1, "b": 2, "c": 3, "d": 4})
    assert render(tree, nm) == "(a - b) * (c - d)"


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


def _mirror(tree):
    """The tree with the operands of every + and * swapped: the same value."""
    if isinstance(tree, Leaf):
        return tree
    if isinstance(tree, Neg):
        return Neg(_mirror(tree.child))
    left, right = _mirror(tree.left), _mirror(tree.right)
    return type(tree)(right, left) if isinstance(tree, (Add, Mul)) else type(tree)(left, right)


def test_one_evaluator_computes_each_operation_once():
    value = _evaluator()
    a, b = Leaf(1), Leaf(2)
    assert value(Mul(a, b)) is value(Mul(a, b))
    assert value(Add(a, b)) is value(Add(a, b))
    assert value(Sub(a, b)) is not value(Sub(b, a))
    assert value(Div(a, b)) is not value(Div(b, a))
    assert value(Neg(Neg(a))) is value(a)
    assert value(Neg(Neg(Add(b, a)))) is value(Add(b, a))
    # a fresh evaluator shares nothing with the first
    assert _evaluator()(Mul(a, b)) is not value(Mul(a, b))


def test_one_evaluator_equals_separate_evaluations():
    rnd = random.Random(28)
    zero_divisions = 0
    for _ in range(400):
        tree = random_tree(rnd, 5)
        mirror = _mirror(tree)
        value = _evaluator()
        try:
            expected = evaluate(tree)
        except ZeroDivisionError:
            zero_divisions += 1
            for t in (tree, mirror):
                with pytest.raises(ZeroDivisionError):
                    value(t)
            continue
        assert evaluate(mirror) == expected
        assert value(tree) == expected
        assert value(mirror) == expected
    assert 0 < zero_divisions < 400


def test_one_evaluator_raises_for_a_zero_divisor_in_a_later_tree():
    names = NameMap()
    left, _ = parse("b + (a - a)", names)
    right, _ = parse("b / (a - a)", names)
    value = _evaluator()
    assert value(left) == evaluate(left) == evaluate(Leaf(1))
    with pytest.raises(ZeroDivisionError):
        value(right)


def test_a_zero_divisor_taken_from_the_memo_still_raises():
    # the divisor a - a is computed for the left operand and reused by the right
    tree, _ = parse("(b + (a - a)) + b / (a - a)")
    left, _ = parse("b + (a - a)")
    assert evaluate(tree.left) == evaluate(left) == evaluate(Leaf(1))
    with pytest.raises(ZeroDivisionError):
        evaluate(tree)


def test_repeated_variables_allowed_and_zero_division_raises():
    tree, _ = parse("a*a + a")
    value = evaluate(tree)
    assert value.variables() == frozenset({1})
    bad, _ = parse("b/(a-a)")
    with pytest.raises(ZeroDivisionError):
        evaluate(bad)


def _residue_of(poly, xs):
    """The polynomial's value mod _PRIME at the point xs (index -> coordinate)."""
    return sum(c * math.prod(xs[i] for i in m) for m, c in poly.terms.items()) % _PRIME


def test_residue_agrees_with_the_exact_fraction():
    # Fails on the plants "no zero-divisor check" (a formal zero divisor then
    # gives a pair) and "point evaluated with x1 = x2 always" (x1 - x2 then
    # vanishes at _point where the exact divisor does not).
    rnd = random.Random(37)
    zero_divisions = 0
    for _ in range(400):
        tree = random_tree(rnd, 5)
        points = [{i: rnd.randrange(_PRIME) for i in range(1, 5)} for _ in range(3)]
        points.append({i: _point(i) for i in range(1, 5)})
        try:
            exact = evaluate(tree)
        except ZeroDivisionError:
            zero_divisions += 1
            for xs in points:
                with pytest.raises(ZeroDivisionError):
                    _residue(tree, xs.__getitem__)
            continue
        for xs in points:
            num, den = _residue(tree, xs.__getitem__)
            exact_den = _residue_of(exact.den, xs)
            assert den and exact_den
            assert num * exact_den % _PRIME == _residue_of(exact.num, xs) * den % _PRIME
    assert 0 < zero_divisions < 400
