"""Expression trees: parsing, printing, subtraction removal, evaluation.

Trees are ordered and rooted: leaves carry variable indices, unary ``Neg``
nodes have one child, the four binary operators have two (operand order is
significant for ``Sub`` and ``Div``).  ``evaluate`` maps a tree to the
canonical fraction it denotes; two trees are equivalent expressions exactly
when their fractions are equal.  Domain-of-definition differences between
the underlying functions are deliberately ignored: equivalence is equality
of formal fractions, nothing else.

Infix grammar (EBNF)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | '(' expr ')' | identifier

One table, ``_BINARY``, gives each binary operator its symbol, precedence
and fraction operation; the parser, ``render`` and ``evaluate`` all read it.
Unary minus binds tighter than the binary operators and may nest.  Input
nested deeper than ``MAX_DEPTH`` levels is a syntax error.  Identifiers
match ``[A-Za-z_][A-Za-z0-9_]*``; each distinct name is assigned the next
unused variable index in first-occurrence order.
"""

from __future__ import annotations

import operator
import re

from .rational import Frac


class _Node:
    """Equality by exact class and fields, and the matching hash and repr.

    The fields are the names in ``__match_args__``.  Nodes are immutable by
    convention, like ``Frac``: nothing assigns to a field after ``__init__``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Leaf(_Node):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class Neg(_Node):
    __slots__ = __match_args__ = ("child",)

    def __init__(self, child: ExprTree):
        self.child = child


class _Binary(_Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: ExprTree, right: ExprTree):
        self.left = left
        self.right = right


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


ExprTree = Leaf | Neg | Add | Sub | Mul | Div

# node class -> (symbol, precedence, Frac operation); higher binds tighter
_BINARY = {
    Add: ("+", 1, operator.add),
    Sub: ("-", 1, operator.sub),
    Mul: ("*", 2, operator.mul),
    Div: ("/", 2, operator.truediv),
}
_BY_SYMBOL = {symbol: (cls, prec) for cls, (symbol, prec, _) in _BINARY.items()}
_LOOSEST = min(prec for _, prec, _ in _BINARY.values())
_TIGHTEST = max(prec for _, prec, _ in _BINARY.values())


# Deepest input the parser accepts: at most this many nested parentheses and
# unary minuses around any point, and a tree at most this many operators
# high.  The parser recurses at most three times per parenthesis; evaluate,
# render and eliminate_subtraction once per tree level.  So both stay far
# below Python's default recursion limit of 1000, with room left for the
# caller's frames.  The polynomial gcd underneath evaluate recurses once per
# variable, so hundreds of distinct names can still pass the limit (exit 2).
MAX_DEPTH = 200


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``position`` is a 0-based index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NameMap:
    """Injective mapping between surface identifiers and variable indices.

    Unknown names get the next unused index in the order they are first
    seen, so one shared NameMap makes two parsed expressions comparable.
    """

    def __init__(self, names: dict[str, int] | None = None):
        self._by_name: dict[str, int] = dict(names) if names else {}
        self._by_index: dict[int, str] = {i: n for n, i in self._by_name.items()}
        if len(self._by_index) != len(self._by_name):
            raise ValueError("name map must be injective")
        self._next = max(self._by_index, default=0) + 1

    def index_for(self, name: str) -> int:
        idx = self._by_name.get(name)
        if idx is None:
            idx = self._next
            self._next += 1
            self._by_name[name] = idx
            self._by_index[idx] = name
        return idx

    def name_of(self, index: int) -> str:
        return self._by_index.get(index, f"x{index}")


# One match per token, an identifier or an operator character; group 2
# catches any other visible character.  Whitespace only separates tokens.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|[-+*/()])|(\S))")


class _Parser:
    def __init__(self, text: str, names: NameMap):
        self.names = names
        self.tokens: list[tuple[str, int]] = []  # (text, 0-based position)
        for m in _TOKEN_RE.finditer(text):
            if m[2] is not None:
                raise ExprSyntaxError(f"unexpected character {m[2]!r}", m.start(2))
            self.tokens.append((m[1], m.start(1)))
        self.tokens.append(("", len(text)))  # text "" ends the input
        self.i = 0

    def parse(self) -> ExprTree:
        if len(self.tokens) == 1:
            raise ExprSyntaxError("empty input", 0)
        tree, _ = self.binary(_LOOSEST, 0)
        text, pos = self.tokens[self.i]
        if text:
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return tree

    # binary and factor take the nesting depth of the current position and
    # return the subtree with its height.

    def binary(self, prec: int, depth: int) -> tuple[ExprTree, int]:
        """Left-associative chain of operators of precedence ``prec`` or more.

        A right operand takes only operators binding tighter than its own
        (precedence climbing), so a parenthesis costs at most three frames.
        """
        node, height = self.factor(depth)
        while True:
            text, pos = self.tokens[self.i]
            cls, op_prec = _BY_SYMBOL.get(text, (None, 0))  # 0: not an operator
            if op_prec < prec:
                return node, height
            self.i += 1
            if op_prec == _TIGHTEST:
                rhs, rhs_height = self.factor(depth)
            else:
                rhs, rhs_height = self.binary(op_prec + 1, depth)
            node = cls(node, rhs)
            height = _deeper(max(height, rhs_height), pos)

    def factor(self, depth: int) -> tuple[ExprTree, int]:
        text, pos = self.tokens[self.i]
        self.i += 1
        if text.isidentifier():
            return Leaf(self.names.index_for(text)), 0
        if text == "-":
            child, height = self.factor(_deeper(depth, pos))
            return Neg(child), _deeper(height, pos)
        if text == "(":
            node, height = self.binary(_LOOSEST, _deeper(depth, pos))
            closing, at = self.tokens[self.i]
            if closing != ")":
                raise ExprSyntaxError(
                    f"expected ')', got {closing!r}" if closing else "missing ')'", at
                )
            self.i += 1
            return node, height
        if not text:
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def _deeper(level: int, pos: int) -> int:
    """One level below ``level``; raises past MAX_DEPTH, blaming position ``pos``."""
    if level >= MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
    return level + 1


def parse(text: str, names: NameMap | None = None) -> tuple[ExprTree, NameMap]:
    """Parse infix text; pass an existing NameMap to share variable indices."""
    names = names if names is not None else NameMap()
    tree = _Parser(text, names).parse()
    return tree, names


def _prec(node: ExprTree) -> int:
    return _BINARY[type(node)][1] if type(node) in _BINARY else _TIGHTEST + 1


def render(tree: ExprTree, names: NameMap | None = None) -> str:
    """Parenthesized infix form; re-parsing reproduces the tree exactly.

    Each ``(`` wraps a binary node and each ``-`` prefix is a ``Neg``, so
    the text nests no deeper than the tree is high and stays within
    ``MAX_DEPTH`` for every tree that ``parse`` returns.
    """
    names = names if names is not None else NameMap()

    def go(node: ExprTree) -> str:
        if isinstance(node, Leaf):
            return names.name_of(node.index)
        if isinstance(node, Neg):
            inner = go(node.child)
            return f"-{inner}" if isinstance(node.child, (Leaf, Neg)) else f"-({inner})"
        symbol, prec, _ = _BINARY[type(node)]
        left, right = go(node.left), go(node.right)
        if _prec(node.left) < prec:
            left = f"({left})"
        if _prec(node.right) <= prec:
            right = f"({right})"
        return f"{left} {symbol} {right}"

    return go(tree)


def eliminate_subtraction(tree: ExprTree) -> ExprTree:
    """Rewrite every subtraction as addition of a negation.

    The result contains no ``Sub`` node and never stacks one ``Neg``
    directly on another; the evaluated fraction is unchanged.
    """
    if isinstance(tree, Leaf):
        return tree
    if isinstance(tree, Neg):
        child = eliminate_subtraction(tree.child)
        return child.child if isinstance(child, Neg) else Neg(child)
    if isinstance(tree, Sub):
        left = eliminate_subtraction(tree.left)
        right = eliminate_subtraction(tree.right)
        return Add(left, right.child if isinstance(right, Neg) else Neg(right))
    ctor = type(tree)
    return ctor(eliminate_subtraction(tree.left), eliminate_subtraction(tree.right))


def evaluate(tree: ExprTree) -> Frac:
    """Value of the tree in Z(X), as a canonical fraction.

    Raises ZeroDivisionError when a divisor evaluates to the zero fraction,
    which can only happen for inputs with repeated variables.
    """
    if isinstance(tree, Leaf):
        return Frac.variable(tree.index)
    if isinstance(tree, Neg):
        return -evaluate(tree.child)
    _, _, apply = _BINARY[type(tree)]
    return apply(evaluate(tree.left), evaluate(tree.right))
