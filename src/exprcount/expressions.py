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

Unary minus binds tighter than the binary operators and may nest.  Input
nested deeper than ``MAX_DEPTH`` levels is a syntax error.  Identifiers
match ``[A-Za-z_][A-Za-z0-9_]*``; each distinct name is assigned the next
unused variable index in first-occurrence order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .rational import Frac


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class Neg:
    child: "ExprTree"


@dataclass(frozen=True)
class Add:
    left: "ExprTree"
    right: "ExprTree"


@dataclass(frozen=True)
class Sub:
    left: "ExprTree"
    right: "ExprTree"


@dataclass(frozen=True)
class Mul:
    left: "ExprTree"
    right: "ExprTree"


@dataclass(frozen=True)
class Div:
    left: "ExprTree"
    right: "ExprTree"


ExprTree = Leaf | Neg | Add | Sub | Mul | Div

_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


# Deepest input the parser accepts: at most this many nested parentheses and
# unary minuses around any point, and a tree at most this many operators
# high.  The parser recurses three times per parenthesis; evaluate, render
# and eliminate_subtraction once per tree level.  So both stay far below
# Python's default recursion limit of 1000, with room left for the caller's
# frames and for the polynomial gcd underneath evaluate.
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


_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/()]))")


class _Parser:
    def __init__(self, text: str, names: NameMap):
        self.text = text
        self.names = names
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.i = 0

    def _tokenize(self) -> None:
        pos = 0
        text = self.text
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                at = len(text) - len(stripped)
                raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
            if m.group("ident") is not None:
                self.tokens.append(("ident", m.group("ident"), m.start("ident")))
            elif m.group("op") is not None:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> ExprTree:
        if not self.tokens:
            raise ExprSyntaxError("empty input", 0)
        tree, _ = self.expr(0)
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return tree

    # expr, term and factor take the nesting depth of the current position
    # and return the subtree with its height.

    def expr(self, depth: int) -> tuple[ExprTree, int]:
        node, height = self.term(depth)
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return node, height
            self._advance()
            rhs, rhs_height = self.term(depth)
            node = Add(node, rhs) if tok[1] == "+" else Sub(node, rhs)
            height = _deeper(max(height, rhs_height), tok)

    def term(self, depth: int) -> tuple[ExprTree, int]:
        node, height = self.factor(depth)
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "*/":
                return node, height
            self._advance()
            rhs, rhs_height = self.factor(depth)
            node = Mul(node, rhs) if tok[1] == "*" else Div(node, rhs)
            height = _deeper(max(height, rhs_height), tok)

    def factor(self, depth: int) -> tuple[ExprTree, int]:
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        if tok[0] == "ident":
            self._advance()
            return Leaf(self.names.index_for(tok[1])), 0
        if tok[1] == "-":
            self._advance()
            child, height = self.factor(_deeper(depth, tok))
            return Neg(child), _deeper(height, tok)
        if tok[1] == "(":
            self._advance()
            node, height = self.expr(_deeper(depth, tok))
            closing = self._peek()
            if closing is None:
                raise ExprSyntaxError("missing ')'", len(self.text))
            if closing[1] != ")":
                raise ExprSyntaxError(f"expected ')', got {closing[1]!r}", closing[2])
            self._advance()
            return node, height
        raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])


def _deeper(level: int, tok: tuple[str, str, int]) -> int:
    """One level below ``level``; raises past MAX_DEPTH, blaming ``tok``."""
    if level >= MAX_DEPTH:
        raise ExprSyntaxError(
            f"expression nested deeper than {MAX_DEPTH} levels", tok[2]
        )
    return level + 1


def parse(text: str, names: NameMap | None = None) -> tuple[ExprTree, NameMap]:
    """Parse infix text; pass an existing NameMap to share variable indices."""
    names = names if names is not None else NameMap()
    tree = _Parser(text, names).parse()
    return tree, names


def _prec(node: ExprTree) -> int:
    if isinstance(node, (Add, Sub)):
        return 1
    if isinstance(node, (Mul, Div)):
        return 2
    return 3


def render(tree: ExprTree, names: NameMap | None = None) -> str:
    """Parenthesized infix form; re-parsing reproduces the tree exactly.

    Each ``(`` wraps a binary node and each ``-`` prefix is a ``Neg``, so
    the text nests no deeper than the tree is high and stays within
    ``MAX_DEPTH`` for every tree that ``parse`` returns.
    """

    def name(i: int) -> str:
        return names.name_of(i) if names is not None else f"x{i}"

    def go(node: ExprTree) -> str:
        if isinstance(node, Leaf):
            return name(node.index)
        if isinstance(node, Neg):
            inner = go(node.child)
            return f"-{inner}" if isinstance(node.child, (Leaf, Neg)) else f"-({inner})"
        op = _BINARY[type(node)]
        left, right = go(node.left), go(node.right)
        if _prec(node.left) < _prec(node):
            left = f"({left})"
        if _prec(node.right) <= _prec(node):
            right = f"({right})"
        return f"{left} {op} {right}"

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
    left = evaluate(tree.left)
    right = evaluate(tree.right)
    if isinstance(tree, Add):
        return left + right
    if isinstance(tree, Sub):
        return left - right
    if isinstance(tree, Mul):
        return left * right
    return left / right
