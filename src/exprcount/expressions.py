"""Expression trees: parsing, printing, subtraction removal, evaluation.

Trees are ordered and rooted: leaves carry variable indices, unary ``Neg``
nodes have one child, the four binary operators have two (operand order is
significant for ``Sub`` and ``Div``).  ``evaluate`` maps a tree to the
canonical fraction it denotes; two trees are equivalent expressions exactly
when their fractions are equal.  Domain-of-definition differences between
the underlying functions are deliberately ignored: equivalence is equality
of formal fractions, nothing else.  ``_residue`` evaluates a tree at a point
modulo a prime, which ``equiv`` uses to prove two trees inequivalent
without expanding a polynomial.

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

import functools
import operator
import re
from collections.abc import Callable

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


# A token is an identifier or an operator character; whitespace only
# separates tokens.  Text that _VALID_RE does not match in full holds some
# other visible character, the first one past its match.
_TOKEN = r"[A-Za-z_][A-Za-z0-9_]*|[-+*/()]"
_TOKEN_RE = re.compile(_TOKEN)
_VALID_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")


class _Parser:
    def __init__(self, text: str, names: NameMap):
        end = _VALID_RE.match(text).end()
        if end < len(text):
            raise ExprSyntaxError(f"unexpected character {text[end]!r}", end)
        self.text = text
        self.names = names
        self.tokens: list[str] = _TOKEN_RE.findall(text)
        self.tokens.append("")  # "" ends the input
        self.i = 0

    def error(self, message: str, i: int) -> ExprSyntaxError:
        """A syntax error at token i; its text position is found only now."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        return ExprSyntaxError(message, starts[i] if i < len(starts) else len(self.text))

    def parse(self) -> ExprTree:
        if len(self.tokens) == 1:
            raise ExprSyntaxError("empty input", 0)
        tree, _ = self.binary(_LOOSEST, 0)
        text = self.tokens[self.i]
        if text:
            raise self.error(f"unexpected token {text!r}", self.i)
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
            op = self.i
            cls, op_prec = _BY_SYMBOL.get(self.tokens[op], (None, 0))  # 0: not an operator
            if op_prec < prec:
                return node, height
            self.i += 1
            if op_prec == _TIGHTEST:
                rhs, rhs_height = self.factor(depth)
            else:
                rhs, rhs_height = self.binary(op_prec + 1, depth)
            node = cls(node, rhs)
            height = self._deeper(max(height, rhs_height), op)

    def factor(self, depth: int) -> tuple[ExprTree, int]:
        at = self.i
        text = self.tokens[at]
        self.i += 1
        if text.isidentifier():
            return Leaf(self.names.index_for(text)), 0
        if text == "-":
            child, height = self.factor(self._deeper(depth, at))
            return Neg(child), self._deeper(height, at)
        if text == "(":
            node, height = self.binary(_LOOSEST, self._deeper(depth, at))
            closing = self.tokens[self.i]
            if closing != ")":
                message = f"expected ')', got {closing!r}" if closing else "missing ')'"
                raise self.error(message, self.i)
            self.i += 1
            return node, height
        if not text:
            raise self.error("unexpected end of input", at)
        raise self.error(f"unexpected token {text!r}", at)

    def _deeper(self, level: int, i: int) -> int:
        """One level below ``level``; raises past MAX_DEPTH, blaming token i."""
        if level >= MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels", i)
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

    Each distinct operation is computed once, through a memo that lasts for
    this one call.  Raises ZeroDivisionError when a divisor evaluates to the
    zero fraction, which can only happen for inputs with repeated variables.
    """
    return _evaluator()(tree)


def _evaluator() -> Callable[[ExprTree], Frac]:
    """``evaluate`` with a memo shared by every tree it is given.

    Each distinct operation is computed once: a leaf per index, a negation
    per child value, a binary node per operator and operand values in
    operand order, so ``a*b`` and ``b*a`` are two entries.  Values are
    keyed by ``id``, which stays unique because the memo holds every value
    it returns.  A computed negation also records its own negation, so
    ``-(-v)`` is ``v`` itself.  The memo lives as long as the returned
    function; ``evaluate`` and the ``equiv`` command make one per call.
    """
    memo: dict[tuple, Frac] = {}

    def value(node: ExprTree) -> Frac:
        cls = type(node)
        if cls is Leaf:
            key = (Leaf, node.index)
            got = memo.get(key)
            if got is None:
                got = memo[key] = Frac.variable(node.index)
            return got
        if cls is Neg:
            child = value(node.child)
            key = (Neg, id(child))
            got = memo.get(key)
            if got is None:
                got = memo[key] = -child
                memo[Neg, id(got)] = child
            return got
        left, right = value(node.left), value(node.right)
        key = (cls, id(left), id(right))
        got = memo.get(key)
        if got is None:
            got = memo[key] = _BINARY[cls][2](left, right)
        return got

    return value


_PRIME = 2**61 - 1
_MASK64 = 2**64 - 1


@functools.cache
def _point(index: int) -> int:
    """x_index's coordinate at the point where ``equiv`` compares residues.

    SplitMix64's output for the index, mod ``_PRIME``.  Coordinates in a
    geometric or arithmetic progression would make divisors such as
    ``e*e/(-u) + h`` vanish whenever three indices are in progression.
    """
    z = index * 0x9E3779B97F4A7C15 & _MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return (z ^ z >> 31) % _PRIME


def _residue(tree: ExprTree, point: Callable[[int], int]) -> tuple[int, int]:
    """The tree's value mod ``_PRIME`` at a point, as a (num, den) pair.

    ``point(i)`` is x_i's coordinate, in range(_PRIME).  Fractions combine
    by cross-multiplication, so no inverse is taken: den is a product of 1s
    and of divisors' numerators.  Raises ZeroDivisionError when a divisor's
    numerator is 0: always for a divisor that is the zero fraction, and for
    one that merely vanishes at the point.
    """
    cls = type(tree)
    if cls is Leaf:
        return point(tree.index), 1
    if cls is Neg:
        num, den = _residue(tree.child, point)
        return -num % _PRIME, den
    a, b = _residue(tree.left, point)
    c, d = _residue(tree.right, point)
    if cls is Add:
        return (a * d + c * b) % _PRIME, b * d % _PRIME
    if cls is Sub:
        return (a * d - c * b) % _PRIME, b * d % _PRIME
    if cls is Mul:
        return a * c % _PRIME, b * d % _PRIME
    if not c:
        raise ZeroDivisionError("a divisor vanishes at the point")
    return a * d % _PRIME, b * c % _PRIME


def _residues_differ(left: ExprTree, right: ExprTree) -> bool:
    """True when the two trees' residues at ``_point`` differ.

    Where no divisor vanishes, evaluation at a point mod a prime is a ring
    map, so residues that differ prove the fractions differ.  False proves
    nothing: the residues are equal, or a divisor vanishes at the point.
    """
    try:
        a, b = _residue(left, _point)
        c, d = _residue(right, _point)
    except ZeroDivisionError:
        return False
    return (a * d - c * b) % _PRIME != 0
