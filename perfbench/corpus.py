"""Seeded `equiv`/`canon` corpus and the independent answer key for it.

Every entry is a pair of expression texts.  The expected outcome of
`equiv` and `canon` comes from evaluating the texts with
`fractions.Fraction` at random integer points (Schwartz-Zippel), never
from exprcount's own arithmetic:

* a divisor that is the zero fraction evaluates to 0 at every point, so an
  expression that raises at every point divides by a formal zero (exit 2);
* two expressions with equal values at every point are equivalent, with
  error probability at most degree / 2**62 per point.

Expression texts are read with Python's own `ast` module: the exprcount
grammar (identifiers, binary + - * /, unary -, parentheses) is a subset of
Python expression syntax with the same precedence and associativity.
"""

from __future__ import annotations

import ast
import json
import random
import re
from fractions import Fraction
from pathlib import Path

_CONFIG = json.loads(Path(__file__).with_name("workloads.json").read_text())["workloads"]["equiv"]
GEN = _CONFIG["generator"]
# Known blow-up: exprcount's poly_gcd/_prem runs for minutes on this input
# with coefficients above 8000 bits.  It is the first entry at every seed.
PINNED = _CONFIG["pinned"]

# An expression is ("v", name) | ("neg", child) | (op, left, right), op in "+-*/".
_AST_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def from_text(text: str) -> tuple:
    """The expression tree of an infix text, read with Python's `ast`."""

    def conv(node: ast.AST) -> tuple:
        if isinstance(node, ast.Name):
            return ("v", node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", conv(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _AST_OPS:
            return (_AST_OPS[type(node.op)], conv(node.left), conv(node.right))
        raise ValueError(f"not an exprcount expression: {ast.dump(node)}")

    return conv(ast.parse(text, mode="eval").body)


def to_text(e: tuple) -> str:
    if e[0] == "v":
        return e[1]
    if e[0] == "neg":
        inner = to_text(e[1])
        return f"-{inner}" if e[1][0] == "v" else f"-({inner})"
    op, left, right = e
    lt, rt = to_text(left), to_text(right)
    if left[0] == "neg" or (left[0] in _PREC and _PREC[left[0]] < _PREC[op]):
        lt = f"({lt})"
    if right[0] == "neg" or (right[0] in _PREC and _PREC[right[0]] <= _PREC[op]):
        rt = f"({rt})"
    return f"{lt} {op} {rt}"


def evaluate_at(e: tuple, point: dict[str, Fraction]) -> Fraction:
    """Exact value at a point; ZeroDivisionError when a divisor is 0 there."""
    if e[0] == "v":
        return point[e[1]]
    if e[0] == "neg":
        return -evaluate_at(e[1], point)
    left, right = evaluate_at(e[1], point), evaluate_at(e[2], point)
    if e[0] == "+":
        return left + right
    if e[0] == "-":
        return left - right
    if e[0] == "*":
        return left * right
    return left / right


def names_in_order(text: str) -> list[str]:
    """Distinct identifiers in first-occurrence order (exprcount's x1, x2, ...)."""
    seen: dict[str, None] = {}
    for name in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text):
        seen.setdefault(name)
    return list(seen)


def random_points(rng: random.Random, names: list[str]) -> list[dict[str, Fraction]]:
    return [
        {n: Fraction(rng.randint(1, 2**62)) for n in names} for _ in range(GEN["points"])
    ]


def values(text: str, points: list[dict[str, Fraction]]) -> list[Fraction] | None:
    """Values at the points, or None for a division by a formal zero."""
    e = from_text(text)
    out = []
    for point in points:
        try:
            out.append(evaluate_at(e, point))
        except ZeroDivisionError:
            out.append(None)
    if all(v is None for v in out):
        return None
    if any(v is None for v in out):
        # A nonzero divisor vanished at a random point: drawing that by
        # chance has probability about degree / 2**62.
        raise ValueError(f"unlucky evaluation point for {text!r}")
    return out


_TERM = re.compile(r"(?:(\d+)\*)?(x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*)|(\d+)")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")


def read_poly(text: str, xs: list[Fraction]) -> Fraction:
    """Value of a rendered polynomial such as ``x1*x2^2 - 3*x3 + 1``.

    ``xs[i - 1]`` is the value of ``xi``.  Raises ValueError on any text
    that is not in the rendered form.
    """
    if text == "0":
        return Fraction(0)
    total = Fraction(0)
    for sign, body in _split_terms(text):
        m = _TERM.fullmatch(body)
        if m is None:
            raise ValueError(f"bad term {body!r} in {text!r}")
        if m.group(3) is not None:
            total += sign * int(m.group(3))
            continue
        term = Fraction(sign * int(m.group(1) or 1))
        for factor in m.group(2).split("*"):
            f = _FACTOR.fullmatch(factor)
            term *= xs[int(f.group(1)) - 1] ** int(f.group(2) or 1)
        total += term
    return total


def _split_terms(text: str) -> list[tuple[int, str]]:
    parts = text.split(" ")
    first = parts[0]
    out = [(-1, first[1:]) if first.startswith("-") else (1, first)]
    if len(parts) % 2 == 0:
        raise ValueError(f"bad polynomial {text!r}")
    for op, body in zip(parts[1::2], parts[2::2]):
        if op not in "+-" or len(op) != 1:
            raise ValueError(f"bad operator {op!r} in {text!r}")
        out.append((1 if op == "+" else -1, body))
    return out


def read_canon(text: str, names: list[str], point: dict[str, Fraction]) -> Fraction:
    """Value of `canon` output ``(num)/(den)`` at a point of the input's names."""
    m = re.fullmatch(r"\((.+)\)/\((.+)\)", text)
    if m is None:
        raise ValueError(f"not a (num)/(den) fraction: {text!r}")
    xs = [point[n] for n in names]
    return read_poly(m.group(1), xs) / read_poly(m.group(2), xs)


# --- generator -------------------------------------------------------------


def random_expr(rng: random.Random, names: list[str], leaves: int) -> tuple:
    if leaves == 1:
        e: tuple = ("v", rng.choice(names))
    else:
        split = rng.randint(1, leaves - 1)
        e = (
            rng.choice("+-*/"),
            random_expr(rng, names, split),
            random_expr(rng, names, leaves - split),
        )
    return ("neg", e) if rng.random() < GEN["neg_prob"] else e


def _nodes(e: tuple, path: tuple = ()) -> list[tuple]:
    out = [path]
    if e[0] == "neg":
        out += _nodes(e[1], path + (1,))
    elif e[0] != "v":
        out += _nodes(e[1], path + (1,)) + _nodes(e[2], path + (2,))
    return out


def _get(e: tuple, path: tuple) -> tuple:
    for i in path:
        e = e[i]
    return e


def _put(e: tuple, path: tuple, new: tuple) -> tuple:
    if not path:
        return new
    i = path[0]
    return e[:i] + (_put(e[i], path[1:], new),) + e[i + 1 :]


def _rewrite_node(rng: random.Random, e: tuple, names: list[str]) -> tuple:
    """One value-preserving rewrite of the node e, chosen at random."""
    op = e[0]
    choices = [("neg", ("neg", e))]
    if op == "v":
        return rng.choice(choices)
    if op in ("+", "*"):
        choices.append((op, e[2], e[1]))
    if op == "-":
        choices.append(("+", e[1], ("neg", e[2])))
        choices.append(("neg", ("-", e[2], e[1])))
    if op == "/":
        choices.append(("/", ("neg", e[1]), ("neg", e[2])))
        x = ("v", rng.choice(names))
        choices.append(("/", ("*", e[1], x), ("*", e[2], x)))
    if op == "*" and e[2][0] in ("+", "-"):
        inner = e[2]
        choices.append((inner[0], ("*", e[1], inner[1]), ("*", e[1], inner[2])))
    if op in ("+", "*") and e[1][0] == op:
        choices.append((op, e[1][1], (op, e[1][2], e[2])))
    return rng.choice(choices)


def rewrite(rng: random.Random, e: tuple, names: list[str], steps: int) -> tuple:
    for _ in range(steps):
        path = rng.choice(_nodes(e))
        e = _put(e, path, _rewrite_node(rng, _get(e, path), names))
    return e


def mutate(rng: random.Random, e: tuple, names: list[str]) -> tuple:
    """A small edit that usually changes the value (the answer key decides)."""
    path = rng.choice(_nodes(e))
    node = _get(e, path)
    if node[0] == "v":
        new = ("v", rng.choice([n for n in names if n != node[1]] or names))
    elif node[0] == "neg":
        new = node[1]
    else:
        new = (rng.choice([o for o in "+-*/" if o != node[0]]), node[1], node[2])
    return _put(e, path, new)


def zero_divisor(rng: random.Random, e: tuple, names: list[str]) -> tuple:
    """Divide a random subtree by s - s', s' a rewrite of s: a formal zero."""
    s = random_expr(rng, names, rng.randint(1, 3))
    zero = ("-", s, rewrite(rng, s, names, rng.randint(1, 2)))
    path = rng.choice(_nodes(e))
    return _put(e, path, ("/", _get(e, path), zero))


def make_entry(rng: random.Random) -> dict:
    names = rng.sample(GEN["name_pool"], rng.randint(GEN["min_vars"], GEN["max_vars"]))
    left = random_expr(rng, names, rng.randint(GEN["min_leaves"], GEN["max_leaves"]))
    kind = rng.choices(list(GEN["mix"]), list(GEN["mix"].values()))[0]
    if kind == "equivalent":
        right = rewrite(rng, left, names, rng.randint(1, 4))
    elif kind == "inequivalent":
        right = mutate(rng, rewrite(rng, left, names, rng.randint(0, 2)), names)
    else:
        right = rewrite(rng, left, names, rng.randint(0, 2))
        if rng.random() < 0.5:
            left = zero_divisor(rng, left, names)
        else:
            right = zero_divisor(rng, right, names)
    return {"kind": kind, "left": to_text(left), "right": to_text(right)}


def pinned_entry(rng: random.Random) -> dict:
    left = from_text(PINNED)
    names = names_in_order(PINNED)
    return {"kind": "pinned", "left": PINNED, "right": to_text(rewrite(rng, left, names, 2))}


def answer_key(rng: random.Random, entry: dict) -> dict:
    """Expected exit codes, plus the points for checking `canon` output."""
    left, right = entry["left"], entry["right"]
    names = names_in_order(left + " " + right)
    points = random_points(rng, names)
    lv, rv = values(left, points), values(right, points)
    if lv is None or rv is None:
        equiv_rc = 2
    else:
        equiv_rc = 0 if lv == rv else 1
    return {
        "equiv_rc": equiv_rc,
        "canon_rc": 2 if lv is None else 0,
        "points": points,
        "left_values": lv,
        "left_names": names_in_order(left),
    }


def corpus(seed: int):
    """Endless stream of (entry, answer key); the pinned entry comes first."""
    rng = random.Random(seed)
    entry = pinned_entry(rng)
    while True:
        yield entry, answer_key(rng, entry)
        entry = make_entry(rng)
