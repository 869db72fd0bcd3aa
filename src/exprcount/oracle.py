"""Exhaustive ground truth for the counting engine, at desk scale.

Two independent enumeration routes both produce the set of canonical
fractions reachable by expression trees on k distinct variables (each
variable exactly one leaf, binary nodes +, -, *, /, an optional unary
minus at any node position but never directly on top of another one):

* ``enumerate_tree_classes`` recurses over variable subsets.  A tree on
  the variable set V with |V| >= 2 is +-(L-tree op R-tree) for a split
  V = L | R, and op acts elementwise on the value sets of the two sides.
  Every value set is closed under negation, so with u one representative
  per +/- pair on L and w one on R, the values on V are exactly
  +-(u + w), +-(u - w), +-(u * w), +-q and +-1/q, q = u / w, over the
  unordered splits {L, R} (the mirrored split repeats the sums and
  products, and its quotients are the reciprocals 1/q); each subset's
  representatives are computed once.  Skipping stacked negations loses
  no classes since -(-e) = e, and the binary ``-`` contributes no value
  that ``+`` against a negation-closed operand set does not already
  produce.

* ``enumerate_grammar`` builds sum-type / product-type / Pi1 / Pi2
  expressions structurally from their decompositions over variable
  subsets, visiting each unordered split once.  Every kind is built and
  memoized as one member per +/- pair; only its returned ``sum`` and
  ``product`` lists are signed, those members and then their negations.
  Its output lists must be duplicate-free and exactly as long as the
  corresponding engine sequences; the tests enforce both.

Both routes only ever join two values on disjoint variable sets, and
``_disjoint_sums`` (u + w and u - w from three products) and
``_disjoint_product`` do so without a gcd; u/w is the product of u and
1/w, and each 1/w is computed once per split.  Their precondition, for
x = a/b and y = c/d: x and y are nonzero, their variable sets are
disjoint, every coefficient of a, b, c and d is +-1, and a shares no
monomial with b, nor c with d.  The variables x_i/1 meet it, and so does
each result, by induction:

* A monomial of a*d factors uniquely into one of a and one of d, so no two
  monomials merge in a*d, a*c or b*d.  A monomial of a*d equal to one of
  c*b would need a and b to share a monomial, so none merges in a*d + c*b
  either, and that sum is never zero.  Likewise no new numerator shares a
  monomial with its denominator.  Coefficients stay +-1 and supports stay
  disjoint.  For x - y = x + (-c)/d all of this holds with c -> -c.
* The contents are therefore 1, and polynomials on disjoint variable sets
  have no common factor of positive degree, so gcd(b, d) = gcd(a, d) =
  gcd(c, b) = 1.  By Gauss's lemma (Z[X] factors uniquely) each prime
  factor of b*d divides b or d; with gcd(a, b) = gcd(c, d) = 1 that makes
  every cross-multiplied pair coprime as it stands.
* Graded-lex leading coefficients multiply: lc(b*d) = lc(b)*lc(d) > 0.

The swapped pair of a reciprocal meets the precondition too.  Neither
helper checks that the variable sets are disjoint: each pair it joins comes
from the two sides of one ``_splits`` split, which
``test_splits_are_each_unordered_split_once`` pins as disjoint.
``_disjoint_sums`` checks the proof's one non-trivial step, that no
monomial of a*d meets one of c*b, and raises ArithmeticError instead of
returning a wrong fraction.  The general ``Frac`` operators give the same
results and stay the reference.

Enumeration is intentionally bounded: k above the cutoff (default 4) is
rejected unless a larger ``cutoff`` is passed explicitly.  The literal
route, ``iter_expression_trees``, walks the raw tree space of roughly
Catalan(k-1) * k! * 4^(k-1) * 2^(2k-1) members, about 1e6 at k = 4 and
2e8 at k = 5; the subset recursion takes under a second at k = 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations, permutations, product
from typing import Iterator

from .expressions import Add, Div, ExprTree, Leaf, Mul, Neg, Sub, evaluate
from .rational import Frac

DEFAULT_CUTOFF = 4

# A shape is None for a leaf or a (left, right) pair of shapes.
Shape = None | tuple

# A split of a variable set into nonempty parts (left holding the minimum).
Split = tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class ClassSet:
    """The equivalence classes on exactly k variables, as canonical fractions."""

    classes: frozenset[Frac]

    def __len__(self) -> int:
        return len(self.classes)


def _check_k(k: int, cutoff: int | None) -> None:
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    limit = DEFAULT_CUTOFF if cutoff is None else cutoff
    if k > limit:
        raise ValueError(
            f"k={k} exceeds the enumeration cutoff {limit}; "
            f"raise it explicitly if you really want this"
        )


@lru_cache(maxsize=None)
def tree_shapes(leaves: int) -> tuple[Shape, ...]:
    """All ordered binary tree shapes with the given number of leaves."""
    if leaves == 1:
        return (None,)
    out: list[Shape] = []
    for left in range(1, leaves):
        for ls in tree_shapes(left):
            for rs in tree_shapes(leaves - left):
                out.append((ls, rs))
    return tuple(out)


def _splits(vars_: frozenset[int]) -> list[Split]:
    """Each unordered split of vars_ into two nonempty parts, once.

    The left part is min(vars_) plus a subset of the rest; left parts come
    by size, then lexicographically by their sorted members, and the
    grammar lists' order depends on this one.
    """
    anchor, *rest = sorted(vars_)
    out = []
    for j in range(len(rest)):
        for chosen in combinations(rest, j):
            left = frozenset((anchor, *chosen))
            out.append((left, vars_ - left))
    return out


def _disjoint_sums(x: Frac, y: Frac) -> tuple[Frac, Frac]:
    """(x + y, x - y) as (a*d +- c*b)/(b*d), for operands as in the module docstring."""
    ad, cb, bd = x.num * y.den, y.num * x.den, x.den * y.den
    total = ad + cb
    if len(total.terms) < len(ad.terms) + len(cb.terms):
        raise ArithmeticError(f"a*d and c*b share a monomial: {x} and {y}")
    return Frac._raw(total, bd), Frac._raw(ad - cb, bd)


def _disjoint_product(x: Frac, y: Frac) -> Frac:
    """x * y as (a*c)/(b*d), for operands as in the module docstring."""
    return Frac._raw(x.num * y.num, x.den * y.den)


def _tree_values(vars_: frozenset[int], memo: dict) -> set[Frac]:
    """Values of every tree that holds each variable of vars_ in one leaf.

    The value sets are closed under negation, so the walk combines one
    representative u per +/- pair on the left with one w on the right:
    +-(u + w), +-(u - w), +-u*w, +-q and +-1/q, q = u/w, are all the values
    the signed pairs give, and the mirrored split adds only the reciprocals.
    memo[vars_] keeps the first member reached of each pair; the full
    signed set is only what this call returns.
    """
    if len(vars_) == 1:
        x = Frac.variable(min(vars_))
        memo[vars_] = [x]
        return {x, -x}
    out: set[Frac] = set()
    reps: list[Frac] = []
    for left, right in _splits(vars_):
        rights = [(w, w.reciprocal()) for w in _tree_reps(right, memo)]
        for u in _tree_reps(left, memo):
            for w, w_inv in rights:
                q = _disjoint_product(u, w_inv)
                for r in (*_disjoint_sums(u, w), _disjoint_product(u, w), q, q.reciprocal()):
                    if r not in out:
                        out.add(r)
                        out.add(-r)
                        reps.append(r)
    memo[vars_] = reps
    return out


def _tree_reps(vars_: frozenset[int], memo: dict) -> list[Frac]:
    """One value per +/- pair of the values on vars_, computed once per subset."""
    if vars_ not in memo:
        _tree_values(vars_, memo)
    return memo[vars_]


def enumerate_tree_classes(k: int, cutoff: int | None = None) -> ClassSet:
    """Deduplicated values of all expression trees on variables x1..xk.

    A tree on the variable set V with |V| >= 2 is +-(L-tree op R-tree)
    for some split V = L | R, and op acts elementwise on the two value
    sets, so values(V) is built from one representative per +/- pair on L
    and on R over the unordered splits {L, R} (u+w, u-w, u*w, u/w and its
    reciprocal, each with its negation), memoized by variable subset.
    """
    _check_k(k, cutoff)
    return ClassSet(frozenset(_tree_values(frozenset(range(1, k + 1)), {})))


def iter_expression_trees(k: int, cutoff: int | None = None) -> Iterator[ExprTree]:
    """Yield every admissible expression tree on x1..xk, one by one.

    This is the literal, unbatched enumeration: all shapes, all leaf
    orders, all operator assignments, all non-stacking negation patterns.
    Far slower than ``enumerate_tree_classes`` but useful for
    cross-checking it at small k.
    """
    _check_k(k, cutoff)
    ops = (Add, Sub, Mul, Div)

    def build(shape: Shape, leaves_iter, ops_iter, negs_iter) -> ExprTree:
        if shape is None:
            node: ExprTree = Leaf(next(leaves_iter))
        else:
            left = build(shape[0], leaves_iter, ops_iter, negs_iter)
            right = build(shape[1], leaves_iter, ops_iter, negs_iter)
            node = next(ops_iter)(left, right)
        return Neg(node) if next(negs_iter) else node

    for shape in tree_shapes(k):
        for leaves in permutations(range(1, k + 1)):
            for op_choice in product(ops, repeat=k - 1):
                for neg_choice in product((False, True), repeat=2 * k - 1):
                    yield build(shape, iter(leaves), iter(op_choice), iter(neg_choice))


def enumerate_tree_classes_literal(k: int, cutoff: int | None = None) -> ClassSet:
    """Class set via the one-tree-at-a-time route (slow; small k only)."""
    return ClassSet(frozenset(evaluate(t) for t in iter_expression_trees(k, cutoff)))


def _memoized(method):
    """Cache method(self, vars_) in the builder's one memo dict."""

    @wraps(method)
    def cached(self: "_GrammarBuilder", vars_: frozenset[int]) -> list:
        got = self._memo.get((method, vars_))
        if got is None:
            got = self._memo[method, vars_] = method(self, vars_)
        return got

    return cached


class _GrammarBuilder:
    """Structural generation of expression classes over variable subsets.

    Sum-type values on V split uniquely into the product-type summand
    containing min(V) and the remaining sum; products split into the
    numerator/denominator factor groups, counted up to sign.  Every kind
    is built as one member per +/- pair (the ``*_reps`` lists), and no
    signed list is held.  Each class is generated exactly once -- the
    uniqueness theorems for these decompositions are what the
    duplicate-freedom tests exercise.  Each list is memoized per subset;
    callers must not mutate it.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple, list] = {}

    @_memoized
    def sum_reps(self, vars_: frozenset[int]) -> list[Frac]:
        """Sums p + a, p a product-type head holding min(vars_), a any tail.

        -(p + a) = -p + (-a), so heads from one member of each +/- pair and
        tails a = +-t over the tail members t give one member of each sum
        pair.  For each head the tails are the sum members, then the
        product members (a lone variable is both, so once); each tail list
        gives every p + t, then every p - t.
        """
        if len(vars_) == 1:
            return [Frac.variable(min(vars_))]
        out = []
        for head_vars, tail_vars in _splits(vars_):
            tail_lists = [self.sum_reps(tail_vars)]
            if len(tail_vars) > 1:
                tail_lists.append(self.product_reps(tail_vars))
            for p in self.product_reps(head_vars):
                for tails in tail_lists:
                    pluses, minuses = zip(*(_disjoint_sums(p, t) for t in tails))
                    out += pluses + minuses
        return out

    @_memoized
    def pi2_reps(self, vars_: frozenset[int]) -> list[Frac]:
        """Products of >= 2 sum-type factors on disjoint variables, up to sign."""
        out = []
        for head_vars, tail_vars in _splits(vars_):
            tails = self.pi1_reps(tail_vars)
            for s in self.sum_reps(head_vars):
                for r in tails:
                    out.append(_disjoint_product(s, r))
        return out

    @_memoized
    def pi1_reps(self, vars_: frozenset[int]) -> list[Frac]:
        return self.pi2_reps(vars_) + self.sum_reps(vars_)

    @_memoized
    def product_reps(self, vars_: frozenset[int]) -> list[Frac]:
        """Pi2 products and each quotient n/d of Pi1 values with its reciprocal, up to sign."""
        if len(vars_) == 1:
            return self.sum_reps(vars_)
        out = list(self.pi2_reps(vars_))
        for num_vars, den_vars in _splits(vars_):
            inverses = [d.reciprocal() for d in self.pi1_reps(den_vars)]
            for n in self.pi1_reps(num_vars):
                for d_inv in inverses:
                    f = _disjoint_product(n, d_inv)
                    out += (f, f.reciprocal())
        return out


def enumerate_grammar(
    k: int, kind: str, cutoff: int | None = None, builder: _GrammarBuilder | None = None
) -> list[Frac]:
    """Structurally generated classes on x1..xk for one grammar kind.

    ``kind`` is one of ``sum``, ``product``, ``pi1``, ``pi2``.  Each kind
    is built as one member per sign pair: ``pi1`` and ``pi2`` return those
    members, ``sum`` and ``product`` the members followed by their
    negations, formed here and not memoized.  List order is deterministic;
    each quotient of a product list sits next to its reciprocal, and the
    sums built from them follow that order.
    """
    _check_k(k, cutoff)
    b = builder if builder is not None else _GrammarBuilder()
    lists = {"sum": b.sum_reps, "product": b.product_reps, "pi1": b.pi1_reps, "pi2": b.pi2_reps}
    if kind not in lists:
        raise ValueError(f"unknown grammar kind {kind!r}")
    values = list(lists[kind](frozenset(range(1, k + 1))))
    if kind in ("sum", "product"):
        values += [-f for f in values]
    return values
