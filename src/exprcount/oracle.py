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
  subsets, visiting each unordered split once.  Every kind is built as
  one member per +/- pair; only its returned ``sum`` and ``product``
  lists are signed, those members and then their negations.
  Its output lists must be duplicate-free and exactly as long as the
  corresponding engine sequences; the tests enforce both.

One ``_GrammarBuilder`` holds both routes' subset lists, each memoized
per (route, subset), and the one converter to ``Frac``.  Both routes
convert the members on x1..xk as they are built and memoize only the
lists of proper subsets, which every split reads many times.

Both routes compute on one exact encoding, private to this module, and
build ``Frac`` values only on return.  A monomial is a variable set held
as a mask m (bit i - 1 for x_i); a polynomial with coefficients +-1 is
two ints, P with bit m set where m has coefficient +1 and N where it has
-1; a value a/b is (aP, aN, bP, bN), and x_i is (2**2**(i-1), 0, 1, 0).
Both routes only ever join x = a/b and y = c/d on disjoint variable
sets, and the encoding is exact on every value they build: x and y are
nonzero, every monomial of a, b, c and d is multilinear with coefficient
+-1, and a shares no monomial with b, nor c with d.  The variables meet
this, and so does each result, by induction:

* Masks m1 and m2 on disjoint variable sets give m1 | m2 = m1 + m2,
  distinct for distinct pairs, so XP * YP adds 2**(m1 | m2) over its
  pairs with no carry, and the polynomial product is
  (XP*YP | XN*YN, XP*YN | XN*YP).  So u*w is (a*c)/(b*d).
* A monomial of a*d equal to one of c*b would need a and b to share a
  monomial, so a*d + c*b is (adP | cbP, adN | cbN), never zero, and u - w
  swaps cbP and cbN.  ``_sums`` checks this step with one AND and raises
  ArithmeticError instead of returning a wrong value.  Likewise no new
  numerator shares a monomial with its denominator.
* The contents are therefore 1, and polynomials on disjoint variable sets
  have no common factor of positive degree, so gcd(b, d) = gcd(a, d) =
  gcd(c, b) = 1.  By Gauss's lemma (Z[X] factors uniquely) each prime
  factor of b*d divides b or d; with gcd(a, b) = gcd(c, d) = 1 that makes
  every cross-multiplied pair coprime as it stands, and a reciprocal is
  the swapped pair.

As the units of Z[X] are +-1, the four tuples (+-n)/(+-d) are then all
the encodings of the pair +-n/d.  ``_key`` packs the one whose numerator
and denominator each have their highest set bit in P (-n/-d = n/d), one
int comparison each since P and N share no bit.  No helper checks that
the variable sets are disjoint: each pair it joins comes from one
``_splits`` split, which ``test_splits_are_each_unordered_split_once``
pins as disjoint.  The conversion to ``Frac`` builds each polynomial once
per (P, N) and applies ``rational``'s graded-lex sign rule once per
denominator (dP, dN): a pair whose denominator leads negative is read as
(nN, nP, dN, dP), and a negation is converted from (nN, nP, dP, dN), so
no negated copy is built.  The k = 5 sum and product lists, 31,814
values, come from 6,635 polynomials and 1,211 sign decisions, and as
each ``Poly`` keeps its hash once computed, a set of those values hashes
each polynomial's terms once.  The general ``Frac`` operators give the
same values and stay the reference.

Enumeration is intentionally bounded: k above the cutoff (default 4) is
rejected unless a larger ``cutoff`` is passed explicitly, and k above
``MAX_K`` = 7 is rejected whatever the cutoff, as A_8 = 1,218,864,842
classes would need about 90 GB.  The literal route,
``iter_expression_trees``, walks the raw tree space of roughly
Catalan(k-1) * k! * 4^(k-1) * 2^(2k-1) members, about 1e6 at k = 4 and
2e8 at k = 5, so it serves small k only.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import cache, cached_property, wraps
from itertools import chain, combinations, permutations, product

from .expressions import Add, Div, ExprTree, Leaf, Mul, Neg, Sub, evaluate
from .polys import Poly
from .rational import Frac, _leads_negative

DEFAULT_CUTOFF = 4

# Both routes hold every class of the largest k in memory (a count keeps one
# packed key per +/- pair), and A_8 is about 40 times A_7: no k above this
# one is in reach, whatever the cutoff.
MAX_K = 7

# A shape is None for a leaf or a (left, right) pair of shapes.
Shape = None | tuple

# A split of a variable set into nonempty parts (left holding the minimum).
Split = tuple[frozenset[int], frozenset[int]]

Value = tuple[int, int, int, int]  # (nP, nN, dP, dN), as in the module docstring


class ClassSet(frozenset):
    """The equivalence classes on exactly k variables: a frozenset of canonical fractions."""

    __slots__ = ()

    @property
    def classes(self) -> frozenset[Frac]:
        """The set itself."""
        return self


def _check_k(k: int, cutoff: int | None) -> None:
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds {MAX_K}, the largest k the oracle enumerates")
    limit = DEFAULT_CUTOFF if cutoff is None else cutoff
    if k > limit:
        raise ValueError(
            f"k={k} exceeds the enumeration cutoff {limit}; "
            f"raise it explicitly if you really want this"
        )


@cache
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


def _leaf(v: int) -> Value:
    return (1 << (1 << (v - 1)), 0, 1, 0)


def _sums(x: Value, y: Value) -> tuple[Value, Value]:
    """(x + y, x - y) as (a*d +- c*b)/(b*d), for operands as in the module docstring."""
    aP, aN, bP, bN = x
    cP, cN, dP, dN = y
    adP, adN = aP * dP | aN * dN, aP * dN | aN * dP
    cbP, cbN = cP * bP | cN * bN, cP * bN | cN * bP
    if (adP | adN) & (cbP | cbN):
        raise ArithmeticError(f"a*d and c*b share a monomial: {x} and {y}")
    bdP, bdN = bP * dP | bN * dN, bP * dN | bN * dP
    return (adP | cbP, adN | cbN, bdP, bdN), (adP | cbN, adN | cbP, bdP, bdN)


def _product(x: Value, y: Value) -> Value:
    """x * y as (a*c)/(b*d), for operands as in the module docstring."""
    aP, aN, bP, bN = x
    cP, cN, dP, dN = y
    return aP * cP | aN * cN, aP * cN | aN * cP, bP * dP | bN * dN, bP * dN | bN * dP


def _reciprocal(x: Value) -> Value:
    return x[2], x[3], x[0], x[1]


def _key(x: Value, width: int) -> int:
    """One int per +/- pair of values whose monomial masks are all below width."""
    nP, nN, dP, dN = x
    if nN > nP:  # the member of the pair whose numerator's highest mask is +1
        nP, nN = nN, nP
    if dN > dP:  # -n/-d = n/d, with the denominator's highest mask +1
        dP, dN = dN, dP
    return nP | nN << width | dP << 2 * width | dN << 3 * width


def _converter() -> Callable[[Iterable[Value], bool], Iterator[Frac]]:
    """Values -> Fracs, from cached polynomials and signs.

    Each Poly is built once per (P, N) from the set bits of P | N in
    ascending mask order.  Each denominator (dP, dN) is looked up once in
    one cache that holds its Poly and whether the pair leads negative; a
    pair that does is read as (nN, nP, dN, dP), so no negated copy is made.
    The returned generator converts each value as it arrives, and with
    ``signed`` true yields the negations, each converted from
    (nN, nP, dP, dN), after the values.  A mask's monomial does not
    depend on k, so one table of the masks below 1 << MAX_K serves every k.
    """
    # table[m]: the monomial of mask m, the indices i + 1 of its set bits i
    # in ascending order, built by doubling over the variables
    table = [()]
    for i in range(MAX_K):
        table += [t + (i + 1,) for t in table]

    @cache
    def poly(P: int, N: int) -> Poly:
        terms, bits = {}, P | N
        while bits:
            low = bits & -bits
            terms[table[low.bit_length() - 1]] = 1 if P & low else -1
            bits ^= low
        return Poly._raw(terms)

    @cache
    def denominator(dP: int, dN: int) -> tuple[Poly, bool]:
        den = poly(dP, dN)
        if _leads_negative(den):
            return poly(dN, dP), True
        return den, False

    def convert(values: Iterable[Value], signed: bool = False) -> Iterator[Frac]:
        negations, raw = [], Frac._raw
        for nP, nN, dP, dN in values:
            den, flips = denominator(dP, dN)
            if flips:
                nP, nN = nN, nP
            yield raw(poly(nP, nN), den)
            if signed:
                negations.append(raw(poly(nN, nP), den))
        yield from negations

    return convert


def enumerate_tree_classes(k: int, cutoff: int | None = None) -> ClassSet:
    """Deduplicated values of all expression trees on variables x1..xk.

    The tree walk's members on x1..xk, each with its negation, as ``Frac``
    values, converted as the walk yields them; the proper subsets' lists
    are memoized in one fresh ``_GrammarBuilder``.
    """
    _check_k(k, cutoff)
    b = _GrammarBuilder()
    return ClassSet(b._convert(b.iter_tree_reps(frozenset(range(1, k + 1))), signed=True))


def count_tree_classes(k: int, cutoff: int | None = None) -> int:
    """len(enumerate_tree_classes(k, cutoff)), without building a Frac.

    The same walk, whose top level holds only one key per +/- pair.
    """
    _check_k(k, cutoff)
    return 2 * sum(1 for _ in _GrammarBuilder().iter_tree_reps(frozenset(range(1, k + 1))))


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
    return ClassSet(evaluate(t) for t in iter_expression_trees(k, cutoff))


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
    """Both enumeration routes' lists over variable subsets, in one memo.

    The tree route and the grammar's four kinds each have a generator,
    ``iter_*_reps``, that yields the members on one variable set in list
    order, and a ``*_reps`` method that lists them, memoized per (method,
    subset), so one builder holds both routes' lists and keeps them apart.
    A generator reads the lists of proper subsets, which every split reads
    many times, and streams the other kinds it needs on its own set, so a
    top level streamed through it is never held as a list.  The memoized
    ``pi1`` and ``product`` lists instead share the ``pi2`` and ``sum``
    lists on their set.  Sum-type values on V split uniquely into the
    product-type summand containing min(V) and the remaining sum; products
    split into the numerator/denominator factor groups, counted up to
    sign.  Every kind is built as one member per +/- pair, and no signed
    list is held.  The tree walk reaches a pair many times and keeps the
    first, through the one key set that ``iter_tree_reps`` holds per
    variable set; ``enumerate_tree_classes`` and ``count_tree_classes``
    both stream its top level.  Each grammar class is generated exactly
    once -- the uniqueness theorems for these decompositions are what the
    duplicate-freedom tests exercise.  Callers must not mutate a memoized
    list.  The builder also keeps one ``_converter``, built on first use
    (``count_tree_classes`` never needs one), so calls that share the
    builder share its polynomials and sign decisions.
    """

    def __init__(self) -> None:
        self._memo = {}  # (method, vars_) -> list

    @cached_property
    def _convert(self) -> Callable[[Iterable[Value], bool], Iterator[Frac]]:
        return _converter()

    def iter_tree_reps(self, vars_: frozenset[int]) -> Iterator[Value]:
        """One value per +/- pair of the values of every tree on vars_, the first one reached.

        For each unordered split, u + w, u - w, u*w, q = u/w and 1/q over the
        ``tree_reps`` u of the left part and w of the right, each yielded
        unless its pair's key is already held; a single variable is its own
        one value.  Only the keys of the pairs already reached are held.
        """
        if len(vars_) == 1:
            yield _leaf(min(vars_))
        width, seen = 1 << max(vars_), set()
        for left, right in _splits(vars_):  # none for a single variable
            rights = [(w, _reciprocal(w)) for w in self.tree_reps(right)]
            for u in self.tree_reps(left):
                for w, w_inv in rights:
                    q = _product(u, w_inv)
                    for r in (*_sums(u, w), _product(u, w), q, _reciprocal(q)):
                        key = _key(r, width)
                        if key not in seen:
                            seen.add(key)
                            yield r

    def iter_sum_reps(self, vars_: frozenset[int]) -> Iterator[Value]:
        """Sums p + a, p a product-type head holding min(vars_), a any tail.

        -(p + a) = -p + (-a), so heads from one member of each +/- pair and
        tails a = +-t over the tail members t give one member of each sum
        pair.  For each head the tails are the sum members, then the
        product members (a lone variable is both, so once); each tail list
        gives every p + t, then every p - t.
        """
        if len(vars_) == 1:
            yield _leaf(min(vars_))
        for head_vars, tail_vars in _splits(vars_):  # none for a single variable
            tail_lists = [self.sum_reps(tail_vars)]
            if len(tail_vars) > 1:
                tail_lists.append(self.product_reps(tail_vars))
            for p in self.product_reps(head_vars):
                for tails in tail_lists:
                    pluses, minuses = zip(*(_sums(p, t) for t in tails))
                    yield from pluses
                    yield from minuses

    def iter_pi2_reps(self, vars_: frozenset[int]) -> Iterator[Value]:
        """Products of >= 2 sum-type factors on disjoint variables, up to sign."""
        for head_vars, tail_vars in _splits(vars_):
            tails = self.pi1_reps(tail_vars)
            for s in self.sum_reps(head_vars):
                for r in tails:
                    yield _product(s, r)

    def iter_pi1_reps(self, vars_: frozenset[int]) -> Iterator[Value]:
        return chain(self.iter_pi2_reps(vars_), self.iter_sum_reps(vars_))

    def iter_product_reps(self, vars_: frozenset[int]) -> Iterator[Value]:
        """Pi2 products and each quotient n/d of Pi1 values with its reciprocal, up to sign."""
        if len(vars_) == 1:
            return self.iter_sum_reps(vars_)
        return chain(self.iter_pi2_reps(vars_), self._iter_quotients(vars_))

    def _iter_quotients(self, vars_: frozenset[int]) -> Iterator[Value]:
        """Each quotient n/d of Pi1 values over a split of vars_, then its reciprocal."""
        for num_vars, den_vars in _splits(vars_):
            inverses = [_reciprocal(d) for d in self.pi1_reps(den_vars)]
            for n in self.pi1_reps(num_vars):
                for d_inv in inverses:
                    f = _product(n, d_inv)
                    yield f
                    yield _reciprocal(f)

    @_memoized
    def tree_reps(self, vars_: frozenset[int]) -> list[Value]:
        return list(self.iter_tree_reps(vars_))

    @_memoized
    def sum_reps(self, vars_: frozenset[int]) -> list[Value]:
        return list(self.iter_sum_reps(vars_))

    @_memoized
    def pi2_reps(self, vars_: frozenset[int]) -> list[Value]:
        return list(self.iter_pi2_reps(vars_))

    @_memoized
    def pi1_reps(self, vars_: frozenset[int]) -> list[Value]:
        return self.pi2_reps(vars_) + self.sum_reps(vars_)

    @_memoized
    def product_reps(self, vars_: frozenset[int]) -> list[Value]:
        if len(vars_) == 1:
            return self.sum_reps(vars_)
        return self.pi2_reps(vars_) + list(self._iter_quotients(vars_))


def enumerate_grammar(
    k: int, kind: str, cutoff: int | None = None, builder: _GrammarBuilder | None = None
) -> list[Frac]:
    """Structurally generated classes on x1..xk for one grammar kind.

    ``kind`` is one of ``sum``, ``product``, ``pi1``, ``pi2``.  Each kind
    is built as one member per sign pair: ``pi1`` and ``pi2`` return those
    members, ``sum`` and ``product`` the members followed by their
    negations, formed here.  The members on x1..xk are converted as they
    are built, and only the lists of proper subsets are memoized in the
    builder.  List order is deterministic; each quotient of a product list
    sits next to its reciprocal, and the sums built from them follow that
    order.
    """
    _check_k(k, cutoff)
    b = builder if builder is not None else _GrammarBuilder()
    members = {
        "sum": b.iter_sum_reps,
        "product": b.iter_product_reps,
        "pi1": b.iter_pi1_reps,
        "pi2": b.iter_pi2_reps,
    }
    if kind not in members:
        raise ValueError(f"unknown grammar kind {kind!r}")
    full = frozenset(range(1, k + 1))
    return list(b._convert(members[kind](full), kind in ("sum", "product")))
