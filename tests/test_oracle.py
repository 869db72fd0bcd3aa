"""Enumeration oracle: tree classes, grammar generation, theorem checks."""

import hashlib
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from exprcount import (
    ClassSet,
    Frac,
    Poly,
    canonicalize,
    compute_table,
    enumerate_grammar,
    enumerate_tree_classes,
    enumerate_tree_classes_literal,
    iter_expression_trees,
    oracle,
    polys,
)
from exprcount.oracle import (
    _converter,
    _GrammarBuilder,
    _key,
    _leaf,
    _product,
    _reciprocal,
    _splits,
    _sums,
    count_tree_classes,
    tree_shapes,
)

X = [None] + [Frac.variable(i) for i in range(1, 7)]

# One converter for every k, as a _GrammarBuilder shares one.
CONVERT = _converter()


def _frac(x):
    """One oracle value as a Frac."""
    return CONVERT([x])[0]


def _fracs(values):
    """Oracle values as Fracs, in order."""
    return CONVERT(list(values))


def test_shape_counts_are_catalan():
    assert [len(tree_shapes(m)) for m in range(1, 6)] == [1, 1, 2, 5, 14]


def test_k1_classes():
    cs = enumerate_tree_classes(1)
    assert isinstance(cs, frozenset) and cs.classes is cs
    assert cs == frozenset({X[1], -X[1]})
    assert cs.classes == {X[1], -X[1]}
    assert len(enumerate_tree_classes(1)) == 2
    assert cs == enumerate_tree_classes_literal(1) != enumerate_tree_classes(2)


def test_k2_classes_match_manual_listing():
    expected = set()
    for f in (X[1] + X[2], X[1] - X[2], X[1] * X[2], X[1] / X[2], X[2] / X[1]):
        expected |= {f, -f}
    assert len(expected) == 10
    assert enumerate_tree_classes(2).classes == expected


def test_literal_enumeration_agrees_with_batched():
    # one-tree-at-a-time evaluation through the expression model must land
    # on the same class sets as the batched value composition
    for k in (1, 2, 3):
        literal, subsets = enumerate_tree_classes_literal(k), enumerate_tree_classes(k)
        assert type(literal) is type(subsets) is ClassSet and literal == subsets


def test_literal_tree_count():
    # Catalan(k-1) * k! * 4^(k-1) * 2^(2k-1) raw trees
    assert sum(1 for _ in iter_expression_trees(2)) == 1 * 2 * 4 * 8
    assert sum(1 for _ in iter_expression_trees(3)) == 2 * 6 * 16 * 32


@pytest.mark.parametrize("size", range(1, 7))
def test_splits_are_each_unordered_split_once(size):
    vars_ = frozenset(range(3, 3 + 2 * size, 2))
    splits = _splits(vars_)
    assert len(splits) == 2 ** (size - 1) - 1
    for left, right in splits:
        assert left and right and left | right == vars_ and not left & right
        assert min(vars_) in left
    assert len({frozenset(split) for split in splits}) == len(splits)


def test_cutoff_guard(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_tree_classes(5)
    with pytest.raises(ValueError):
        enumerate_tree_classes(3, cutoff=2)
    with pytest.raises(ValueError):
        enumerate_tree_classes(0)

    # no cutoff reaches past MAX_K: each call raises before any work (every
    # route first splits a variable set or lists tree shapes)
    def work(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(oracle, "_splits", work)
    monkeypatch.setattr(oracle, "tree_shapes", work)
    for route in (
        enumerate_tree_classes,
        count_tree_classes,
        lambda k, cutoff: enumerate_grammar(k, "sum", cutoff=cutoff),
        enumerate_tree_classes_literal,
    ):
        with pytest.raises(ValueError):
            route(8, cutoff=8)


def test_grammar_counts_match_engine():
    table = compute_table(4)
    for k in range(1, 5):
        row = table.row(k)
        assert len(enumerate_grammar(k, "sum")) == row.S
        assert len(enumerate_grammar(k, "product")) == row.P
        assert len(enumerate_grammar(k, "pi1")) == row.R
        if k >= 2:
            assert len(enumerate_grammar(k, "pi2")) == row.Q
    # the engine's Q_1 = 1 is a base-value convention of the recurrence;
    # no product of two or more disjoint-variable factors fits on one variable
    assert enumerate_grammar(1, "pi2") == []


def test_grammar_kind_aliases_and_validation():
    # only the four plain kind names are accepted; hyphenated spellings are not
    for kind in ("mystery", "sum-type", "product-type"):
        with pytest.raises(ValueError):
            enumerate_grammar(2, kind)


def test_grammar_base_case():
    assert enumerate_grammar(1, "sum") == [X[1], -X[1]]


def test_shared_builder_matches_fresh_builders_in_any_call_order():
    # one builder memoizes both routes per (method, subset): a memo keyed by
    # the subset alone would hand one route's lists to the other
    kinds = ("sum", "product", "pi1", "pi2")
    for k in range(1, 5):
        full = frozenset(range(1, k + 1))
        fresh = {kind: enumerate_grammar(k, kind) for kind in kinds}
        fresh_tree = _GrammarBuilder().tree_reps(full)
        for order in permutations(kinds):
            builder = _GrammarBuilder()
            assert builder.tree_reps(full) == fresh_tree
            for kind in order:
                assert enumerate_grammar(k, kind, builder=builder) == fresh[kind]
            assert builder.tree_reps(full) == fresh_tree
        # and the tree route on a builder holding every grammar list
        assert _grammar_builder(k).tree_reps(full) == fresh_tree


def test_grammar_union_equals_tree_classes():
    table = compute_table(5)
    for k in (1, 2, 3, 4, 5):
        builder = _GrammarBuilder()
        union = set(enumerate_grammar(k, "sum", cutoff=5, builder=builder))
        union |= set(enumerate_grammar(k, "product", cutoff=5, builder=builder))
        classes = enumerate_tree_classes(k, cutoff=5).classes
        assert union == classes
        assert len(classes) == table.row(k).A


def _grammar_builder(k, cutoff=None):
    """A builder holding every list the k-variable grammar memoizes."""
    builder = _GrammarBuilder()
    for kind in ("sum", "product", "pi1", "pi2"):
        enumerate_grammar(k, kind, cutoff=cutoff, builder=builder)
    return builder


def test_coefficient_bound_and_disjoint_supports():
    # the precondition of the oracle's encoding, on every value both oracle
    # routes build: numerator and denominator nonzero, no monomial with both
    # signs, none shared by numerator and denominator, and the value's
    # variables exactly those of its subset
    def check(x, vars_):
        nP, nN, dP, dN = x
        assert nP | nN and dP | dN
        assert not nP & nN and not dP & dN
        assert not (nP | nN) & (dP | dN)
        assert _frac(x).variables() == vars_

    for k in (1, 2, 3, 4, 5):
        builder = _grammar_builder(k, cutoff=5)
        builder.tree_reps(frozenset(range(1, k + 1)))
        lists = builder._memo
        # one member per sign pair only: a signed list in the memo fails here
        methods = {method.__name__ for method, _ in lists}
        assert methods == {"tree_reps", "sum_reps", "product_reps", "pi1_reps", "pi2_reps"}
        for (_, vars_), values in lists.items():
            for x in values:
                check(x, vars_)


def test_disjoint_ops_equal_the_general_operators():
    # every operand pair both routes join at k <= 4: the encoded results,
    # converted, against the gcd-based Frac operators on the converted operands
    full = range(1, 5)
    subsets = [frozenset(c) for m in range(2, 5) for c in combinations(full, m)]
    builder = _grammar_builder(4)
    builder.tree_reps(frozenset(full))

    def check_sums(x, y):
        fx, fy = _frac(x), _frac(y)
        assert tuple(_fracs(_sums(x, y))) == (fx + fy, fx - fy)

    def check_product(x, y):
        assert _frac(_product(x, y)) == _frac(x) * _frac(y)

    def check_quotients(x, y):
        q = _product(x, _reciprocal(y))
        fx, fy = _frac(x), _frac(y)
        assert _fracs((q, _reciprocal(q))) == [fx / fy, fy / fx]

    for vars_ in subsets:
        for left, right in _splits(vars_):
            for u in builder.tree_reps(left):
                for w in builder.tree_reps(right):
                    check_sums(u, w)
                    check_product(u, w)
                    check_quotients(u, w)
            for p in builder.product_reps(left):
                for t in builder.sum_reps(right) + builder.product_reps(right):
                    check_sums(p, t)
            for s in builder.sum_reps(left):
                for r in builder.pi1_reps(right):
                    check_product(s, r)
            for n in builder.pi1_reps(left):
                for d in builder.pi1_reps(right):
                    check_quotients(n, d)


def test_disjoint_sums_refuses_operands_that_share_a_monomial():
    # x1 + x1 merges x1 with itself, outside the join rule's precondition
    with pytest.raises(ArithmeticError):
        _sums(_leaf(1), _leaf(1))


def test_difference_and_quotient_constant_corollaries():
    classes = sorted(enumerate_tree_classes(2).classes, key=lambda f: f.render())
    for f1 in classes:
        for f2 in classes:
            if not (f1 - f2).variables():
                assert f1 == f2
            if not (f1 / f2).variables():
                assert f1 in (f2, -f2)


def _witness_sum(list1, list2):
    """Permutation pairing equal summands, as the uniqueness theorem states."""
    if len(list1) != len(list2):
        return False
    return any(
        all(a == b for a, b in zip(list1, perm)) for perm in permutations(list2)
    )


def _witness_sign(list1, list2):
    if len(list1) != len(list2):
        return False
    return any(
        all(a in (b, -b) for a, b in zip(list1, perm))
        for perm in permutations(list2)
    )


def _signed(reps):
    """A reps list followed by its negations, as the grammar's signed lists."""
    return reps + [-f for f in reps]


def test_sum_decomposition_uniqueness_theorem():
    # sums of product-type operands over disjoint variable blocks are equal
    # iff the summands match pairwise under some permutation
    builder = _GrammarBuilder()
    blocks = [frozenset({1}), frozenset({2, 3}), frozenset({4})]
    pools = [_signed(_fracs(builder.product_reps(b))) for b in blocks]
    rnd = random.Random(321)
    for _ in range(150):
        list1 = [rnd.choice(pool) for pool in pools]
        if rnd.random() < 0.5:
            list2 = list(list1)
            rnd.shuffle(list2)
        else:
            list2 = [rnd.choice(pool) for pool in pools]
        s1 = sum(list1[1:], list1[0])
        s2 = sum(list2[1:], list2[0])
        assert (s1 == s2) == _witness_sum(list1, list2)


def test_product_decomposition_uniqueness_theorem():
    # quotients of sum-type factors over disjoint blocks are equal up to
    # sign iff numerator and denominator factors match up to sign pairwise
    builder = _GrammarBuilder()
    num_blocks = [frozenset({1}), frozenset({2, 3})]
    den_blocks = [frozenset({4, 5})]
    num_pools = [_signed(_fracs(builder.sum_reps(b))) for b in num_blocks]
    den_pools = [_signed(_fracs(builder.sum_reps(b))) for b in den_blocks]
    rnd = random.Random(654)
    for _ in range(150):
        nums1 = [rnd.choice(pool) for pool in num_pools]
        dens1 = [rnd.choice(pool) for pool in den_pools]
        if rnd.random() < 0.5:
            nums2 = [f if rnd.random() < 0.5 else -f for f in nums1]
            rnd.shuffle(nums2)
            dens2 = [f if rnd.random() < 0.5 else -f for f in dens1]
        else:
            nums2 = [rnd.choice(pool) for pool in num_pools]
            dens2 = [rnd.choice(pool) for pool in den_pools]
        f1 = _prod(nums1) / _prod(dens1)
        f2 = _prod(nums2) / _prod(dens2)
        expected = _witness_sign(nums1, nums2) and _witness_sign(dens1, dens2)
        assert (f1 in (f2, -f2)) == expected


def _prod(fracs):
    out = fracs[0]
    for f in fracs[1:]:
        out = out * f
    return out


def test_tree_memo_holds_one_value_per_sign_pair():
    for k in range(1, 6):
        full = frozenset(range(1, k + 1))
        builder = _GrammarBuilder()
        builder.tree_reps(full)
        assert {method.__name__ for method, _ in builder._memo} == {"tree_reps"}
        memo = {vars_: reps for (_, vars_), reps in builder._memo.items()}
        assert set(memo) == {
            frozenset(c) for m in range(1, k + 1) for c in combinations(range(1, k + 1), m)
        }
        for reps in memo.values():
            # 2n distinct values: no repeat, and never both f and -f
            fracs = _fracs(reps)
            assert len(set(fracs) | {-f for f in fracs}) == 2 * len(reps)
        reps = set(_fracs(memo[full]))
        assert reps | {-f for f in reps} == enumerate_tree_classes(k, cutoff=5).classes
        assert count_tree_classes(k, cutoff=5) == 2 * len(reps)


def test_key_is_one_per_sign_pair():
    # the four encodings (+-n)/(+-d) of each k = 4 tree value convert to f
    # and -f and share one key; distinct pairs have distinct keys.  The walk
    # reaches each pair in one encoding, so only this test sees the others.
    full = frozenset(range(1, 5))
    reps = _GrammarBuilder().tree_reps(full)
    for x in reps:
        nP, nN, dP, dN = x
        encodings = [(nP, nN, dP, dN), (nN, nP, dN, dP), (nN, nP, dP, dN), (nP, nN, dN, dP)]
        f = _frac(x)
        assert _fracs(encodings) == [f, f, -f, -f]
        assert len({_key(e, 1 << 4) for e in encodings}) == 1
    assert len({_key(x, 1 << 4) for x in reps}) == len(reps) == 1466 // 2


def _raw_poly(P, N):
    """The polynomial with coefficient +1 on the masks set in P and -1 on those in N."""
    return Poly(
        {
            tuple((i + 1, 1) for i in range(5) if m >> i & 1): 1 if P >> m & 1 else -1
            for m in range(1 << 5)
            if (P | N) >> m & 1
        }
    )


def test_converter_matches_canonicalize():
    # every value both routes memoize at k = 5 (the memo holds every subset
    # of x1..x5, so every value of k <= 5): the converted Frac is the gcd
    # route's canonical pair, its denominator leads positive, and a signed
    # conversion appends its negation
    builder = _grammar_builder(5, cutoff=5)
    builder.tree_reps(frozenset(range(1, 6)))
    for x in {x for values in builder._memo.values() for x in values}:
        nP, nN, dP, dN = x
        f, negation = CONVERT([x], True)
        assert f == canonicalize(_raw_poly(nP, nN), _raw_poly(dP, dN))
        assert f.den.leading_coeff() > 0
        assert negation == -f


def test_grammar_conversion_decides_each_denominator_sign_once(monkeypatch):
    # one perfbench verify round's grammar step: the graded-lex sign is read
    # once per distinct denominator pair (dP, dN), and no Poly is negated
    leading = Counter()
    negations = Counter()
    leading_coeff, neg = Poly.leading_coeff, Poly.__neg__

    def counted_leading_coeff(p):
        leading[p] += 1
        return leading_coeff(p)

    def counted_neg(p):
        negations[p] += 1
        return neg(p)

    monkeypatch.setattr(Poly, "leading_coeff", counted_leading_coeff)
    monkeypatch.setattr(Poly, "__neg__", counted_neg)
    builder = _GrammarBuilder()
    values = enumerate_grammar(5, "sum", cutoff=5, builder=builder)
    values += enumerate_grammar(5, "product", cutoff=5, builder=builder)
    assert len(values) == len(set(values)) == 31814
    full = frozenset(range(1, 6))
    denominators = {(dP, dN) for _, _, dP, dN in builder.sum_reps(full) + builder.product_reps(full)}
    assert max(leading.values()) == 1
    assert sum(leading.values()) <= len(denominators)
    assert not negations


def test_grammar_round_set_hashes_each_polynomial_once(monkeypatch):
    # perfbench's duplicate check on one verify round's grammar step: two
    # Poly hashes per Frac, and the term set is hashed once per distinct
    # polynomial (the converter shares them), later hashes read the cache
    builder = _GrammarBuilder()
    values = enumerate_grammar(5, "sum", cutoff=5, builder=builder)
    values += enumerate_grammar(5, "product", cutoff=5, builder=builder)
    calls, computed = Counter(), Counter()
    poly_hash = Poly.__hash__

    def counted_hash(p):
        calls[id(p)] += 1
        return poly_hash(p)

    def counted_frozenset(items):
        computed["terms"] += 1
        return frozenset(items)

    monkeypatch.setattr(Poly, "__hash__", counted_hash)
    monkeypatch.setattr(polys, "frozenset", counted_frozenset, raising=False)
    assert len(set(values)) == len(values) == 31814
    distinct = {id(p) for f in values for p in (f.num, f.den)}
    assert sum(calls.values()) == 2 * len(values) == 63628
    assert set(calls) == distinct
    assert computed["terms"] == len(distinct) <= 6635


def test_count_tree_classes_builds_no_converter(monkeypatch):
    def refuse():
        raise AssertionError("count_tree_classes built a converter")

    monkeypatch.setattr(oracle, "_converter", refuse)
    assert count_tree_classes(4) == 1466
    with pytest.raises(AssertionError, match="built a converter"):
        enumerate_tree_classes(2)


def test_count_tree_classes_at_k6():
    assert count_tree_classes(6, cutoff=6) == compute_table(6).row(6).A == 887650


def test_k6_grammar_reps_have_distinct_keys():
    # each kind's k = 6 list holds one member of as many +/- pairs as the
    # engine counts classes (S_6/2, P_6/2, R_6, Q_6), each pair once
    row = compute_table(6).row(6)
    builder = _GrammarBuilder()
    full = frozenset(range(1, 7))
    lengths = {
        builder.sum_reps: row.S // 2,
        builder.product_reps: row.P // 2,
        builder.pi1_reps: row.R,
        builder.pi2_reps: row.Q,
    }
    for reps_of, length in lengths.items():
        reps = reps_of(full)
        assert len({_key(x, 1 << 6) for x in reps}) == len(reps) == length


def _all_signed_pairs_values(vars_, memo):
    """The tree recursion over every signed u and w, kept as a reference."""
    if len(vars_) == 1:
        x = Frac.variable(min(vars_))
        return frozenset((x, -x))
    if vars_ not in memo:
        out = set()
        for left, right in _splits(vars_):
            for u in _all_signed_pairs_values(left, memo):
                for w in _all_signed_pairs_values(right, memo):
                    for r in (u + w, u * w, u / w, w / u):
                        out |= {r, -r}
        memo[vars_] = frozenset(out)
    return memo[vars_]


def test_representative_walk_matches_all_signed_pairs():
    for k in range(1, 5):
        reference = _all_signed_pairs_values(frozenset(range(1, k + 1)), {})
        assert enumerate_tree_classes(k).classes == reference


# SHA-256 of each grammar list's rendered entries, one per line, built with
# one shared builder for k = 1..4.  A change that reorders a list shows here.
GRAMMAR_DIGESTS = {
    (1, "sum"): "90a515e3339b3ded9a2937fbabde81b91845280a7d4d2481f6f1717d4e2582bb",
    (1, "product"): "90a515e3339b3ded9a2937fbabde81b91845280a7d4d2481f6f1717d4e2582bb",
    (1, "pi1"): "18e8661d9784dba1ffc41c00cca98d99813f8917fd5f8da9a71a99a286176541",
    (1, "pi2"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, "sum"): "ba4668b05656a8a2ddbfdb62fc25d5d57818b3858a5d4504dec1e376d200f678",
    (2, "product"): "5c6e70d286f369cfaa358f49e1df0894af8d2de046b0817b8cddf98b6a16d930",
    (2, "pi1"): "dd8a6f65cc5e2d3b492de88bf7f1a9c2ba193aa8c240f1451fe24c52d2c2e164",
    (2, "pi2"): "e0504c11be701d13e9b65fb091c6de6a1f9d90c09d01dc58026f1c85a2b67ac8",
    (3, "sum"): "ab9759aa93bb6fb3866602aa9a1e3639bc0dfdfb376932c4f3bed8e757e8efd1",
    (3, "product"): "9fc9ff4212fcd3a7ccb31fcac54514b3901ab748a362cc9f144e958ef05fad24",
    (3, "pi1"): "d88abdc77d162cd820fc77048e41344bf0ed0a2eec208cc8416f824e7f94c94d",
    (3, "pi2"): "871b81563ed651cb238b38da422538a0ac44fd4ada2794806c64a9d58501fcd4",
    (4, "sum"): "c2e472ad25059ebb9b9656ef59bc7853949154c79b6718005952edb73d05cd97",
    (4, "product"): "b3f6bf84751647eec995b147462734e18a5350b3912ded139f74f865d446dcfa",
    (4, "pi1"): "ccf7ef165ee0a5046b04a6e8325178356176c870a7bf1e73194eb66b6f23984d",
    (4, "pi2"): "5372958e724a3c6b990c7dd05abc44ca537d09d93eede1717b7d66113efdf4dd",
}


def test_grammar_list_order_is_pinned():
    builder = _GrammarBuilder()
    for (k, kind), digest in GRAMMAR_DIGESTS.items():
        values = enumerate_grammar(k, kind, builder=builder)
        text = "\n".join(f.render() for f in values)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (k, kind)


def test_grammar_reps_hold_one_member_of_each_sign_pair():
    builder = _GrammarBuilder()
    for m in range(1, 5):
        for chosen in combinations(range(1, 5), m):
            vars_ = frozenset(chosen)
            sums, products = builder.sum_reps(vars_), builder.product_reps(vars_)
            for reps in (sums, products, builder.pi1_reps(vars_), builder.pi2_reps(vars_)):
                # never both f and -f, and no repeat
                fracs = _fracs(reps)
                assert len(set(fracs) | {-f for f in fracs}) == 2 * len(reps)
    # the signed lists exist only at the boundary: reps, then their negations
    for k in range(1, 5):
        full = frozenset(range(1, k + 1))
        sums, products = builder.sum_reps(full), builder.product_reps(full)
        assert enumerate_grammar(k, "sum", builder=builder) == _signed(_fracs(sums))
        assert enumerate_grammar(k, "product", builder=builder) == _signed(_fracs(products))


@pytest.mark.exact_k6
def test_exact_k6_tree_and_grammar_routes():
    # A_6 by both exact routes as Frac values; about 21 s and 0.4 GB, so
    # deselected by default (see pyproject.toml) and run with `pytest -m exact_k6`.
    row = compute_table(6).row(6)
    classes = enumerate_tree_classes(6, cutoff=6).classes
    assert len(classes) == row.A == 887650
    builder = _GrammarBuilder()
    lengths = {"sum": row.S, "product": row.P, "pi1": row.R, "pi2": row.Q}
    for kind, length in lengths.items():
        values = enumerate_grammar(6, kind, cutoff=6, builder=builder)
        assert len(values) == len(set(values)) == length
    union = set(enumerate_grammar(6, "sum", cutoff=6, builder=builder))
    union.update(enumerate_grammar(6, "product", cutoff=6, builder=builder))
    assert union == classes
