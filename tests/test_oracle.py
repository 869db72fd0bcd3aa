"""Enumeration oracle: tree classes, grammar generation, theorem checks."""

import hashlib
import random
from itertools import combinations, permutations

import pytest

from exprcount import (
    Frac,
    compute_table,
    enumerate_grammar,
    enumerate_tree_classes,
    enumerate_tree_classes_literal,
    iter_expression_trees,
    tree_shapes,
)
from exprcount.oracle import _GrammarBuilder, _splits, _tree_values
from exprcount.rational import disjoint_product, disjoint_sum

X = [None] + [Frac.variable(i) for i in range(1, 7)]


def test_shape_counts_are_catalan():
    assert [len(tree_shapes(m)) for m in range(1, 6)] == [1, 1, 2, 5, 14]


def test_k1_classes():
    cs = enumerate_tree_classes(1)
    assert cs.classes == {X[1], -X[1]}
    assert len(enumerate_tree_classes(1)) == 2


def test_k2_classes_match_manual_listing():
    expected = set()
    for f in (X[1] + X[2], X[1] - X[2], X[1] * X[2], X[1] / X[2], X[2] / X[1]):
        expected |= {f, -f}
    assert len(expected) == 10
    assert enumerate_tree_classes(2).classes == expected


def test_oracle_agrees_with_engine_small_k():
    table = compute_table(3)
    for k in (1, 2, 3):
        assert len(enumerate_tree_classes(k)) == table.row(k).A


def test_literal_enumeration_agrees_with_batched():
    # one-tree-at-a-time evaluation through the expression model must land
    # on the same class sets as the batched value composition
    for k in (1, 2, 3):
        assert enumerate_tree_classes_literal(k).classes == enumerate_tree_classes(k).classes


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


def test_cutoff_guard():
    with pytest.raises(ValueError):
        enumerate_tree_classes(5)
    with pytest.raises(ValueError):
        enumerate_tree_classes(3, cutoff=2)
    with pytest.raises(ValueError):
        enumerate_tree_classes(0)


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


def test_grammar_is_duplicate_free():
    for k in range(1, 5):
        for kind in ("sum", "product", "pi1", "pi2"):
            values = enumerate_grammar(k, kind)
            assert len(values) == len(set(values))


def test_sum_and_product_types_disjoint_for_k_at_least_2():
    for k in (2, 3):
        assert not set(enumerate_grammar(k, "sum")) & set(enumerate_grammar(k, "product"))


def test_shared_builder_matches_fresh_builders_in_any_call_order():
    kinds = ("sum", "product", "pi1", "pi2")
    for k in range(1, 5):
        fresh = {kind: enumerate_grammar(k, kind) for kind in kinds}
        for order in permutations(kinds):
            builder = _GrammarBuilder()
            for kind in order:
                assert enumerate_grammar(k, kind, builder=builder) == fresh[kind]


def test_grammar_union_equals_tree_classes():
    table = compute_table(5)
    for k in (1, 2, 3, 4, 5):
        builder = _GrammarBuilder()
        union = set(enumerate_grammar(k, "sum", cutoff=5, builder=builder))
        union |= set(enumerate_grammar(k, "product", cutoff=5, builder=builder))
        classes = enumerate_tree_classes(k, cutoff=5).classes
        assert union == classes
        assert len(classes) == table.row(k).A


def test_classes_have_full_variable_sets():
    for k in (1, 2, 3):
        full = frozenset(range(1, k + 1))
        assert all(f.variables() == full for f in enumerate_tree_classes(k).classes)


def test_classes_closed_under_negation_and_sum_pairing():
    for k in (1, 2, 3):
        classes = enumerate_tree_classes(k).classes
        assert all(-f in classes for f in classes)
        sums = set(enumerate_grammar(k, "sum"))
        assert len(sums) % 2 == 0
        assert all(-f in sums for f in sums)


def _grammar_builder(k, cutoff=None):
    """A builder holding every list the k-variable grammar memoizes."""
    builder = _GrammarBuilder()
    for kind in ("sum", "product", "pi1", "pi2"):
        enumerate_grammar(k, kind, cutoff=cutoff, builder=builder)
    return builder


def test_coefficient_bound_and_disjoint_supports():
    # the precondition of rational's disjoint_* arithmetic, on every value
    # both oracle routes build
    def check(f):
        assert all(c in (-1, 1) for c in f.num.terms.values())
        assert all(c in (-1, 1) for c in f.den.terms.values())
        assert not set(f.num.terms) & set(f.den.terms)

    for k in (1, 2, 3, 4, 5):
        for f in enumerate_tree_classes(k, cutoff=5).classes:
            check(f)
        lists = _grammar_builder(k, cutoff=5)._memo
        methods = {method.__name__ for method, _ in lists}
        assert methods >= {
            "sum_reps", "sum_values", "product_reps", "product_values", "pi1_reps", "pi2_reps",
            "all_values",
        }
        for values in lists.values():
            for f in values:
                check(f)


def test_disjoint_ops_equal_the_general_operators():
    # every operand pair both routes join at k <= 4, against the gcd-based
    # Frac operators
    full = range(1, 5)
    subsets = [frozenset(c) for m in range(2, 5) for c in combinations(full, m)]
    memo: dict = {}
    _tree_values(frozenset(full), memo)
    builder = _grammar_builder(4)
    for vars_ in subsets:
        for left, right in _splits(vars_):
            for u in memo[left]:
                for w in memo[right]:
                    assert disjoint_sum(u, w) == u + w
                    assert disjoint_sum(u, -w) == u - w
                    assert disjoint_product(u, w) == u * w
                    assert disjoint_product(u, w.reciprocal()) == u / w
            for p in builder.product_values(left):
                for a in builder.all_values(right):
                    assert disjoint_sum(p, a) == p + a
            for s in builder.sum_reps(left):
                for r in builder.pi1_reps(right):
                    assert disjoint_product(s, r) == s * r
            for n in builder.pi1_reps(left):
                for d in builder.pi1_reps(right):
                    assert disjoint_product(n, d.reciprocal()) == n / d


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


def test_sum_decomposition_uniqueness_theorem():
    # sums of product-type operands over disjoint variable blocks are equal
    # iff the summands match pairwise under some permutation
    builder = _GrammarBuilder()
    blocks = [frozenset({1}), frozenset({2, 3}), frozenset({4})]
    pools = [builder.product_values(b) for b in blocks]
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
    num_pools = [builder.sum_values(b) for b in num_blocks]
    den_pools = [builder.sum_values(b) for b in den_blocks]
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


def test_dump_classes_deterministic_and_golden():
    lines = sorted(f.render() for f in enumerate_tree_classes(2).classes)
    assert len(lines) == 10
    assert "(x1 + x2)/(1)" in lines
    assert "(x2)/(x1)" in lines
    assert lines == sorted(f.render() for f in enumerate_tree_classes(2).classes)


def test_tree_memo_holds_one_value_per_sign_pair():
    for k in range(1, 6):
        full = frozenset(range(1, k + 1))
        memo: dict = {}
        _tree_values(full, memo)
        assert set(memo) == {
            frozenset(c) for m in range(1, k + 1) for c in combinations(range(1, k + 1), m)
        }
        for reps in memo.values():
            # 2n distinct values: no repeat, and never both f and -f
            assert len(set(reps) | {-f for f in reps}) == 2 * len(reps)
        reps = set(memo[full])
        assert reps | {-f for f in reps} == enumerate_tree_classes(k, cutoff=5).classes


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
                    q = u / w
                    for r in (u + w, u * w, q, q.reciprocal()):
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
            assert builder.sum_values(vars_) == sums + [-f for f in sums]
            assert builder.product_values(vars_) == products + [-f for f in products]
            for reps in (sums, products, builder.pi1_reps(vars_), builder.pi2_reps(vars_)):
                # never both f and -f, and no repeat
                assert len(set(reps) | {-f for f in reps}) == 2 * len(reps)


@pytest.mark.exact_k6
def test_exact_k6_tree_and_grammar_routes():
    # A_6 by both exact routes; about a minute and 1 GB, so deselected by
    # default (see pyproject.toml) and run with `pytest -m exact_k6`.
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
