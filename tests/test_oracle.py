"""Enumeration oracle: tree classes, grammar generation, theorem checks."""

import io
import random
from itertools import permutations

import pytest

from exprcount import (
    Frac,
    compute_table,
    dump_classes,
    enumerate_grammar,
    enumerate_tree_classes,
    enumerate_tree_classes_literal,
    iter_expression_trees,
    oracle_count,
    tree_shapes,
)
from exprcount import oracle
from exprcount.oracle import _GrammarBuilder, _splits

X = [None] + [Frac.variable(i) for i in range(1, 7)]


def test_shape_counts_are_catalan():
    assert [len(tree_shapes(m)) for m in range(1, 6)] == [1, 1, 2, 5, 14]


def test_k1_classes():
    cs = enumerate_tree_classes(1)
    assert cs.classes == {X[1], -X[1]}
    assert oracle_count(1) == 2


def test_k2_classes_match_manual_listing():
    expected = set()
    for f in (X[1] + X[2], X[1] - X[2], X[1] * X[2], X[1] / X[2], X[2] / X[1]):
        expected |= {f, -f}
    assert len(expected) == 10
    assert enumerate_tree_classes(2).classes == expected


def test_oracle_agrees_with_engine_small_k():
    table = compute_table(3)
    for k in (1, 2, 3):
        assert oracle_count(k) == table.row(k).A


def test_literal_enumeration_agrees_with_batched():
    # one-tree-at-a-time evaluation through the expression model must land
    # on the same class sets as the batched value composition
    for k in (1, 2, 3):
        assert enumerate_tree_classes_literal(k).classes == enumerate_tree_classes(k).classes


def test_literal_tree_count():
    # Catalan(k-1) * k! * 4^(k-1) * 2^(2k-1) raw trees
    assert sum(1 for _ in iter_expression_trees(2)) == 1 * 2 * 4 * 8
    assert sum(1 for _ in iter_expression_trees(3)) == 2 * 6 * 16 * 32


def test_parallel_enumeration_identical():
    # k = 1 has no root split to share out and runs serially
    for k in (1, 3, 4):
        single = enumerate_tree_classes(k, processes=1)
        multi = enumerate_tree_classes(k, processes=2)
        assert single.classes == multi.classes


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    def __init__(self, seen, max_workers=None):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_worker_pool_capped_at_root_splits(monkeypatch):
    # k = 3 has 2^2 - 1 = 3 unordered root splits, so a larger request must
    # not reach the pool (fork would start every worker at once)
    seen = []
    monkeypatch.setattr(
        oracle, "ProcessPoolExecutor", lambda **kw: _SerialPool(seen, **kw)
    )
    result = enumerate_tree_classes(3, processes=10**6)
    assert seen and all(n <= 3 for n in seen)
    assert result.classes == enumerate_tree_classes(3).classes


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
        oracle_count(0)


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


def test_coefficient_bound_and_disjoint_supports():
    for k in (1, 2, 3):
        for f in enumerate_tree_classes(k).classes:
            assert all(c in (-1, 1) for c in f.num.terms.values())
            assert all(c in (-1, 1) for c in f.den.terms.values())
            assert not set(f.num.terms) & set(f.den.terms)


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
    cs = enumerate_tree_classes(2)
    buf = io.StringIO()
    dump_classes(cs, buf)
    lines = buf.getvalue().splitlines()
    assert lines == sorted(lines)
    assert len(lines) == 10
    expected = sorted(f.render() for f in cs.classes)
    assert lines == expected
    assert "(x1 + x2)/(1)" in lines
    assert "(x2)/(x1)" in lines
    again = io.StringIO()
    dump_classes(enumerate_tree_classes(2), again)
    assert again.getvalue() == buf.getvalue()
