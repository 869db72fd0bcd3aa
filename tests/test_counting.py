"""Recurrence engine: base values, derived rows, invariants, memory shape."""

import pytest

from exprcount import (
    BASE_ROW,
    OpCounter,
    SequenceRow,
    compute_table,
)


def test_base_row():
    table = compute_table(1)
    assert table.n == 1
    assert table.row(1) == SequenceRow(S=2, Q=1, R=1, P=2, A=2)
    assert table.row(1) == BASE_ROW


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        compute_table(0)
    with pytest.raises(ValueError):
        compute_table(-3)


# Rows for k = 2..4 are frozen from the exhaustive tree-enumeration oracle
# (see test_oracle.py); the engine must reproduce them exactly.
EXPECTED = {
    2: SequenceRow(S=4, Q=1, R=3, P=6, A=10),
    3: SequenceRow(S=44, Q=7, R=29, P=50, A=94),
    4: SequenceRow(S=668, Q=113, R=447, P=798, A=1466),
}


def test_small_rows_match_oracle_derived_values():
    table = compute_table(4)
    for k, row in EXPECTED.items():
        assert table.row(k) == row


def test_prefix_stability():
    big = compute_table(60)
    for m in (1, 2, 17, 59, 60):
        assert compute_table(m).rows == big.rows[:m]


def test_invariants_through_n_200():
    table = compute_table(200)
    for k, row in enumerate(table.rows, start=1):
        assert row.S % 2 == 0
        assert row.P % 2 == 0
        assert all(v > 0 for v in row)
        if k >= 2:
            # both identities hold from k = 2 on; the k = 1 base row is pinned
            assert row.A == row.S + row.P
            assert row.R == row.Q + row.S // 2


def test_growth_is_monotonic():
    table = compute_table(30)
    for k in range(2, 31):
        assert table.row(k).A > table.row(k - 1).A


def test_operation_count_scales_quadratically():
    c1, c2 = OpCounter(), OpCounter()
    compute_table(256, c1)
    compute_table(512, c2)
    ratio = c2.muls / c1.muls
    assert 3.6 <= ratio <= 4.4


def test_table_is_immutable_and_indexable():
    table = compute_table(5)
    assert isinstance(table.rows, tuple)
    with pytest.raises(IndexError):
        table.row(0)
    with pytest.raises(IndexError):
        table.row(6)
