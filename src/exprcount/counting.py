"""Recurrence engine for the expression-counting sequences.

For each k the engine produces five arbitrary-precision counts of
inequivalent expressions on k distinct variables:

    S_k  sum-type expressions,
    Q_k  products of two or more sum-type factors, counted up to sign,
    R_k  Q_k plus sum-type expressions up to sign (R_k = Q_k + S_k/2),
    P_k  product-type expressions,
    A_k  expressions of either type (A_k = S_k + P_k for k >= 2).

Starting from S_1 = P_1 = A_1 = 2 and Q_1 = R_1 = 1, each row follows from
the earlier rows by convolutions against one row of binomial coefficients:

    S_k = sum_{j=1}^{k-1} C(k-1, j-1) * P_j * A_{k-j}
    Q_k = ( sum_{j=1}^{k-1} C(k-1, j-1) * S_j * R_{k-j} ) / 2
    R_k = Q_k + S_k / 2
    P_k = 2 * ( Q_k + sum_{j=1}^{k-1} C(k, j) * R_j * R_{k-j} )
    A_k = S_k + P_k

Both divisions are exact because sum-type expressions pair up with their
negations; an odd sum would mean a bug, so it raises instead of truncating.
Only two Pascal-triangle rows are alive at any point, giving linear memory
in stored integers and a quadratic operation count overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class InexactDivisionError(ArithmeticError):
    """A halving step in the recurrence hit an odd value (internal fault)."""


class SequenceRow(NamedTuple):
    S: int
    Q: int
    R: int
    P: int
    A: int


BASE_ROW = SequenceRow(S=2, Q=1, R=1, P=2, A=2)


@dataclass(frozen=True)
class SequenceTable:
    """Counts for k = 1..n; immutable and safe to share across threads."""

    rows: tuple[SequenceRow, ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def row(self, k: int) -> SequenceRow:
        if not 1 <= k <= self.n:
            raise IndexError(f"k must be in 1..{self.n}, got {k}")
        return self.rows[k - 1]


@dataclass
class OpCounter:
    """Tally of arbitrary-precision integer operations, for benchmarking."""

    muls: int = 0
    adds: int = 0
    divs: int = 0


def _next_row(
    rows: list[SequenceRow],
    bkm1: tuple[int, ...],
    bk: tuple[int, ...],
    counter: OpCounter | None,
) -> SequenceRow:
    """Row k = len(rows)+1 from rows 1..k-1 and Pascal rows k-1 and k."""
    k = len(rows) + 1

    total = 0
    for j in range(1, k):
        total += bkm1[j - 1] * rows[j - 1].P * rows[k - j - 1].A
    s = total

    total = 0
    for j in range(1, k):
        total += bkm1[j - 1] * rows[j - 1].S * rows[k - j - 1].R
    if total % 2:
        raise InexactDivisionError(f"Q numerator odd at k={k}")
    q = total // 2

    if s % 2:
        raise InexactDivisionError(f"S_k odd at k={k}")
    r = q + s // 2

    total = q
    for j in range(1, k):
        total += bk[j] * rows[j - 1].R * rows[k - j - 1].R
    p = 2 * total

    a = s + p

    if counter is not None:
        counter.muls += 6 * (k - 1) + 1
        counter.adds += 3 * (k - 1) + 2
        counter.divs += 2
    return SequenceRow(S=s, Q=q, R=r, P=p, A=a)


def compute_table(n: int, counter: OpCounter | None = None) -> SequenceTable:
    """All five sequences for k = 1..n.

    Keeps only the current and previous Pascal rows while running.  Raises
    ValueError for n < 1 and InexactDivisionError if an exactness check
    ever fails (which would indicate a bug, not bad input).
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    rows: list[SequenceRow] = [BASE_ROW]
    # Pascal rows k-1 and k: bkm1[j] = C(k-1, j) and bk[j] = C(k, j).
    bkm1: tuple[int, ...] = (1, 1)
    bk: tuple[int, ...] = (1, 2, 1)
    for k in range(2, n + 1):
        rows.append(_next_row(rows, bkm1, bk, counter))
        if k < n:
            # Drop row k-1 before building row k+1 from C(k+1, j) =
            # C(k, j) + C(k, j-1): two rows live at a time.
            bkm1 = bk
            bk = (1,) + tuple(bkm1[j - 1] + bkm1[j] for j in range(1, k + 1)) + (1,)
            if counter is not None:
                counter.adds += k
    return SequenceTable(tuple(rows))
