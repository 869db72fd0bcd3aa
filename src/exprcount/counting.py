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

Two symmetries of the sums bring row k down to 4k - 2 big-integer
multiplications: about 2.5k products of two counts and 1.5k products by a
binomial.  In the S and Q sums the binomial is symmetric,
C(k-1, j-1) = C(k-1, k-j), so the terms j and k+1-j share one weight:

    C(k-1, j-1) * (P_j * A_{k-j} + P_{k+1-j} * A_{j-1})    for 2 <= j <= k/2,

with j = (k+1)/2 alone when k is odd, and the j = 1 term of weight 1
needing no binomial multiply.  In the P sum the whole term is symmetric
under j -> k-j, so the terms j < k/2 are added once and doubled, with
j = k/2 alone when k is even.  Every binomial multiplies a finished
product, never one factor of it: the balanced product of two counts is
formed first and then scaled by the binomial, its shorter factor.

Only two Pascal-triangle rows are alive at any point, giving linear memory
in stored integers and a quadratic operation count overall.
"""

from __future__ import annotations

from collections import namedtuple


class InexactDivisionError(ArithmeticError):
    """A halving step in the recurrence hit an odd value (internal fault)."""


SequenceRow = namedtuple("SequenceRow", "S Q R P A")

BASE_ROW = SequenceRow(S=2, Q=1, R=1, P=2, A=2)


class SequenceTable:
    """Counts for k = 1..n; immutable and safe to share across threads."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[SequenceRow, ...]):
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    def row(self, k: int) -> SequenceRow:
        if not 1 <= k <= self.n:
            raise IndexError(f"k must be in 1..{self.n}, got {k}")
        return self.rows[k - 1]


class OpCounter:
    """Tally of arbitrary-precision integer operations, for benchmarking."""

    __slots__ = ("muls", "adds", "divs")

    def __init__(self):
        self.muls = self.adds = self.divs = 0


def _next_row(
    rows: list[SequenceRow],
    bkm1: tuple[int, ...],
    bk: tuple[int, ...],
    counter: OpCounter | None,
) -> SequenceRow:
    """Row k = len(rows)+1 from rows 1..k-1 and Pascal rows k-1 and k."""
    k = len(rows) + 1

    # S and Q: the j = 1 term has weight C(k-1, 0) = 1, terms j and k+1-j
    # share C(k-1, j-1), and j = (k+1)/2 (k odd) pairs with itself.
    # rows[i] holds row i+1.
    first, last = rows[0], rows[k - 2]
    s = first.P * last.A
    total = first.S * last.R
    for j in range(2, k // 2 + 1):
        c = bkm1[j - 1]
        lo, lo_mate = rows[j - 1], rows[k - j - 1]  # rows j and k-j
        hi, hi_mate = rows[k - j], rows[j - 2]  # rows k+1-j and j-1
        s += c * (lo.P * lo_mate.A + hi.P * hi_mate.A)
        total += c * (lo.S * lo_mate.R + hi.S * hi_mate.R)
    if k % 2:
        j = (k + 1) // 2
        c, mid, mate = bkm1[j - 1], rows[j - 1], rows[j - 2]
        s += c * (mid.P * mate.A)
        total += c * (mid.S * mate.R)
    if total % 2:
        raise InexactDivisionError(f"Q numerator odd at k={k}")
    q = total // 2

    if s % 2:
        raise InexactDivisionError(f"S_k odd at k={k}")
    r = q + s // 2

    # P: terms j and k-j are equal, so the terms j < k/2 count twice and
    # j = k/2 (k even) once.
    total = 0
    for j in range(1, (k + 1) // 2):
        total += bk[j] * (rows[j - 1].R * rows[k - j - 1].R)
    total = q + 2 * total
    if k % 2 == 0:
        mid = rows[k // 2 - 1].R
        total += bk[k // 2] * (mid * mid)
    p = 2 * total

    a = s + p

    if counter is not None:
        # Per row: S and Q each 1 + 3 per pair + 2 for a middle term, P 2 per
        # term, 2 for a middle term and 2 doublings, in all 4k - 2 products;
        # S and Q 2 additions per pair and 1 for a middle term, P 1 per term,
        # 1 for q and 1 for a middle term, then r and a: (5k - 2) // 2 sums.
        counter.muls += 4 * k - 2
        counter.adds += (5 * k - 2) // 2
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
