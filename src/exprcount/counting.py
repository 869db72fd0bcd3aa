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

From row 100 on, where os.fork exists and the process may run on at least
two CPUs, each row is split over two processes (exprcount._split): the
caller computes S_k and the odd-j P terms, a forked worker the Q numerator
and the even-j terms, the two swap these sums once per row over two pipes,
and both assemble the row with the same checks.  The sums are exact, so
the rows are the serial engine's, whichever process computed each sum.
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


# The split's first row.  On a 2-vCPU host one exchange of sums cost about
# 50 us, what row 80 to 100 takes in one process; the fork and the reaping
# cost about 3 ms, won back by n = 160.
_SPLIT_FROM = 100


def _paired_sum(rows: list[SequenceRow], bkm1: tuple[int, ...], f: int, g: int) -> int:
    """sum_{j=1}^{k-1} C(k-1, j-1) * F_j * G_{k-j}, k = len(rows) + 1.

    F and G are the row fields at indices f and g: P and A for S_k, S and R
    for twice Q_k.  The j = 1 term has weight C(k-1, 0) = 1, terms j and
    k+1-j share C(k-1, j-1), and j = (k+1)/2 (k odd) pairs with itself.
    """
    k = len(rows) + 1
    # rows[i] holds row i+1.
    total = rows[0][f] * rows[k - 2][g]
    for j in range(2, k // 2 + 1):
        lo, lo_mate = rows[j - 1], rows[k - j - 1]  # rows j and k-j
        hi, hi_mate = rows[k - j], rows[j - 2]  # rows k+1-j and j-1
        total += bkm1[j - 1] * (lo[f] * lo_mate[g] + hi[f] * hi_mate[g])
    if k % 2:
        j = (k + 1) // 2
        total += bkm1[j - 1] * (rows[j - 1][f] * rows[j - 2][g])
    return total


def _p_terms(rows: list[SequenceRow], bk: tuple[int, ...], first: int = 1, step: int = 1) -> int:
    """The terms j = first, first + step, ... of sum_{j=1}^{k-1} C(k, j) * R_j * R_{k-j}.

    Terms j and k-j are equal, so each j < k/2 counts twice and j = k/2
    (k even) once.
    """
    k = len(rows) + 1
    total = 0
    for j in range(first, (k + 1) // 2, step):
        total += bk[j] * (rows[j - 1].R * rows[k - j - 1].R)
    total = 2 * total
    if k % 2 == 0 and (k // 2 - first) % step == 0:
        mid = rows[k // 2 - 1].R
        total += bk[k // 2] * (mid * mid)
    return total


def _serial_sums(
    rows: list[SequenceRow], bkm1: tuple[int, ...], bk: tuple[int, ...]
) -> tuple[int, int, int]:
    """Row k's S_k, its Q numerator 2 Q_k and its P sum, all in this process."""
    return _paired_sum(rows, bkm1, 3, 4), _paired_sum(rows, bkm1, 0, 2), _p_terms(rows, bk)


def _assemble(k: int, s: int, q_sum: int, p_sum: int) -> SequenceRow:
    """Row k from its three sums, halving only where the halves are exact."""
    if q_sum % 2:
        raise InexactDivisionError(f"Q numerator odd at k={k}")
    q = q_sum // 2
    if s % 2:
        raise InexactDivisionError(f"S_k odd at k={k}")
    p = 2 * (q + p_sum)
    return SequenceRow(S=s, Q=q, R=q + s // 2, P=p, A=s + p)


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
    sums = _serial_sums
    split = None
    try:
        for k in range(2, n + 1):
            if k == _SPLIT_FROM:
                from ._split import Split  # here: a start compiles none of it

                split = Split()
                sums = split.fork()
            rows.append(_assemble(k, *sums(rows, bkm1, bk)))
            if counter is not None:
                # Per row: S and Q each 1 + 3 per pair + 2 for a middle term,
                # P 2 per term, 2 for a middle term and 2 doublings, in all
                # 4k - 2 products; S and Q 2 additions per pair and 1 for a
                # middle term, P 1 per term, 1 for q and 1 for a middle term,
                # then r and a: (5k - 2) // 2 sums.  A split row makes one
                # more doubling and addition, not counted here.
                counter.muls += 4 * k - 2
                counter.adds += (5 * k - 2) // 2
                counter.divs += 2
            if k < n:
                # Drop row k-1 before building row k+1 from C(k+1, j) =
                # C(k, j) + C(k, j-1): two rows live at a time.
                bkm1 = bk
                bk = (1,) + tuple(bkm1[j - 1] + bkm1[j] for j in range(1, k + 1)) + (1,)
                if counter is not None:
                    counter.adds += k
    finally:
        if split is not None:
            split.end()  # in the worker, exits
    return SequenceTable(tuple(rows))
