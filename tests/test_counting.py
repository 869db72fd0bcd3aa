"""Recurrence engine: rows against the textbook recurrence and a pinned digest,
exactness errors, operation tallies, the two-process split, and the closed forms."""

import hashlib
import operator
import os
import random
import signal
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import pytest

from exprcount import (
    BASE_ROW,
    InexactDivisionError,
    OpCounter,
    SequenceRow,
    compute_table,
    counting,
)
from exprcount import _split
from exprcount.cli import main


def test_table_counter_and_row_semantics():
    table = compute_table(5)
    assert table.rows == compute_table(5).rows
    assert table.rows != compute_table(4).rows
    counter = OpCounter()
    assert (counter.muls, counter.adds, counter.divs) == (0, 0, 0)
    assert SequenceRow._fields == ("S", "Q", "R", "P", "A")
    assert BASE_ROW._replace(A=3) == (2, 1, 1, 2, 3)


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        compute_table(0)
    with pytest.raises(ValueError):
        compute_table(-3)


@pytest.mark.parametrize(
    "base, message",
    [
        (SequenceRow(1, 1, 1, 1, 1), "Q numerator odd at k=2"),
        (SequenceRow(2, 1, 1, 1, 1), "S_k odd at k=2"),
    ],
)
def test_odd_halving_raises_and_count_exits_3(capsys, monkeypatch, base, message):
    # No real row reaches these checks, so a base row that breaks the
    # pairing of sums with their negations stands in for an engine fault.
    monkeypatch.setattr(counting, "BASE_ROW", base)
    with pytest.raises(InexactDivisionError) as exc:
        compute_table(2)
    assert str(exc.value) == message
    assert main(["count", "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: InexactDivisionError: {message}\n"


def test_odd_q_numerator_in_a_paired_row_raises_and_count_exits_3(capsys, monkeypatch):
    # This base row gives an even Q numerator at k = 2 and an odd one at
    # k = 3, whose S and Q sums end in the self-paired term j = 2.
    monkeypatch.setattr(counting, "BASE_ROW", SequenceRow(S=1, Q=1, R=2, P=1, A=4))
    assert compute_table(2).row(2) == SequenceRow(S=4, Q=1, R=3, P=18, A=22)
    message = "Q numerator odd at k=3"
    with pytest.raises(InexactDivisionError) as exc:
        compute_table(3)
    assert str(exc.value) == message
    assert main(["count", "--n", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: InexactDivisionError: {message}\n"


def _textbook_rows(n):
    """Rows 1..n of the recurrence with every term j weighted by its own binomial."""
    rows = [BASE_ROW]
    for k in range(2, n + 1):
        terms = [(comb(k - 1, j - 1), rows[j - 1], rows[k - j - 1]) for j in range(1, k)]
        s = sum(c * lo.P * hi.A for c, lo, hi in terms)
        q = sum(c * lo.S * hi.R for c, lo, hi in terms) // 2
        rr = sum(comb(k, j) * rows[j - 1].R * rows[k - j - 1].R for j in range(1, k))
        p = 2 * (q + rr)
        rows.append(SequenceRow(S=s, Q=q, R=q + s // 2, P=p, A=s + p))
    return tuple(rows)


def test_paired_sums_equal_the_textbook_recurrence():
    textbook = _textbook_rows(60)
    for n in range(1, 61):
        assert compute_table(n).rows == textbook[:n]
    assert compute_table(300).rows == _textbook_rows(300)


def test_count_400_json_is_pinned(capsys):
    assert main(["count", "--n", "400", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "41c237024b2468a9a5d46e28a02ddafab7e2778698c714cf878d18a60bb1e3d5"


def test_bench_line_states_the_closed_form(capsys):
    assert main(["bench", "--n", "32"]) == 0
    out = capsys.readouterr().out
    assert out == "n=32 multiplications=2046 additions=1774 exact_divisions=62\n"
    # Row k makes 4k - 2 multiplications, (5k - 2) // 2 additions and 2
    # halvings, and each new Pascal row k + 1 one addition per inner entry.
    n = 32
    assert 2046 == sum(4 * k - 2 for k in range(2, n + 1)) == 2 * n * n - 2
    assert 1774 == sum((5 * k - 2) // 2 for k in range(2, n + 1)) + sum(range(2, n))
    assert 62 == 2 * (n - 1)


SPLIT_FROM = counting._SPLIT_FROM


def _serial_table(monkeypatch, n, counter=None):
    with monkeypatch.context() as m:
        m.setattr(_split, "may_split", lambda: False)
        return compute_table(n, counter)


@pytest.mark.parametrize("n", [SPLIT_FROM - 1, SPLIT_FROM, SPLIT_FROM + 1, 400])
def test_split_rows_equal_serial_rows(monkeypatch, n):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(n)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    rows = compute_table(n).rows
    assert len(forks) == (n >= SPLIT_FROM and _split.may_split())
    assert rows == _serial_table(monkeypatch, n).rows


def test_one_cpu_keeps_the_table_in_one_process(monkeypatch):
    forks = []

    def no_fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    compute_table(SPLIT_FROM + 1)
    assert forks == []


def test_split_keeps_the_op_tallies(monkeypatch):
    split, serial = OpCounter(), OpCounter()
    compute_table(512, split)
    _serial_table(monkeypatch, 512, serial)
    assert (split.muls, split.adds, split.divs) == (serial.muls, serial.adds, serial.divs)


def _leaves_nothing_open(run):
    """Run ``run()`` and check that it left no child process and no descriptor."""
    fds = set(os.listdir("/proc/self/fd"))
    try:
        run()
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert set(os.listdir("/proc/self/fd")) == fds


def _at_row(monkeypatch, k, fault, in_worker=False):
    """Make the assembly of row k call ``fault`` first, in the worker or the parent."""
    parent, assemble = os.getpid(), counting._assemble

    def planted(kk, *sums):
        if kk == k and (os.getpid() != parent) == in_worker:
            fault()
        return assemble(kk, *sums)

    monkeypatch.setattr(counting, "_assemble", planted)


needs_split = pytest.mark.skipif(
    not (_split.may_split() and os.path.isdir("/proc/self/fd")),
    reason="the table is computed in one process here",
)


@needs_split
def test_split_leaves_no_process_after_a_normal_return():
    _leaves_nothing_open(lambda: compute_table(SPLIT_FROM + 20))


@needs_split
def test_split_odd_halving_raises_in_the_parent(monkeypatch):
    # Both processes assemble row k from the same sums, so both fail there.
    assemble, k = counting._assemble, SPLIT_FROM + 5
    monkeypatch.setattr(
        counting, "_assemble", lambda kk, s, q, p: assemble(kk, s, q + (kk == k), p)
    )

    def run():
        with pytest.raises(InexactDivisionError, match=f"Q numerator odd at k={k}$"):
            compute_table(SPLIT_FROM + 20)

    _leaves_nothing_open(run)


@needs_split
def test_split_interrupt_ends_the_worker(monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    _at_row(monkeypatch, SPLIT_FROM + 5, interrupt)

    def run():
        with pytest.raises(KeyboardInterrupt):
            compute_table(SPLIT_FROM + 20)

    _leaves_nothing_open(run)


@needs_split
def test_split_worker_that_dies_is_an_error_not_a_closed_stdout(monkeypatch):
    _at_row(monkeypatch, SPLIT_FROM + 5, lambda: os._exit(1), in_worker=True)

    def run():
        with pytest.raises(ChildProcessError, match=f"the row worker ended at k={SPLIT_FROM + 6}$"):
            compute_table(SPLIT_FROM + 20)

    _leaves_nothing_open(run)


@needs_split
def test_split_stays_serial_when_fork_fails(monkeypatch):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    tables = []
    _leaves_nothing_open(lambda: tables.append(compute_table(SPLIT_FROM + 20)))
    assert tables[0].rows == _serial_table(monkeypatch, SPLIT_FROM + 20).rows


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_split_pipes_carry_sums_far_larger_than_a_pipe_buffer():
    # Two sums of 1 MiB each way, 16 times a 64 KiB pipe buffer: the child
    # receives and then sends, as the worker does, so neither side blocks for good.
    rnd = random.Random(7)
    sums = [rnd.getrandbits(1 << 23), -rnd.getrandbits(1 << 23)]
    down_r, down_w = os.pipe()
    up_r, up_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(down_w)
            os.close(up_r)
            _split._send(up_w, *_split._receive(down_r, 2))
            code = 0
        finally:
            os._exit(code)
    os.close(down_r)
    os.close(up_w)

    def deadline(signum, frame):
        raise TimeoutError("the pipes deadlocked")

    previous = signal.signal(signal.SIGALRM, deadline)
    signal.alarm(30)
    try:
        _split._send(down_w, *sums)
        got = _split._receive(up_r, 2)
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(down_w)
        os.close(up_r)
    assert got == sums
    assert os.waitstatus_to_exitcode(status) == 0


def _tallying_int(tally):
    """An int subclass that tallies its products, sums and floor quotients, all of its type."""

    def tallied(op, name):
        def method(self, other):
            tally[name] += 1
            return Tallied(op(int(self), int(other)))

        return method

    class Tallied(int):
        __mul__ = __rmul__ = tallied(operator.mul, "muls")
        __add__ = __radd__ = tallied(operator.add, "adds")
        __floordiv__ = tallied(operator.floordiv, "divs")

    return Tallied


def test_op_counter_counts_the_operations_on_counts(monkeypatch):
    # Every count descends from the base row, so tallied base values see
    # every multiplication, addition and halving that the rows make.
    for n in (2, 3, 4, 5, 17, 40):
        tally, counter = Counter(), OpCounter()
        tallied = _tallying_int(tally)
        monkeypatch.setattr(counting, "BASE_ROW", SequenceRow(*map(tallied, BASE_ROW)))
        table = compute_table(n, counter)
        assert all(type(v) is tallied for row in table.rows for v in row)
        # Row 2 also doubles its empty pair sum of P, a plain 0, and the
        # Pascal rows are built from plain ints: neither is tallied.
        assert counter.muls == tally["muls"] + 1
        assert counter.adds == tally["adds"] + sum(range(2, n))
        assert counter.divs == tally["divs"]


def test_table_is_immutable_and_indexable():
    table = compute_table(5)
    assert isinstance(table.rows, tuple)
    with pytest.raises(IndexError):
        table.row(0)
    with pytest.raises(IndexError):
        table.row(6)


# Analytic cross-checks.  The recurrence implies closed forms for the
# exponential generating functions F(x) = sum_k F_k x^k / k! of the five
# sequences, and through them the growth rate of A_k.  They test the
# engine's implementation (an index slip, a wrong binomial row) at k far
# beyond what enumeration reaches; the oracle tests the combinatorics.
# Modulo primes above n, the identities reach every row of a large table in
# O(n^2) small-int operations.  A wrong row goes unnoticed only if both
# primes divide the error it leaves in an identity.
EGF_PRIMES = (2**61 - 1, 2**61 - 31)


def _egf_identities(rows, p=None):
    """Whether each of the four EGF identities holds on rows 1..n.

    Exactly over Fraction without p, and modulo a prime p > n with it.
    """
    n = len(rows)
    if p is None:
        inv = [0] + [Fraction(1, k) for k in range(1, n + 1)]
    else:
        inv = [0, 1]
        for k in range(2, n + 1):
            inv.append(-(p // k) * inv[p % k] % p)

    def mod(v):
        return v if p is None else v % p

    inv_fact = [1]
    for k in range(1, n + 1):
        inv_fact.append(mod(inv_fact[-1] * inv[k]))

    def egf(column, scale=1):
        """Coefficients x^0..x^n of the EGF of one column, times scale."""
        return [0] + [
            mod(getattr(row, column) * scale * inv_fact[k])
            for k, row in enumerate(rows, start=1)
        ]

    def exp(f):
        """Coefficients of e^f for f(0) = 0: m e_m = sum_j j f_j e_(m-j), from E' = f'E."""
        jf = [mod(j * c) for j, c in enumerate(f)]
        e = [1]
        for m in range(1, n + 1):
            e.append(mod(sum(jf[j] * e[m - j] for j in range(1, m + 1)) * inv[m]))
        return e

    a, s, pp, r = (egf(c) for c in "ASPR")
    one = [1] + [0] * n
    x = [0, 1] + [0] * (n - 1)
    exp_s, exp_half_s = exp(s), exp(egf("S", inv[2]))
    return (
        # 1 + A = e^P
        [mod(u + v) for u, v in zip(one, a)] == exp(pp),
        # A = 2 e^S - 2 e^(S/2)
        a == [mod(2 * u - 2 * v) for u, v in zip(exp_s, exp_half_s)],
        # A = S + P - 2x
        a == [mod(u + v - 2 * w) for u, v, w in zip(s, pp, x)],
        # 1 + R = e^(S/2), the one identity that involves R
        [mod(u + v) for u, v in zip(one, r)] == exp_half_s,
    )


def test_egf_identities():
    assert _egf_identities(compute_table(30).rows) == (True,) * 4


def test_egf_identities_mod_p_at_n_400():
    rows = compute_table(400).rows
    for p in EGF_PRIMES:
        assert _egf_identities(rows, p) == (True,) * 4
    # Row 300 off by 2 in both S and A keeps A = S + P, and only that one.
    row = rows[299]
    bad = rows[:299] + (row._replace(S=row.S + 2, A=row.A + 2),) + rows[300:]
    for p in EGF_PRIMES:
        assert _egf_identities(bad, p) == (False, False, True, False)


@pytest.mark.egf_1000
def test_egf_identities_mod_p_at_n_1000():
    rows = compute_table(1000).rows
    for p in EGF_PRIMES:
        assert _egf_identities(rows, p) == (True,) * 4


def _growth_rate():
    """rho, the radius of convergence of the EGF of A.

    x(S) = S/2 + u - u^2 + ln(2u^2 - 2u + 1)/2 with u = e^(S/2) inverts S(x);
    dx/dS vanishes where 4u^4 - 6u^3 + 2u - 1 = 0, at u* in [1.3, 1.4], and
    rho = x(S*) = ln u* + u* - u*^2 + ln(2u*^2 - 2u* + 1)/2.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        lo, hi = Decimal("1.3"), Decimal("1.4")
        for _ in range(120):
            mid = (lo + hi) / 2
            if 4 * mid**4 - 6 * mid**3 + 2 * mid - 1 < 0:
                lo = mid
            else:
                hi = mid
        u = lo
        return u.ln() + u - u * u + (2 * u * u - 2 * u + 1).ln() / 2


def test_growth_ratio_matches_singularity_at_n_400():
    # A_n ~ C n! rho^-n n^(-3/2), so A_n / (n A_(n-1)) -> (1/rho) ((n-1)/n)^(3/2)
    # with a relative error falling as n^-2 (2.3e-6 at n = 400)
    rho = _growth_rate()
    assert abs(rho - Decimal("0.16142418304")) < Decimal("1e-11")
    n = 400
    table = compute_table(n)
    ratio = Fraction(table.row(n).A, n * table.row(n - 1).A)
    predicted = (1 / float(rho)) * ((n - 1) / n) ** 1.5
    assert abs(float(ratio) / predicted - 1) < 1e-5
