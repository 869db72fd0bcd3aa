"""Command-line behavior: subcommands, formats, exit codes, serialized counts."""

import contextlib
import csv
import io
import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from exprcount import SequenceRow, SequenceTable, cli, compute_table, expressions, parse
from exprcount.cli import main, table_to_csv, table_to_json

COLUMNS = ("S", "Q", "R", "P", "A")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["k", "A"]
    assert lines[-1].split() == ["3", "94"]
    # csv without --all-sequences carries the same two columns
    code, out, _ = run(capsys, "count", "--n", "3", "--format", "csv")
    assert (code, out) == (0, "k,A\n1,2\n2,10\n3,94\n")


def test_count_all_sequences(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--all-sequences")
    assert code == 0
    assert out.splitlines()[0].split() == ["k", "S", "Q", "R", "P", "A"]
    assert out.splitlines()[2].split() == ["2", "4", "1", "3", "6", "10"]


def test_count_json_schema(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    assert data["rows"][0] == {"k": 1, "S": "2", "Q": "1", "R": "1", "P": "2", "A": "2"}
    assert all(isinstance(row["A"], str) for row in data["rows"])
    # json always carries all five sequences, so --all-sequences changes nothing
    assert run(capsys, "count", "--n", "2", "--format", "json", "--all-sequences") == (0, out, "")


def _json_rows(text):
    data = json.loads(text)
    assert data["n"] == len(data["rows"])
    return [[str(rec["k"])] + [rec[c] for c in COLUMNS] for rec in data["rows"]]


def _csv_rows(text):
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["k", *COLUMNS]
    return rows


def _written(writer, table, *args):
    out = io.StringIO()
    writer(table, out, *args)
    return out.getvalue()


def _past_the_digit_limit():
    # counts from k = 1247 on pass CPython's default 4,300-digit limit on
    # int<->str conversion; a hand-built table stands in for n >= 1247
    big = 10**4999 + 12345
    rows = (SequenceRow(big, k, big + k, 2 * big, 3 * big + k) for k in (1, 2))
    return SequenceTable(tuple(rows))


def test_counts_past_the_int_str_digit_limit():
    table = _past_the_digit_limit()

    def digits(lead, tail):
        # the decimal string of lead * 10**4999 + tail, tail < 10**5
        return str(lead) + "0" * 4994 + str(tail).zfill(5)

    expected = [
        [str(k), digits(1, 12345), str(k)]
        + [digits(1, 12345 + k), digits(2, 24690), digits(3, 37035 + k)]
        for k in (1, 2)
    ]
    assert _json_rows(_written(table_to_json, table)) == expected
    assert _csv_rows(_written(table_to_csv, table, True)) == expected
    first_row = _written(cli._format_table, table, False).splitlines()[1]
    assert first_row.split() == ["1", digits(3, 37036)]


def test_counts_under_the_smallest_int_str_digit_limit():
    table = _past_the_digit_limit()
    writers = [(table_to_json,), (table_to_csv, True), (cli._format_table, True)]
    expected = [_written(w, table, *args) for w, *args in writers]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit CPython accepts
    try:
        got = [_written(w, table, *args) for w, *args in writers]
    finally:
        sys.set_int_max_str_digits(old)
    assert got == expected


# Independent renderings of the three count formats, each built whole in
# memory: by json.dumps, by csv.writer, and from the width of every string.


def _columns(all_sequences):
    return COLUMNS if all_sequences else ("A",)


def _reference_json(table):
    rows = [
        {"k": k, **{c: str(v) for c, v in zip(COLUMNS, row)}}
        for k, row in enumerate(table.rows, 1)
    ]
    return json.dumps({"n": table.n, "rows": rows}, indent=2) + "\n"


def _reference_csv(table, cols):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("k",) + cols)
    for k, row in enumerate(table.rows, 1):
        writer.writerow([k] + [str(getattr(row, c)) for c in cols])
    return buf.getvalue()


def _reference_table(table, cols):
    header = ("k",) + cols
    data = [
        [str(k)] + [str(getattr(row, c)) for c in cols]
        for k, row in enumerate(table.rows, 1)
    ]
    # every width from every string of its column
    widths = [max(len(h), *(len(r[i]) for r in data)) for i, h in enumerate(header)]
    lines = [header, *data]
    return "".join("  ".join(v.rjust(w) for v, w in zip(r, widths)) + "\n" for r in lines)


@pytest.mark.parametrize("n", [1, 2, 40])
def test_json_writer_matches_json_dumps(n):
    table = compute_table(n)
    assert _written(table_to_json, table) == _reference_json(table)


@pytest.mark.parametrize("all_sequences", [True, False])
@pytest.mark.parametrize("n", [1, 2, 40])
def test_csv_writer_matches_buffered_csv(n, all_sequences):
    table = compute_table(n)
    expected = _reference_csv(table, _columns(all_sequences))
    assert _written(table_to_csv, table, all_sequences) == expected


@pytest.mark.parametrize("all_sequences", [True, False])
@pytest.mark.parametrize("n", [1, 2, 40])
def test_table_writer_matches_widths_of_every_string(n, all_sequences):
    table = compute_table(n)
    expected = _reference_table(table, _columns(all_sequences))
    assert _written(cli._format_table, table, all_sequences) == expected


class _CharCount:
    """A text sink that keeps nothing but the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


@pytest.fixture(scope="module")
def table_300():
    return compute_table(300)


@pytest.mark.parametrize(
    "write",
    [
        lambda table, out: table_to_json(table, out),
        lambda table, out: table_to_csv(table, out, True),
        lambda table, out: cli._format_table(table, out, True),
    ],
    ids=["json", "csv", "table"],
)
def test_writers_hold_one_row_not_the_text(table_300, write):
    # tracemalloc counts Python allocations, so the peak is deterministic;
    # a writer that built the whole text first would peak above its size
    sink = _CharCount()
    tracemalloc.start()
    try:
        write(table_300, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 500_000
    assert peak < sink.chars / 10


def test_csv_values_are_exact_decimal_strings(capsys):
    code, out, _ = run(capsys, "count", "--n", "30", "--format", "csv", "--all-sequences")
    assert code == 0
    last = out.splitlines()[-1].split(",")
    assert last[0] == "30"
    assert last[-1] == str(compute_table(30).row(30).A)
    assert "e" not in last[-1].lower()


def test_canon_output(capsys):
    code, out, _ = run(capsys, "canon", "(a*b)/c")
    assert code == 0
    assert out.strip() == "(x1*x2)/(x3)"
    code, out, _ = run(capsys, "canon", "a/b + c")
    assert out.strip() == "(x2*x3 + x1)/(x2)"
    code, out, _ = run(capsys, "canon", "(a*b)/c ")
    assert (code, out) == (0, "(x1*x2)/(x3)\n")


def test_canon_of_a_high_degree_monomial(capsys):
    # a monomial holds one index per unit of degree, at most the leaf count
    assert run(capsys, "canon", "*".join(["a"] * 200) + "/(a*b)")[:2] == (0, "(x1^199)/(x2)\n")


def test_leading_unary_minus_needs_double_dash(capsys):
    # the grammar takes '-' factor, but argparse reads "-a" as an option:
    # after '--' it is an expression, without it a usage error
    assert run(capsys, "canon", "--", "-(-(-a))")[:2] == (0, "(-x1)/(1)\n")
    code, out, err = run(capsys, "canon", "-a")
    assert (code, out) == (2, "")
    assert "required: expr" in err
    assert run(capsys, "equiv", "--", "a", "-a")[:2] == (1, "inequivalent\n")
    assert run(capsys, "equiv", "a", "-a")[:2] == (2, "")


# A random 6-variable input on which the primitive-PRS gcd built remainder
# sequences with coefficients above 8,000 bits and ran for minutes.
GCD_BLOW_UP = (
    "(x1 - x5) * (x2 - (x4 / x3 / x1 + ((x6 - x2) * ((x1 - (-x1)) * x2)"
    " + (-(x4 + (-x4)))))) / (((-x6) + (-x1) - (x2 * ((-x4) - (-x1) - x1)"
    " / x5 - x6 * (-x1))) / (x3 / (-(x1 + (-x2)))) * x4)"
)


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget()


def run_within(capsys, seconds, *argv):
    """``run``, failing the test once it has taken ``seconds``."""
    old = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(capsys, *argv)
    except _OverBudget:
        pytest.fail(f"{argv[0]} ran past its {seconds} s budget")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_canon_finishes_on_gcd_blow_up_input(capsys):
    code, out, _ = run_within(capsys, 5.0, "canon", "--", GCD_BLOW_UP)
    assert code == 0
    # canon numbers names by first appearance; read its output back with
    # exact fractions at seeded points and compare with the input's value
    _, names = parse(GCD_BLOW_UP)
    rnd = random.Random(8)
    for _ in range(5):
        point = {f"x{i}": Fraction(rnd.randint(1, 2**40)) for i in range(1, 7)}
        canon_point = {f"x{i}": point[names.name_of(i)] for i in range(1, 7)}
        expected = eval(GCD_BLOW_UP, {"__builtins__": {}}, point)
        assert eval(out.replace("^", "**"), {"__builtins__": {}}, canon_point) == expected


def test_canon_finishes_when_a_linear_denominator_does_not_divide(capsys):
    # gcd(a^20 + 1, a + b + ... + i): the denominator qualifies for the
    # linear gcd exit, and a full trial division would build millions of
    # quotient terms before it failed
    a20 = "*".join(["a"] * 20)
    code, out, _ = run_within(capsys, 5.0, "canon", f"({a20} + j/j)/(a+b+c+d+e+f+g+h+i)")
    assert code == 0
    # names are numbered by first appearance, so j is x2
    assert out == "(x1^20 + 1)/(x1 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10)\n"


def test_syntax_error_exits_2(capsys):
    code, _, err = run(capsys, "equiv", "a+", "b")
    assert code == 2
    assert "syntax error" in err
    code, _, err = run(capsys, "canon", "(a")
    assert code == 2
    code, _, err = run(capsys, "canon", "   ")
    assert code == 2
    assert "syntax error: empty input" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "-1"),
        ("count", "--n", "abc"),
        ("verify", "--max-k", "0"),
        ("verify", "--max-k", "2", "--processes", "0"),
        ("verify", "--max-k", "2", "--processes", "-2"),
        ("bench", "--n", "0"),
        ("bench", "--n", "8", "--repeat", "0"),
    ],
)
def test_counts_below_one_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "expected an integer >= 1" in err


@pytest.mark.parametrize(
    "nest",
    [
        lambda d: "(" * d + "a" + ")" * d,
        lambda d: "-" * d + "a",
        lambda d: "+".join(["a"] * (d + 1)),
    ],
    ids=["parentheses", "unary-minus", "operator-chain"],
)
def test_nesting_depth_limit_exits_2(capsys, nest):
    from exprcount.expressions import MAX_DEPTH

    code, out, _ = run(capsys, "equiv", "--", nest(MAX_DEPTH), nest(MAX_DEPTH))
    assert (code, out) == (0, "equivalent\n")
    code, out, err = run(capsys, "equiv", "--", nest(MAX_DEPTH + 1), "a")
    assert (code, out) == (2, "")
    assert err.startswith("syntax error: expression nested deeper than")
    assert "Traceback" not in err


def _past_the_recursion_limit():
    """A fraction of 500 distinct names, equal to (v0 + w)/(v0 - w).

    The exact gcd recurses once per variable: 500 names, in a balanced sum
    about ten levels deep, pass Python's recursion limit.
    """

    def balanced(names):
        if len(names) == 1:
            return names[0]
        half = len(names) // 2
        return f"({balanced(names[:half])} + {balanced(names[half:])})"

    s = balanced([f"v{i}" for i in range(500)])
    return f"({s}) * (v0 + w) / (({s}) * (v0 - w))"


def test_too_many_variables_for_the_recursion_limit_exits_2(capsys):
    text = _past_the_recursion_limit()
    for argv in (["canon", "--", text], ["equiv", "--", text, "(v0 + w) / (v0 - w)"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: input too large for Python's recursion limit\n"


def test_differing_residues_answer_without_the_exact_path(capsys, monkeypatch):
    # Fails on the plant "point evaluated with x1 = x2 always": a and b then
    # have equal residues, and the pair reaches the exact path.
    def exact_path():
        raise RuntimeError("exact path reached")

    monkeypatch.setattr(cli, "_evaluator", exact_path)
    pairs = [("a", "b"), ("a*b", "a/b"), ("c/(a-b)", "d")]
    # past the recursion limit, where the exact path exits 2
    pairs.append((_past_the_recursion_limit(), "(v0 - w)/(v0 + w)"))
    for left, right in pairs:
        assert run(capsys, "equiv", "--", left, right) == (1, "inequivalent\n", "")


def test_differing_products_of_40_sums_are_answered_at_once():
    # The exact path expands 2^40 terms on each side and never finishes, so
    # a separate process with a timeout.  Fails on the plant "point
    # evaluated with x1 = x2 always": a0 - b0 and b0 - a0 then both vanish.
    left = " * ".join(["(a0 - b0)"] + [f"(a{i} + b{i})" for i in range(1, 40)])
    right = left.replace("(a0 - b0)", "(b0 - a0)", 1)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "exprcount.cli", "equiv", left, right]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=1)
    assert (done.returncode, done.stdout, done.stderr) == (1, "inequivalent\n", "")


def test_equal_residues_go_on_to_the_exact_path(capsys, monkeypatch):
    # Every name at one coordinate: x1 = x2, so a and b have equal residues
    # and a - b vanishes.  Fails on the plant "equal residues print
    # `equivalent`".
    monkeypatch.setattr(expressions, "_point", lambda index: 7)
    assert run(capsys, "equiv", "a", "b") == (1, "inequivalent\n", "")
    assert run(capsys, "equiv", "c/(a-b)", "d") == (1, "inequivalent\n", "")
    assert run(capsys, "equiv", "(a*a - b*b)/(a - b)", "b + a") == (0, "equivalent\n", "")


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def fail(tree):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "evaluate", fail)
    code, out, err = run(capsys, "canon", "a")
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: injected fault\n"

    class Escape(BaseException):
        pass

    def escape(tree):
        raise Escape()

    # only Exception is mapped; BaseException subclasses still propagate
    monkeypatch.setattr(cli, "evaluate", escape)
    with pytest.raises(Escape):
        main(["canon", "a"])


def test_interrupt_exits_130_silently(capsys, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "compute_table", interrupt)
    code, out, err = run(capsys, "count", "--n", "3000")
    assert (code, out, err) == (130, "", "")


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
def test_ctrl_c_of_a_long_count_leaves_no_process():
    # Ctrl-C signals the whole process group, the engine's worker included
    # when the table is split over two processes.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "exprcount.cli", "count", "--n", "3000"]
    proc = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, start_new_session=True
    )
    try:
        with pytest.raises(subprocess.TimeoutExpired):
            proc.wait(timeout=2)  # well past the fork, far from the end
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (130, b"")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:  # whatever a failure left running
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_2_silently(unbuffered):
    # 618,765 bytes of JSON, about ten pipe buffers: the reader closes the
    # pipe long before the last row is written
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    argv = [sys.executable, "-m", "exprcount.cli", "count", "--n", "300", "--format", "json"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (2, b"")


# Fd 1 is a pipe whose reader leaves during the first write to it, after
# that write has taken 100 bytes: the rest stays in stdout's buffer, and
# the flush at exit meets the closed pipe again.
_READER_LEAVES_MID_WRITE = """
import io, os, sys
from exprcount import cli

reader, writer = os.pipe()
os.dup2(writer, 1)
os.close(writer)


class ReaderLeavesMidWrite(io.FileIO):
    def write(self, b):
        global reader
        if reader is None:
            return super().write(b)
        n = super().write(bytes(b[:100]))
        os.close(reader)
        reader = None
        return n


raw = ReaderLeavesMidWrite(1, "w", closefd=False)
sys.stdout = io.TextIOWrapper(io.BufferedWriter(raw))
sys.exit(cli.main(["count", "--n", "300", "--format", "json"]))
"""


def test_stdout_closed_in_mid_write_exits_2_silently():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _READER_LEAVES_MID_WRITE], env=env, capture_output=True, timeout=60
    )
    assert (run.returncode, run.stderr) == (2, b"")


def test_start_loads_no_code_generation_or_typing():
    # dataclasses (with inspect, ast, dis and tokenize behind it) and typing
    # were most of each command's import time, and a process pool would add
    # more: the engine's split needs only os and signal.  A fresh
    # interpreter, as this one has them all; diffing sys.modules ignores
    # whatever site loads.
    newly_loaded = (
        "import sys; before = set(sys.modules); import exprcount.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", newly_loaded], env=env, capture_output=True, text=True)
    loaded = set(run.stdout.split())
    assert "exprcount.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing"})
    # equiv's point is computed per index on demand: importing random or
    # hashlib, or building a table of points, costs every command's start
    assert loaded.isdisjoint({"random", "hashlib"})
    assert loaded.isdisjoint({"multiprocessing", "concurrent.futures", "pickle", "subprocess"})


class _ClosedStream(io.TextIOBase):
    """A stream whose reader has gone: every write raises BrokenPipeError."""

    def writable(self):
        return True

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv, code",
    [
        (("canon", "a/(b-"), 2),
        (("canon", "a/(b-b)"), 2),
        (("verify", "--max-k", "5"), 2),
        (("canon", "a"), 3),
    ],
    ids=["syntax-error", "zero-division", "verify-usage", "internal-error"],
)
def test_closed_stderr_keeps_the_documented_exit_code(capsys, monkeypatch, argv, code):
    def fail(tree):
        raise RuntimeError("injected fault")

    if code == 3:
        monkeypatch.setattr(cli, "evaluate", fail)
    monkeypatch.setattr(sys, "stderr", _ClosedStream())
    assert main(list(argv)) == code
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [("canon", "a/(b-b)"), ("equiv", "a/(a-a)", "a"), ("equiv", "b + (a-a)", "b/(a-a)")],
    ids=["canon", "equiv", "equiv-right-side"],
)
def test_zero_divisor_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_usage_error_exits_2(capsys):
    assert run(capsys, "count")[0] == 2          # missing --n
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "count", "--n", "0")[0] == 2


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k=1: oracle=2 engine=2 PASS"
    assert lines[1] == "k=2: oracle=10 engine=10 PASS"
    assert lines[-1] == "all 2 checks passed"
    # --processes is still accepted and validated, and changes nothing
    assert run(capsys, "verify", "--max-k", "2", "--processes", "2")[:2] == (0, out)


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    count_tree_classes = cli.count_tree_classes

    def one_class_short_at_k2(k, cutoff=None):
        return count_tree_classes(k, cutoff=cutoff) - (k == 2)

    monkeypatch.setattr(cli, "count_tree_classes", one_class_short_at_k2)
    code, out, _ = run(capsys, "verify", "--max-k", "2")
    assert code == 1
    assert out.splitlines() == [
        "k=1: oracle=2 engine=2 PASS",
        "k=2: oracle=9 engine=10 FAIL",
        "1 of 2 checks failed",
    ]


def test_verify_refuses_large_without_flag(capsys):
    code, out, err = run(capsys, "verify", "--max-k", "5")
    assert (code, out) == (2, "")
    assert err == "error: --max-k 5 exceeds the safe cutoff 4; pass --unsafe-large to proceed\n"


def test_verify_past_the_cutoff_with_unsafe_large(capsys):
    code, out, _ = run(capsys, "verify", "--max-k", "5", "--unsafe-large")
    assert code == 0
    assert out.splitlines() == [
        f"k={k}: oracle={a} engine={a} PASS"
        for k, a in enumerate((2, 10, 94, 1466, 31814), 1)
    ] + ["all 5 checks passed"]


@pytest.mark.parametrize("k", [8, 10**6])
def test_verify_refuses_unreachable_k_before_any_work(capsys, monkeypatch, k):
    def no_work(*args, **kwargs):
        raise AssertionError("verify started work on an unreachable k")

    monkeypatch.setattr(cli, "compute_table", no_work)
    monkeypatch.setattr(cli, "count_tree_classes", no_work)
    for flags in ((), ("--unsafe-large",)):
        code, out, err = run(capsys, "verify", "--max-k", str(k), *flags)
        assert (code, out) == (2, "")
        assert err == (
            f"error: --max-k {k} exceeds 7, the largest k verify enumerates "
            f"(k=8 has 1.2 billion classes)\n"
        )


def test_bench_reports_counts_deterministically(capsys):
    code, out, err = run(capsys, "bench", "--n", "32", "--repeat", "2")
    assert code == 0
    assert out.startswith("n=32 multiplications=")
    assert "run 1:" in err and "run 2:" in err
    code2, out2, _ = run(capsys, "bench", "--n", "32")
    assert out2 == out  # operation counts carry no timing noise


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    commands = [
        ("count", "--n", "3", "--all-sequences"),
        ("count", "--n", "3"),
        ("verify", "--max-k", "2"),
    ]
    in_turn = [run(capsys, *argv) for argv in commands]
    alone = []
    for argv in commands:
        cli.build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert in_turn == alone
