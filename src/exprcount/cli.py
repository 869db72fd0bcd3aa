"""Batch command-line front-end.

Subcommands::

    count  --n N [--format table|csv|json] [--all-sequences]
    verify --max-k K [--unsafe-large]
    equiv  EXPR1 EXPR2
    canon  EXPR
    bench  --n N [--repeat R]

Exit codes: 0 success (and ``equiv`` equivalent), 1 ``equiv`` inequivalent
or ``verify`` mismatch, 2 usage or expression syntax errors (including
expressions nested deeper than ``expressions.MAX_DEPTH``), inputs past
the recursion limit and a stdout closed by its reader (e.g. ``| head -1``;
then nothing goes to stderr), 3 any internal error.  An error line that
meets a closed stderr is dropped and the exit code stays.  All stdout
output is deterministic; ``bench`` sends its wall-clock timings to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from itertools import chain
from typing import Iterator, TextIO

from .counting import OpCounter, SequenceRow, SequenceTable, compute_table
from .expressions import ExprSyntaxError, NameMap, evaluate, parse
from .oracle import DEFAULT_CUTOFF, enumerate_tree_classes

# verify holds every class of the largest k in memory, and A_8 is about
# 40 times A_7: no k above this one is in reach, with or without
# --unsafe-large.
VERIFY_MAX_K = 7


def _to_decimal(v: int) -> str:
    """str(v) for a nonnegative int of any length.

    Counts pass CPython's 4,300-digit int->str limit from k = 1247 on;
    ``decimal`` has no such limit, and str() alone is faster within it.
    """
    try:
        return str(v)
    except ValueError:  # more digits than the process-wide limit allows
        from decimal import Decimal  # here: imported at the top, it slows every start

        return str(Decimal(v))


# The writers below emit one row at a time, so the text of a whole table
# never exists in memory: a count command holds the table plus one row.


def _decimal_rows(table: SequenceTable, cols: tuple[str, ...]) -> Iterator[list[str]]:
    """[str(k), decimal of each column in cols] for k = 1..n, one row at a time."""
    for k, row in enumerate(table.rows, start=1):
        yield [str(k), *(_to_decimal(getattr(row, c)) for c in cols)]


def table_to_json(table: SequenceTable, out: TextIO) -> None:
    """Write {"n": n, "rows": [{"k": k, "S": "...", ...}, ...]} to out.

    Counts are decimal strings (no precision loss).  The text is exactly
    ``json.dumps(..., indent=2) + "\\n"``: every value is an int or a string
    of digits, so nothing needs escaping.
    """
    out.write(f'{{\n  "n": {table.n},\n  "rows": [')
    sep = "\n"
    for k, *values in _decimal_rows(table, SequenceRow._fields):
        fields = "".join(f',\n      "{c}": "{v}"' for c, v in zip(SequenceRow._fields, values))
        out.write(f'{sep}    {{\n      "k": {k}{fields}\n    }}')
        sep = ",\n"
    out.write("\n  ]\n}\n")


def table_to_csv(table: SequenceTable, out: TextIO, all_sequences: bool = True) -> None:
    """Write comma-separated rows to out, the bytes ``csv.writer`` would write.

    Every cell is a column name or a string of digits, so none needs
    quoting; joining them also spares the 128 KB record buffer that a
    ``csv.writer`` allocates for even a one-cell row.
    """
    cols = SequenceRow._fields if all_sequences else ("A",)
    for cells in chain([("k",) + cols], _decimal_rows(table, cols)):
        out.write(",".join(cells) + "\n")


def _format_table(table: SequenceTable, out: TextIO, all_sequences: bool) -> None:
    """Write right-aligned columns to out.

    Counts are nonnegative, so a column's widest decimal is that of its
    largest value: one conversion per column fixes every width up front.
    """
    cols = SequenceRow._fields if all_sequences else ("A",)
    widths = [max(len("k"), len(str(table.n)))] + [
        max(len(c), len(_to_decimal(max(getattr(row, c) for row in table.rows))))
        for c in cols
    ]
    for cells in chain([("k",) + cols], _decimal_rows(table, cols)):
        out.write("  ".join(v.rjust(w) for v, w in zip(cells, widths)) + "\n")


def _cmd_count(args: argparse.Namespace) -> int:
    table = compute_table(args.n)
    if args.format == "json":
        table_to_json(table, sys.stdout)
    elif args.format == "csv":
        table_to_csv(table, sys.stdout, all_sequences=args.all_sequences)
    else:
        _format_table(table, sys.stdout, args.all_sequences)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    k_max = args.max_k
    if k_max > VERIFY_MAX_K:
        print(
            f"error: --max-k {k_max} exceeds {VERIFY_MAX_K}, the largest k verify "
            f"enumerates (k=8 has 1.2 billion classes)",
            file=sys.stderr,
        )
        return 2
    if k_max > DEFAULT_CUTOFF and not args.unsafe_large:
        print(
            f"error: --max-k {k_max} exceeds the safe cutoff {DEFAULT_CUTOFF}; "
            f"pass --unsafe-large to proceed",
            file=sys.stderr,
        )
        return 2
    table = compute_table(k_max)
    failures = 0
    for k in range(1, k_max + 1):
        counted = len(enumerate_tree_classes(k, cutoff=k_max))
        expected = table.row(k).A
        status = "PASS" if counted == expected else "FAIL"
        if counted != expected:
            failures += 1
        print(f"k={k}: oracle={counted} engine={expected} {status}")
    if failures:
        print(f"{failures} of {k_max} checks failed")
        return 1
    print(f"all {k_max} checks passed")
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    names = NameMap()
    left, _ = parse(args.expr1, names)
    right, _ = parse(args.expr2, names)
    if evaluate(left) == evaluate(right):
        print("equivalent")
        return 0
    print("inequivalent")
    return 1


def _cmd_canon(args: argparse.Namespace) -> int:
    tree, _ = parse(args.expr)
    print(evaluate(tree).render())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    for run in range(1, args.repeat + 1):
        counter = OpCounter()
        start = time.perf_counter()
        compute_table(args.n, counter)
        elapsed = time.perf_counter() - start
        print(f"run {run}: {elapsed:.3f}s", file=sys.stderr)
    print(
        f"n={args.n} multiplications={counter.muls} "
        f"additions={counter.adds} exact_divisions={counter.divs}"
    )
    return 0


def _count_arg(text: str) -> int:
    """argparse type for sizes and counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


# Building the parser costs about a millisecond, as much as a whole equiv
# call; one parser per process serves every main() call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exprcount",
        description=(
            "Count inequivalent arithmetic expressions on distinct variables "
            "and check expression equivalence exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print the sequence values for k = 1..N")
    p.add_argument("--n", type=_count_arg, required=True, metavar="N")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument(
        "--all-sequences",
        action="store_true",
        help="show S, Q, R, P and A instead of A only (json always carries all)",
    )
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="cross-check the engine against enumeration")
    p.add_argument("--max-k", type=_count_arg, default=3, metavar="K")
    p.add_argument(
        "--unsafe-large",
        action="store_true",
        help=(
            f"allow K beyond the enumeration cutoff, up to {VERIFY_MAX_K} (k=5 takes "
            "under a second, k=6 about 20 s and 0.5 GB, k=7 about 21 GB)"
        ),
    )
    # Accepted and validated but selects nothing: the enumeration is serial.
    # Kept only because perfbench's verify argv still passes --processes 1.
    p.add_argument("--processes", type=_count_arg, default=1, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)

    # argparse reads any argument that starts with '-' as an option
    minus = "an expression that starts with '-' must follow '--', as in: %(prog)s -- "
    p = sub.add_parser(
        "equiv", help="decide whether two expressions are equivalent", epilog=minus + "a '-a'"
    )
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser(
        "canon", help="print the canonical fraction of an expression", epilog=minus + "'-a*b'"
    )
    p.add_argument("expr")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("bench", help="time the engine and count integer operations")
    p.add_argument("--n", type=_count_arg, required=True, metavar="N")
    p.add_argument("--repeat", type=_count_arg, default=1, metavar="R")
    p.set_defaults(func=_cmd_bench)
    return parser


def _report(message: str) -> None:
    """Print an error handler's message to stderr, if stderr is still open.

    A reader that closed stderr loses the message, but the exit code stays
    the handler's: an escaping BrokenPipeError would end the process with
    exit 1, which means "inequivalent" or "mismatch".
    """
    try:
        print(message, file=sys.stderr)
    except BrokenPipeError:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ExprSyntaxError as exc:
        _report(f"syntax error: {exc}")
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        _report(f"error: {exc}")
        return 2
    except RecursionError:  # the exact gcd recurses once per variable
        _report("error: input too large for Python's recursion limit")
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``| head``): not a fault.  Write nothing,
        # as stderr may be the same pipe; the failed write emptied stdout's
        # buffer, so the flush at exit is silent too.
        return 2
    except Exception as exc:  # noqa: BLE001 -- any other fault is internal
        _report(f"internal error: {type(exc).__name__}: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
