"""Per-layer spans for the traced run, recorded from outside the package.

`install` wraps the public functions of each exprcount module (layer) and
rebinds every reference to them that any ``exprcount.*`` module holds:
``rational`` imports ``poly_gcd`` and ``divexact`` by name, ``cli``
imports ``compute_table``, ``parse`` and ``evaluate``, and ``poly_gcd`` and
``evaluate`` recurse through their own module globals.  A reference left
unwrapped would silently miss calls, so `install` fails if one remains.
Nothing under ``src/`` is edited; `restore` puts the originals back.

Each span records its parent span.  A span's self time is its duration
minus the durations of its direct children; a name's total time counts
only its outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from typing import Callable


def _max_coeff_bits(p) -> int:
    return max((abs(c).bit_length() for c in p.terms.values()), default=0)


class Tracer:
    """Span and count totals for one pass over a fixed list of operations.

    ``op_counts`` holds the counts of the current operation only; the
    runner takes it with `take_op_counts` after every operation, so counts
    of an operation cut off by its deadline can be told apart.
    """

    def __init__(self) -> None:
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op_counts: Counter = Counter()
        self.stack: list[list] = []
        self.open: Counter = Counter()

    def take_op_counts(self) -> Counter:
        counts, self.op_counts = self.op_counts, Counter()
        # An operation cut off by its deadline may leave spans open.
        self.stack.clear()
        self.open.clear()
        return counts

    def wrap(self, name: str, fn: Callable, before: Callable | None = None) -> Callable:
        clock = time.perf_counter
        stack, open_, self_s, total_s = self.stack, self.open, self.self_s, self.total_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            counts = self.op_counts
            counts[name] += 1
            counts[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                open_[name] -= 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not open_[name]:
                    total_s[name] += dur

        return traced


def _wrap_compute_table(tracer: Tracer, name: str, fn: Callable) -> Callable:
    from exprcount.counting import OpCounter

    inner = tracer.wrap(name, fn)

    @functools.wraps(fn)
    def compute_table(n, counter=None):
        # The CLI passes no counter; the engine keeps the tallies only
        # when it gets one.
        own = counter if counter is not None else OpCounter()
        before = (own.muls, own.adds, own.divs)
        table = inner(n, own)
        counts = tracer.op_counts
        counts["counting.muls"] += own.muls - before[0]
        counts["counting.adds"] += own.adds - before[1]
        counts["counting.divs"] += own.divs - before[2]
        bits = table.rows[-1].A.bit_length()
        tracer.maxima["counting.A_bits"] = max(tracer.maxima["counting.A_bits"], bits)
        return table

    return compute_table


def _wrap_tree_classes(tracer: Tracer, name: str, fn: Callable) -> Callable:
    from exprcount.oracle import tree_shapes

    inner = tracer.wrap(name, fn)

    @functools.wraps(fn)
    def enumerate_tree_classes(k, *args, **kwargs):
        result = inner(k, *args, **kwargs)
        # One unit is one (tree shape, leaf labeling) pair.
        tracer.op_counts["oracle.units"] += len(tree_shapes(k)) * math.factorial(k)
        tracer.op_counts["oracle.classes"] += len(result)
        return result

    return enumerate_tree_classes


def _wrap_grammar(tracer: Tracer, name: str, fn: Callable) -> Callable:
    inner = tracer.wrap(name, fn)

    @functools.wraps(fn)
    def enumerate_grammar(*args, **kwargs):
        result = inner(*args, **kwargs)
        tracer.op_counts["oracle.classes"] += len(result)
        return result

    return enumerate_grammar


def _wrap_gcd(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def before(args) -> None:
        bits = max(_max_coeff_bits(args[0]), _max_coeff_bits(args[1]))
        if bits > tracer.maxima["polys.gcd_max_coeff_bits"]:
            tracer.maxima["polys.gcd_max_coeff_bits"] = bits

    return tracer.wrap(name, fn, before)


def _wrap_frac_op(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def before(args) -> None:
        # Frac results produced by the oracle, the base of oracle.useful_ratio.
        if tracer.open["oracle.enumerate_tree_classes"] or tracer.open["oracle.enumerate_grammar"]:
            tracer.op_counts["oracle.frac_results"] += 1

    return tracer.wrap(name, fn, before)


def _plain(tracer: Tracer, name: str, fn: Callable) -> Callable:
    return tracer.wrap(name, fn)


# (span name, module, attribute, wrapper factory): module-level functions.
FUNCTIONS = (
    ("counting.compute_table", "exprcount.counting", "compute_table", _wrap_compute_table),
    ("cli.table_to_json", "exprcount.cli", "table_to_json", _plain),
    ("cli.main", "exprcount.cli", "main", _plain),
    ("oracle.enumerate_tree_classes", "exprcount.oracle", "enumerate_tree_classes", _wrap_tree_classes),
    ("oracle.enumerate_grammar", "exprcount.oracle", "enumerate_grammar", _wrap_grammar),
    ("rational.canonicalize", "exprcount.rational", "canonicalize", _plain),
    ("polys.divexact", "exprcount.polys", "divexact", _plain),
    ("polys.gcd", "exprcount.polys", "poly_gcd", _wrap_gcd),
    ("polys.poly_str", "exprcount.polys", "poly_str", _plain),
    ("expressions.parse", "exprcount.expressions", "parse", _plain),
    ("expressions.evaluate", "exprcount.expressions", "evaluate", _plain),
)

# (span name, module, class, method): operators looked up on the class.
METHODS = (
    ("rational.add", "exprcount.rational", "Frac", "__add__", _wrap_frac_op),
    ("rational.sub", "exprcount.rational", "Frac", "__sub__", _wrap_frac_op),
    ("rational.mul", "exprcount.rational", "Frac", "__mul__", _wrap_frac_op),
    ("rational.truediv", "exprcount.rational", "Frac", "__truediv__", _wrap_frac_op),
    ("polys.mul", "exprcount.polys", "Poly", "__mul__", _plain),
)

FRAC_OPS = tuple(m[0] for m in METHODS if m[0].startswith("rational."))


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function at every site; returns the undo list."""
    modules = [m for n, m in sys.modules.items() if n == "exprcount" or n.startswith("exprcount.")]
    undo: list[tuple] = []
    for name, module, attr, factory in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        wrapper = factory(tracer, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
        leftover = [m.__name__ for m in modules if any(v is original for v in vars(m).values())]
        if leftover:
            raise RuntimeError(f"{module}.{attr} still bound unwrapped in {leftover}")
    for name, module, cls_name, attr, factory in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, factory(tracer, name, original))
        undo.append((cls, attr, original))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def per_layer(total_s, self_s, counts, maxima, overhead_share: float) -> dict:
    """The per-layer metrics, by the names BENCHMARK.json lists."""
    classes = counts["oracle.classes"]
    frac_results = counts["oracle.frac_results"]
    return {
        "counting.compute_table_s": (total_s["counting.compute_table"], "s"),
        "counting.muls": (counts["counting.muls"], "count"),
        "counting.adds": (counts["counting.adds"], "count"),
        "counting.divs": (counts["counting.divs"], "count"),
        "counting.A_bits": (maxima["counting.A_bits"], "bits"),
        "cli.table_to_json_s": (total_s["cli.table_to_json"], "s"),
        "cli.main_self_s": (self_s["cli.main"], "s"),
        "oracle.enumerate_tree_classes_s": (total_s["oracle.enumerate_tree_classes"], "s"),
        "oracle.enumerate_grammar_s": (total_s["oracle.enumerate_grammar"], "s"),
        "oracle.units": (counts["oracle.units"], "count"),
        "oracle.classes": (classes, "count"),
        "oracle.useful_ratio": (classes / frac_results if frac_results else 0.0, "ratio"),
        "rational.ops": (sum(counts[n] for n in FRAC_OPS), "count"),
        "rational.self_s": (
            sum(self_s[n] for n in FRAC_OPS) + self_s["rational.canonicalize"], "s"
        ),
        "rational.canonicalize_calls": (counts["rational.canonicalize"], "count"),
        "polys.mul_calls": (counts["polys.mul"], "count"),
        "polys.mul_s": (total_s["polys.mul"], "s"),
        "polys.divexact_calls": (counts["polys.divexact"], "count"),
        "polys.divexact_s": (total_s["polys.divexact"], "s"),
        "polys.gcd_calls": (counts["polys.gcd"], "count"),
        "polys.gcd_s": (total_s["polys.gcd"], "s"),
        "polys.gcd_max_coeff_bits": (maxima["polys.gcd_max_coeff_bits"], "bits"),
        "polys.poly_str_s": (total_s["polys.poly_str"], "s"),
        "expressions.parse_s": (total_s["expressions.parse"], "s"),
        "expressions.evaluate_self_s": (self_s["expressions.evaluate"], "s"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
