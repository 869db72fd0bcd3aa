"""Benchmark for exprcount: closed-loop workloads run in-process through the CLI.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {count,verify,equiv} --seed N --seconds S --trace {0,1}

Workloads (perfbench/workloads.json records why each exists):

* ``count``  -- ``count --n 1000 --format json``;
* ``verify`` -- ``verify --max-k 4 --processes 1``, then the grammar route at k = 5;
* ``equiv``  -- a seeded corpus of expression pairs through ``equiv`` and ``canon``.

One caller runs the operations one after another in this process, through
``exprcount.cli.main(argv)`` with stdout captured, and checks every output
against an answer that does not come from exprcount.  A run is a fixed list
of operations, sized from ``--seconds`` and the workload's reference rate,
so the same arguments always attempt the same operations.  Timings are
scaled to the reference host's speed by probes (perfbench/speed.py).

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics under ``--trace 0`` and the
per-layer metrics under ``--trace 1``.  The line before it is a report with
the environment, the per-workload metric names, the unscaled timings and
the outcome of every kind of operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402
from speed import Speed  # noqa: E402

SETTINGS = json.loads((HERE / "workloads.json").read_text())
CONFIG = SETTINGS["workloads"]
PROBES = SETTINGS["probes"]
A = (2, 10, 94, 1466, 31814)  # A_1..A_5, from the paper
SETUP_REPS = 21
# The contract's op_ms_tail is the highest percentile up to this one with ten
# samples above it.  Above it, equiv's tail depends on which rare slow
# entries a seed's corpus holds more than on the program.
TAIL_CAP = 90

# Outcomes of an operation.  Every outcome but OK counts as failed.  Only
# WRONG, an answer that contradicts the independent check, makes the run
# incorrect: OVERRUN (deadline or equiv's coefficient budget passed) and
# ERROR (exit 3 or an exception escaping the program) give no answer at all.
OK, WRONG, OVERRUN, ERROR = "ok", "wrong", "overrun", "error"


class Overrun(BaseException):
    """Raised when a call passes its deadline or its coefficient budget.

    A BaseException, so that no handler in the program can swallow it.
    """


def _alarm(signum, frame):
    raise Overrun()


def new_speed(probe: str, exponent: float = 1.0) -> Speed:
    return Speed(probe, PROBES[probe]["reference_s"], PROBES["interval_s"], exponent)


def setup(speed: Speed) -> tuple[list[float], list[float], object]:
    """Import exprcount from src/ and build its parser, SETUP_REPS times.

    Every repetition drops the package from sys.modules first, so module
    execution is timed each time.  A probe runs before each repetition and
    after the last; each repetition's time is scaled by the two probes
    around it.  Returns the raw times, the scaled times and the cli module.
    """
    if not (SRC / "exprcount" / "__init__.py").is_file():
        raise SystemExit(f"error: no exprcount package under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    speed.sample()
    for _ in range(SETUP_REPS):
        for name in [n for n in sys.modules if n == "exprcount" or n.startswith("exprcount.")]:
            del sys.modules[name]
        start = time.perf_counter()
        cli = importlib.import_module("exprcount.cli")
        cli.build_parser()
        times.append(time.perf_counter() - start)
        speed.sample()
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported exprcount from {cli.__file__}, not {SRC}")
    probes = speed.samples
    scaled = [t * 2 * speed.reference_s / (a + b) for t, a, b in zip(times, probes, probes[1:])]
    return times, scaled, cli


def within(deadline: float, fn):
    """``fn()``, raising Overrun once ``deadline`` seconds have passed."""
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def call(cli, argv: list[str], deadline: float, speed: Speed) -> tuple[int | None, str, float]:
    """Run ``cli.main(argv)``; the exit code is None when the deadline passed."""
    out = io.StringIO()

    def main() -> int:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    start = speed.clock()
    try:
        rc = within(deadline, main)
    except Overrun:
        rc = None
    return rc, out.getvalue(), speed.clock() - start


class Op(NamedTuple):
    """One operation: ``run()`` returns (outcome, seconds)."""

    kind: str
    run: Callable[[], tuple[str, float]]


def _outcome(rc: int | None, good: bool) -> str:
    if rc is None:
        return OVERRUN
    if rc == 3:
        return ERROR
    return OK if good else WRONG


def _guard(fn, speed: Speed):
    """An exception escaping the program is a failed operation, not a crash."""

    def run():
        start = speed.clock()
        try:
            return fn()
        except Exception:  # noqa: BLE001 -- any traceback is a program failure
            return ERROR, speed.clock() - start

    return run


def run_size(workload: str, seconds: float) -> int:
    """Operations in a run: about ``seconds`` of work on the reference host."""
    return max(1, round(seconds * CONFIG[workload]["ops_per_run_second"]))


def check_count(out: str) -> bool:
    cfg = CONFIG["count"]
    if hashlib.sha256(out.encode()).hexdigest() != cfg["stdout_sha256"]:
        return False
    data = json.loads(out)
    rows = data["rows"]
    return (
        data["n"] == 1000
        and len(rows) == 1000
        and [int(r["A"]) for r in rows[:5]] == list(A)
        and all(r["S"][-1] in "02468" for r in rows)
    )


def count_ops(cli, seed: int, size: int, speed: Speed) -> list[Op]:
    cfg = CONFIG["count"]

    def run():
        rc, out, dt = call(cli, cfg["argv"], speed.deadline(cfg["deadline_s"]), speed)
        return _outcome(rc, rc == 0 and check_count(out)), dt

    return [Op("count", _guard(run, speed)) for _ in range(size)]


VERIFY_STDOUT = "".join(f"k={k}: oracle={a} engine={a} PASS\n" for k, a in enumerate(A[:4], 1))
VERIFY_STDOUT += "all 4 checks passed\n"


def verify_ops(cli, seed: int, size: int, speed: Speed) -> list[Op]:
    cfg = CONFIG["verify"]
    oracle = sys.modules["exprcount.oracle"]
    k = cfg["grammar_k"]

    def grammar() -> bool:
        builder = oracle._GrammarBuilder()
        classes = oracle.enumerate_grammar(k, "sum", cutoff=k, builder=builder)
        classes += oracle.enumerate_grammar(k, "product", cutoff=k, builder=builder)
        return len(classes) == A[k - 1] and len(set(classes)) == len(classes)

    def run():
        deadline = speed.deadline(cfg["deadline_s"])
        rc, out, dt = call(cli, cfg["argv"], deadline, speed)
        if rc != 0 or out != VERIFY_STDOUT:
            return _outcome(rc, False), dt
        start = speed.clock()
        try:
            good = within(deadline, grammar)
        except Overrun:
            return OVERRUN, dt + speed.clock() - start
        return (OK if good else WRONG), dt + speed.clock() - start

    return [Op("verify", _guard(run, speed)) for _ in range(size)]


def _equiv_op(cli, entry: dict, key: dict, deadline_s: float, speed: Speed) -> Op:
    def run():
        argv = ["equiv", "--", entry["left"], entry["right"]]
        rc, out, dt = call(cli, argv, speed.deadline(deadline_s), speed)
        want = {0: "equivalent\n", 1: "inequivalent\n", 2: ""}[key["equiv_rc"]]
        return _outcome(rc, rc == key["equiv_rc"] and out == want), dt

    return Op("equiv", _guard(run, speed))


def _canon_op(cli, entry: dict, key: dict, deadline_s: float, speed: Speed) -> Op:
    def good(rc: int | None, out: str) -> bool:
        if rc != key["canon_rc"]:
            return False
        if rc == 2:
            return out == ""
        if not out.endswith("\n") or "\n" in out[:-1]:
            return False
        names = key["left_names"]
        try:
            got = [corpus.read_canon(out[:-1], names, p) for p in key["points"]]
        except (ValueError, ZeroDivisionError, IndexError):
            return False
        return got == key["left_values"]

    def run():
        rc, out, dt = call(cli, ["canon", "--", entry["left"]], speed.deadline(deadline_s), speed)
        return _outcome(rc, good(rc, out)), dt

    return Op("canon", _guard(run, speed))


def coefficient_budget(bits: int) -> Callable[[], None]:
    """Make poly_gcd raise Overrun once an input coefficient passes ``bits`` bits.

    A wall-clock deadline cannot tell a gcd blow-up from a slow call in the
    same way on every run: call times run on continuously from milliseconds
    to minutes, and the host's speed moves the cut.  Coefficient size is
    exact.  Every reference to poly_gcd that an ``exprcount.*`` module holds
    is rebound, ``rational``'s import and the recursion through ``polys``
    alike.  Returns the function that puts the original back.
    """
    polys = sys.modules["exprcount.polys"]
    original = polys.poly_gcd

    def poly_gcd(p, q):
        for poly in (p, q):
            if any(c.bit_length() > bits for c in poly.terms.values()):
                raise Overrun()
        return original(p, q)

    modules = [m for n, m in sys.modules.items() if n == "exprcount" or n.startswith("exprcount.")]
    sites = [(m, k) for m in modules for k, v in list(vars(m).items()) if v is original]
    for module, key in sites:
        setattr(module, key, poly_gcd)

    def undo() -> None:
        for module, key in sites:
            setattr(module, key, original)

    return undo


def equiv_ops(cli, seed: int, size: int, speed: Speed) -> list[Op]:
    """``size`` corpus entries, each an ``equiv`` and a ``canon`` operation."""
    deadline_s = CONFIG["equiv"]["deadline_s"]
    ops = []
    for entry, key in itertools.islice(corpus.corpus(seed), size):
        ops.append(_equiv_op(cli, entry, key, deadline_s, speed))
        ops.append(_canon_op(cli, entry, key, deadline_s, speed))
    return ops


WORKLOADS = {"count": count_ops, "verify": verify_ops, "equiv": equiv_ops}


class Record(NamedTuple):
    kind: str
    outcome: str
    seconds: float  # probe time left out
    scaled: float  # seconds at the reference host's speed


def measure(ops: list[Op], speed: Speed) -> list[Record]:
    """Run the operations one after another, sampling the host's speed."""
    done = []
    speed.sample()
    speed.start()
    try:
        for op in ops:
            outcome, dt = op.run()
            done.append((op.kind, outcome, dt))
    finally:
        speed.stop()
    speed.sample()
    factor = speed.factor()
    return [Record(kind, outcome, dt, dt * factor) for kind, outcome, dt in done]


def timing(seconds: list[float], scale: float = 1.0, cap: int = 100) -> dict:
    """Median and a tail: the highest percentile, up to ``cap``, with ten samples above it."""
    xs = sorted(x * scale for x in seconds)
    n = len(xs)
    if n > 10:
        i = min(n - 11, (cap * n) // 100)
        tail, pct = xs[i], 100.0 * (i + 1) / n
    else:
        tail, pct = xs[-1], 100.0
    return {"p50": statistics.median(xs), "tail": tail, "tail_percentile": round(pct, 2), "n": n}


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, records: list[Record], setup_scaled: list[float]) -> tuple[dict, dict]:
    """Contract metrics (generic names) and the report's per-workload names.

    Timings and throughput cover the operations that completed; failures
    count in failed_share.  Every timing is scaled to the reference host's
    speed.  The contract's tail stops at the 90th percentile (TAIL_CAP);
    the report's per-workload tails do not.
    """
    done = [r.scaled for r in records if r.outcome == OK]
    if not done:
        raise SystemExit(f"error: no {workload} operation completed")
    t = timing(done, 1000.0, cap=TAIL_CAP)
    ops_per_s = len(done) / sum(done)
    setup_s = statistics.median(setup_scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (t["p50"], "ms"),
        "op_ms_tail": (t["tail"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    named = {
        "setup_s": {"value": setup_s, "unit": "s", "n": len(setup_scaled)},
        "failed_share": {"value": (len(records) - len(done)) / len(records), "unit": "share"},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"][0], "unit": "MB"},
    }
    if workload in ("count", "verify"):
        tw = timing(done)
        named[f"{workload}_s"] = {
            "value": tw["p50"], "unit": "s", "tail": tw["tail"],
            "tail_percentile": tw["tail_percentile"], "n": tw["n"],
        }
        named[f"{workload}_ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    else:
        for kind in ("equiv", "canon"):
            tk = timing([r.scaled for r in records if r.kind == kind and r.outcome == OK], 1000.0)
            named[f"{kind}_ms_p50"] = {"value": tk["p50"], "unit": "ms", "n": tk["n"]}
            named[f"{kind}_ms_tail"] = {
                "value": tk["tail"], "unit": "ms", "tail_percentile": tk["tail_percentile"], "n": tk["n"]
            }
        named["equiv_ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    return metrics, named


def unscaled(records: list[Record], setup_raw: list[float], speed: Speed) -> dict:
    """Wall-clock figures as measured, and the probe times that scaled them."""
    done = [r.seconds for r in records if r.outcome == OK]
    t = timing(done, 1000.0, cap=TAIL_CAP)
    return {
        "setup_s": statistics.median(setup_raw),
        "op_ms_p50": t["p50"],
        "op_ms_tail": t["tail"],
        "ops_per_s": len(done) / sum(done),
        "probe_ms_median": 1000.0 * statistics.median(speed.samples),
        "probe_ms_reference": 1000.0 * speed.reference_s,
        "probes": len(speed.samples),
    }


def _pass(ops: list[Op], tracer=None) -> tuple[list, list]:
    records, counts = [], []
    for op in ops:
        outcome, dt = op.run()
        records.append((op.kind, outcome, dt))
        if tracer is not None:
            counts.append(tracer.take_op_counts())
    return records, counts


def run_traced(workload: str, cli, seed: int, speed: Speed) -> tuple[dict, dict, list, bool]:
    """Two traced passes around one untraced pass, over a fixed list of operations.

    The first traced pass also warms the process up; times come from the
    second one, whose ratio to the untraced pass is the tracing overhead.
    Times here are wall-clock, not scaled.
    """
    for _ in range(3):
        speed.sample()  # so that deadlines follow the host's speed
    ops = WORKLOADS[workload](cli, seed, CONFIG[workload]["trace_size"], speed)

    def traced_pass():
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            records, counts = _pass(ops, tracer)
        finally:
            tracing.restore(undo)
        return tracer, records, counts

    _, rec1, counts1 = traced_pass()
    untraced, _ = _pass(ops)
    tracer, rec2, counts2 = traced_pass()

    both = [i for i in range(len(ops)) if rec1[i][1] == OK and rec2[i][1] == OK]
    repeat = all(counts1[i] == counts2[i] for i in both)
    merged: Counter = Counter()
    for i in both:
        merged.update(counts2[i])
    all_three = [i for i in both if untraced[i][1] == OK]
    base = sum(untraced[i][2] for i in all_three)
    overhead = sum(rec2[i][2] for i in all_three) / base - 1.0 if base else 0.0
    metrics = tracing.per_layer(tracer.total_s, tracer.self_s, merged, tracer.maxima, overhead)
    spans = dict(sorted(
        (f"{key[0] or 'benchmark'} > {key[1]}", n) for key, n in merged.items() if isinstance(key, tuple)
    ))
    report = {
        "traced_run": {
            "operations": len(ops),
            "completed_in_both_traced_passes": len(both),
            "counts_repeat": repeat,
            "untraced_s": base,
            "span_calls": spans,
        }
    }
    records = rec1 + untraced + rec2
    return metrics, report, untraced, repeat and all(r[1] != WRONG for r in records)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    setup_raw, setup_scaled, cli = setup(new_speed("interp"))
    signal.signal(signal.SIGALRM, _alarm)
    speed = new_speed(CONFIG[args.workload]["probe"], PROBES["exponent"])
    if args.workload == "equiv":
        coefficient_budget(CONFIG["equiv"]["coefficient_budget_bits"])
    if args.trace:
        metrics, report, records, correct = run_traced(args.workload, cli, args.seed, speed)
    else:
        size = run_size(args.workload, args.seconds)
        ops = WORKLOADS[args.workload](cli, args.seed, size, speed)
        measured = measure(ops, speed)
        metrics, named = end_to_end(args.workload, measured, setup_scaled)
        report = {"workload_metrics": named, "unscaled": unscaled(measured, setup_raw, speed)}
        records = [(r.kind, r.outcome, r.seconds) for r in measured]
        correct = all(r.outcome != WRONG for r in measured)

    outcomes = Counter(f"{kind}:{outcome}" for kind, outcome, _ in records)
    failed = sum(n for key, n in outcomes.items() if not key.endswith(":" + OK))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "outcomes": dict(sorted(outcomes.items())),
        **report,
    }
    print(json.dumps(report))
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
