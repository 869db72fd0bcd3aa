"""Paired perfbench runs of two git revisions, summarized as in the BENCH_*.json files.

Usage, from anywhere inside a git checkout::

    python3 scripts/bench_pairs.py PARENT CHANGE --workload equiv \\
        --seeds 101 102 103 --pairs 6 [--out BENCH_N.json]

Every run gets a fresh copy of its side: ``git archive`` extracts the
revision's ``src/``, ``perfbench/``, ``BENCHMARK.json`` and
``pyproject.toml`` into a new temporary directory, and
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` runs there,
T being the ``run_seconds`` of that copy's ``BENCHMARK.json``, with no
``__pycache__``, ``PYTHONDONTWRITEBYTECODE=1`` and no
``PYTHONPATH``.  One process runs at a time.  Pair i runs at seed
``seeds[i % len(seeds)]``; even pairs run the parent first, odd pairs the
change first, so a drift of the host's speed favours neither side.

A run's record holds its result line's metrics and, from the report line
before it, ``unscaled_op_ms_p50`` and ``probe_ms_median``: a probe that a
change slows (say, by a second process sharing the host) scales that
change's timings down, and these show by how much.

The output file holds ``commits``, and ``summary`` and ``runs``, each
keyed by workload; other keys of an existing file, and other workloads,
are kept, so one file can collect several workloads of one commit pair.
An existing file that names another commit pair is refused before any
run starts.  The file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PATHS = ("src", "perfbench", "BENCHMARK.json", "pyproject.toml")
SIDES = ("parent", "change")


def resolve(rev: str) -> str:
    """The full commit id of a revision, fixed before any run starts."""
    out = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def checkout(commit: str, into: Path) -> None:
    """Extract the benchmark's files of ``commit`` into the directory ``into``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit, *PATHS], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"error: git archive {commit} failed")
    for cache in into.rglob("__pycache__"):
        shutil.rmtree(cache)


def run_once(commit: str, workload: str, seed: int, workdir: str | None) -> dict:
    """One perfbench run in a fresh copy of ``commit``: rc and `parse_run`'s record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="bench_pairs-", dir=workdir) as tmp:
        copy = Path(tmp)
        checkout(commit, copy)
        seconds = json.loads((copy / "BENCHMARK.json").read_text())["run_seconds"]
        argv = [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"error: run of {commit[:12]} at seed {seed} exited {proc.returncode}")
    return {"rc": proc.returncode, **parse_run(lines)}


def parse_run(lines: list[str]) -> dict:
    """attempted, failed, each metric, and from the report line the unscaled
    op_ms_p50 and the probe median that scaled it."""
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    record = {"attempted": result["attempted"], "failed": result["failed"]}
    for name, metric in result["metrics"].items():
        record[name] = round(metric["value"], 6)
    record["unscaled_op_ms_p50"] = round(report["unscaled"]["op_ms_p50"], 6)
    record["probe_ms_median"] = round(report["unscaled"]["probe_ms_median"], 6)
    return record


def summarize(runs: list[dict]) -> dict:
    """Per-metric medians, change against parent, parent IQR and lower-pair counts.

    ``runs`` holds one record per side and pair, each with ``pair``,
    ``seed``, ``side``, ``attempted``, ``failed`` and one value per metric.
    The IQR is the distance between the parent's quartiles (exclusive
    method, as ``statistics.quantiles`` computes by default).
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [by_pair[i] for i in sorted(by_pair) if set(by_pair[i]) == set(SIDES)]
    fixed = {"pair", "seed", "side", "rc", "attempted", "failed"}
    metrics = [name for name in pairs[0]["parent"] if name not in fixed] if pairs else []
    out = {
        "pairs": len(pairs),
        "seeds": [p["parent"]["seed"] for p in pairs],
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
    }
    for name in metrics:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        if len(parent) > 1:
            q1, _, q3 = statistics.quantiles(parent, n=4)
            iqr = round(q3 - q1, 5)
        else:
            iqr = None
        lower = sum(c < p for p, c in zip(parent, change))
        out[name] = {
            "parent_median": round(parent_median, 5),
            "change_median": round(change_median, 5),
            "change_vs_parent": f"{100 * (change_median / parent_median - 1):+.1f}%",
            "parent_iqr": iqr,
            "change_lower_pairs": f"{lower} of {len(pairs)}",
        }
    return out


def load(out: Path, commits: dict[str, str]) -> dict:
    """The document to update: a new one, or ``out``'s if it names ``commits``."""
    doc = json.loads(out.read_text()) if out.exists() else {"commits": commits}
    if doc.get("commits") != commits:
        raise SystemExit(f"error: {out} does not hold runs of {commits}")
    return doc


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision of the parent side")
    p.add_argument("change", help="git revision of the changed side")
    p.add_argument("--workload", required=True, choices=("count", "verify", "equiv"))
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", type=Path, help="JSON file to write or update (default: stdout)")
    p.add_argument("--workdir", help="directory for the temporary copies (default: the system's)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}

    doc = load(args.out, commits) if args.out else {"commits": commits}
    runs: list[dict] = []
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            record = run_once(commits[side], args.workload, seed, args.workdir)
            runs.append({"pair": i, "seed": seed, "side": side, **record})
            print(json.dumps(runs[-1]), file=sys.stderr)
        doc.setdefault("summary", {})[args.workload] = summarize(runs)
        doc.setdefault("runs", {})[args.workload] = runs
        text = json.dumps(doc, indent=1) + "\n"
        if args.out:
            args.out.write_text(text)
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
