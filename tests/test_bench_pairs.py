"""The summary that scripts/bench_pairs.py writes, on fixed numbers, and the file it updates."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _runs(parent, change, failed=(0, 0)):
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c))[:: 1 if i % 2 == 0 else -1]:
            runs.append({
                "pair": i, "seed": 100 + i, "side": side, "rc": 0, "attempted": 10,
                "failed": failed[side == "change"], "op_ms_p50": value,
            })
    return runs


def test_summary_of_four_pairs():
    summary = bench_pairs.summarize(_runs([1.0, 2.0, 3.0, 4.0], [0.9, 2.1, 2.5, 3.0], failed=(1, 0)))
    assert summary == {
        "pairs": 4,
        "seeds": [100, 101, 102, 103],
        "failed": {"parent": 4, "change": 0},
        "attempted": {"parent": 40, "change": 40},
        "op_ms_p50": {
            "parent_median": 2.5,
            "change_median": 2.3,
            "change_vs_parent": "-8.0%",
            # exclusive quartiles of 1, 2, 3, 4: 1.25 and 3.75
            "parent_iqr": 2.5,
            "change_lower_pairs": "3 of 4",
        },
    }


def test_summary_skips_an_unfinished_pair_and_has_no_iqr_for_one_pair():
    runs = _runs([2.0, 5.0], [3.0, 1.0])
    runs.pop()  # pair 1 has only its change run
    summary = bench_pairs.summarize(runs)
    assert summary["pairs"] == 1 and summary["seeds"] == [100]
    assert summary["op_ms_p50"] == {
        "parent_median": 2.0,
        "change_median": 3.0,
        "change_vs_parent": "+50.0%",
        "parent_iqr": None,
        "change_lower_pairs": "0 of 1",
    }


def test_an_existing_file_is_updated_only_for_its_own_commit_pair(tmp_path):
    commits = {"parent": "a" * 40, "change": "b" * 40}
    out = tmp_path / "BENCH.json"
    assert bench_pairs.load(out, commits) == {"commits": commits}
    out.write_text(json.dumps({"commits": commits, "summary": {"verify": {}}}))
    assert bench_pairs.load(out, commits)["summary"] == {"verify": {}}
    for other in ({"parent": "a" * 40, "change": "c" * 40}, None):
        out.write_text(json.dumps({"commits": other, "summary": {"verify": {}}}))
        with pytest.raises(SystemExit, match="does not hold runs of"):
            bench_pairs.load(out, commits)
