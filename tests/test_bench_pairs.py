"""tools/bench_pairs.py, the paired benchmark runner: its summary, on made-up run records."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(workload, seed, pair, side, wall, rss, correct=True, failed=0):
    return {"workload": workload, "seed": seed, "pair": pair, "side": side, "correct": correct, "failed": failed,
            "attempted": 5, "metrics": {"wall_s": {"value": wall, "unit": "s"}, "score": {"value": rss, "unit": "x"}}}


def test_summary_of_made_up_pairs(bench_pairs):
    walls = [(1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 0.7), (1.0, 1.0)]  # (parent, change) per pair
    records = []
    for pair, (parent, change) in enumerate(walls):
        records.append(_record("w", 1, pair, "parent", parent, 10 + pair))
        records.append(_record("w", 1, pair, "change", change, 12 - pair, failed=pair == 3))
    records.append(_record("w", 1, 9, "parent", 5.0, 0))  # a pair without its change run is left out
    records.append(_record("v", 2, 0, "change", 2.0, 1, correct=False))
    records.append(_record("v", 2, 0, "parent", 3.0, 1))
    out = bench_pairs.summarize(records, {"wall_s": "lower", "score": "higher"})

    cell = out["w"]["1"]
    assert cell["pairs"] == 5
    assert cell["correct"] == {"parent": True, "change": True}
    assert cell["failed"] == {"parent": 0, "change": 1}
    wall = cell["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.1}
    assert wall["change"] == {"median": 0.9, "q1": 0.8, "q3": 1.0}
    assert wall["unit"] == "s" and wall["better"] == "lower"
    assert wall["change_won"] == 3  # a tie is not a win
    # higher is better: the change reads 12, 11, 10, 9, 8 against 10, 11, 12, 13, 14, so only pair 0 wins
    assert cell["metrics"]["score"]["change_won"] == 1

    other = out["v"]["2"]
    assert other["pairs"] == 1
    assert other["correct"] == {"parent": True, "change": False}
    assert other["metrics"]["wall_s"]["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert other["metrics"]["wall_s"]["change_won"] == 1


def test_summary_keys_workloads_then_seeds(bench_pairs):
    records = [_record(w, s, 0, side, 1.0, 1.0) for w in ("b", "a") for s in (2, 1) for side in ("change", "parent")]
    out = bench_pairs.summarize(records, {"wall_s": "lower"})
    assert list(out) == ["a", "b"] and list(out["a"]) == ["1", "2"]
    assert out["a"]["1"]["metrics"]["wall_s"]["change_won"] == 0
