"""tools/bench_pairs.py on stubbed runs: pairing order and the report."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "call_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def result(correct=True, **values):
    """One run.py result line with the given metric values."""
    return {"correct": correct, "metrics": {k: {"value": v} for k, v in values.items()}}


def test_the_first_side_alternates_between_pairs(capsys):
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        return result(items_per_s=float(seed), call_tail_ms=1.0)

    trees = {"parent": "P", "change": "C"}
    runs = bench_pairs.run_pairs(trees, ["w1", "w2"], 7, run=run)
    assert len(calls) == bench_pairs.PAIRS * 2 * 2
    for i in range(bench_pairs.PAIRS):
        pair = calls[4 * i: 4 * i + 4]
        first = ("P", "C") if i % 2 == 0 else ("C", "P")
        assert [c[0] for c in pair] == list(first) * 2, i
        assert [c[1] for c in pair] == ["w1", "w1", "w2", "w2"]
        assert {c[2] for c in pair} == {bench_pairs.FIRST_SEED + i}
        assert {c[3] for c in pair} == {7}
    seeds = [bench_pairs.FIRST_SEED + i for i in range(bench_pairs.PAIRS)]
    for w in ("w1", "w2"):
        for side in ("parent", "change"):
            assert [r["metrics"]["items_per_s"]["value"] for r in runs[w][side]] == seeds
    assert capsys.readouterr().err.count("pair ") == len(calls)


def entries_for(parent, change, wrong=None):
    """workload_entries on one workload whose sides ran the given (items,
    tail) values; the fourth run of the side wrong, if any, is not correct."""
    runs = {"w": {
        side: [result(side != wrong or i != 3, items_per_s=a, call_tail_ms=b)
               for i, (a, b) in enumerate(values)]
        for side, values in (("parent", parent), ("change", change))
    }}
    return bench_pairs.workload_entries(runs, METRICS)


def test_pairs_won_follows_the_metric_direction():
    # Higher items/s and lower tail are better; the change wins 3 of 5
    # pairs on each, and ties count for neither side.
    parent = [(100.0, 2.0), (100.0, 2.0), (100.0, 2.0), (100.0, 2.0), (100.0, 2.0)]
    change = [(110.0, 1.5), (90.0, 2.5), (120.0, 1.0), (100.0, 2.0), (101.0, 1.9)]
    [entry] = entries_for(parent, change)
    rows = {row["name"]: row for row in entry["end_to_end"]}
    assert rows["items_per_s"]["pairs_won"] == 3
    assert rows["call_tail_ms"]["pairs_won"] == 3
    # A change that only gets worse wins none, whichever the direction.
    [entry] = entries_for(parent, [(50.0, 4.0)] * 5)
    assert [row["pairs_won"] for row in entry["end_to_end"]] == [0, 0]
    assert [row["better"] for row in entry["end_to_end"]] == ["higher", "lower"]


def test_quartiles_and_median_change():
    parent = [(float(v), 2.0) for v in (10, 20, 30, 40, 50)]
    change = [(float(v), 1.0) for v in (15, 25, 35, 45, 55)]
    [entry] = entries_for(parent, change)
    items, tail = entry["end_to_end"]
    assert items["parent"] == {"median": 30.0, "q1": 20.0, "q3": 40.0,
                               "runs": [10.0, 20.0, 30.0, 40.0, 50.0]}
    assert (items["change"]["median"], items["change"]["q1"], items["change"]["q3"]) \
        == (35.0, 25.0, 45.0)
    assert items["median_change"] == pytest.approx(5.0 / 30.0)
    assert tail["median_change"] == pytest.approx(-0.5)
    assert items["unit"] == "1/s" and items["bound"] == 0.25
    # A zero parent median has no relative change.
    [entry] = entries_for([(0.0, 2.0)] * 5, [(1.0, 2.0)] * 5)
    assert entry["end_to_end"][0]["median_change"] is None


@pytest.mark.parametrize("wrong", [None, "parent", "change"])
def test_correct_is_reported_per_side(wrong):
    values = [(100.0, 2.0)] * 5
    [entry] = entries_for(values, values, wrong)
    assert entry["correct"] == {side: side != wrong for side in ("parent", "change")}
