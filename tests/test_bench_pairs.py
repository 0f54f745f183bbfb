"""tools/bench_pairs.py on stubbed runs and git: pairing, unpacking, report."""

import importlib.util
import json
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


def test_the_first_seed_is_a_setting(tmp_path, monkeypatch, capsys):
    # A claim is checked again on seeds not used while the change was
    # written: run_pairs starts at first_seed, and main records the seeds.
    seeds = []

    def run(tree, workload, seed, seconds):
        seeds.append(seed)
        return result(items_per_s=1.0, call_tail_ms=1.0)

    bench_pairs.run_pairs({"parent": "P", "change": "C"}, ["w"], 7, run=run, first_seed=41)
    assert sorted(set(seeds)) == list(range(41, 51))
    assert len(seeds) == 2 * bench_pairs.PAIRS

    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    metrics = [spec["name"] for spec in bench["end_to_end"]]

    def run_all(tree, workload, seed, seconds):
        return result(**{m: float(seed) for m in metrics})

    run_pairs = bench_pairs.run_pairs
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "PARENT-SHA")
    monkeypatch.setattr(bench_pairs, "unpack_sides", lambda parent, scratch: {
        "parent": tmp_path / "p", "change": tmp_path / "c"})
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda *args, **kwargs: run_pairs(
        *args, run=run_all, **kwargs))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--out", str(out), "--scratch", str(tmp_path),
                             "--first-seed", "41"]) == 0
    report = json.loads(out.read_text())
    assert report["seeds"] == list(range(41, 51))
    runs = report["workloads"][0]["end_to_end"][0]["parent"]["runs"]
    assert runs == [float(seed) for seed in range(41, 51)]
    capsys.readouterr()


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


def fake_git(untracked="", stash=""):
    """A git stub: the given ls-files and stash outputs, and "HEAD-SHA" for
    rev-parse; every call is logged."""
    log = []

    def git(*args):
        log.append(args)
        return {"ls-files": untracked, "stash": stash, "rev-parse": "HEAD-SHA"}[args[0]]

    return git, log


@pytest.mark.parametrize("stash,change", [("STASH-SHA", "STASH-SHA"), ("", "HEAD-SHA")])
def test_both_sides_are_unpacked_from_git(tmp_path, stash, change):
    # A modified checkout is benchmarked as its stash commit, a clean one as
    # HEAD; neither side runs from the checkout itself.
    git, log = fake_git(stash=stash)
    unpacked = []

    def unpack(rev, scratch):
        unpacked.append((rev, scratch))
        return Path("tree-of-" + rev)

    trees = bench_pairs.unpack_sides("PARENT-SHA", tmp_path, git=git, unpack=unpack)
    assert trees == {"parent": Path("tree-of-PARENT-SHA"), "change": Path("tree-of-" + change)}
    assert unpacked == [("PARENT-SHA", tmp_path), (change, tmp_path)]
    assert log[0] == ("ls-files", "--others", "--exclude-standard", "src", "perfbench")
    assert log[1] == ("stash", "create")


def test_untracked_sources_are_refused(tmp_path):
    git, _ = fake_git(untracked="src/anisotetra/new.py")

    def unpack(rev, scratch):
        raise AssertionError("nothing is unpacked")

    with pytest.raises(SystemExit, match="src/anisotetra/new.py"):
        bench_pairs.unpack_sides("PARENT-SHA", tmp_path, git=git, unpack=unpack)


def verdict_of(parent, change):
    """(verdict, claim_met) of items/s, higher is better with bound 0.25, on
    ten pairs with the given per-side values."""
    [entry] = entries_for([(a, 1.0) for a in parent], [(a, 1.0) for a in change])
    items = entry["end_to_end"][0]
    return items["verdict"], items["claim_met"]


STEADY = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
NOISY = [60.0, 140.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0, 75.0, 125.0]


def test_verdict_held_within_the_bound():
    assert verdict_of(STEADY, [v * 0.9 for v in STEADY]) == ("held", False)
    assert verdict_of(STEADY, STEADY) == ("held", False)


def test_verdict_worse_beyond_the_bound():
    assert verdict_of(STEADY, [v * 0.7 for v in STEADY]) == ("worse", False)
    # Lower is better for the tail: a 30% longer tail is worse as well.
    [entry] = entries_for([(100.0, v) for v in STEADY], [(100.0, 1.3 * v) for v in STEADY])
    assert entry["end_to_end"][1]["verdict"] == "worse"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # The parent's quartiles are [71.25, 128.75]: a spread of 57.5% of the
    # median, against the 0.25 bound.
    assert verdict_of(NOISY, NOISY) == ("unresolved", False)
    assert verdict_of(NOISY, [v * 0.5 for v in NOISY]) == ("unresolved", False)
    # Unless every change run beats every parent run.
    assert verdict_of(NOISY, [v + 100.0 for v in NOISY]) == ("held", True)


def test_claim_needs_nine_pairs_and_a_gap_wider_than_the_spread():
    assert verdict_of(STEADY, [v + 10.0 for v in STEADY]) == ("held", True)
    # Nine of ten pairs won still meets it, eight does not.
    nine = [v + 10.0 for v in STEADY[:9]] + [STEADY[9] - 1.0]
    assert verdict_of(STEADY, nine) == ("held", True)
    eight = [v + 10.0 for v in STEADY[:8]] + [v - 1.0 for v in STEADY[8:]]
    assert verdict_of(STEADY, eight) == ("held", False)
    # Every pair won by a gap inside the parent's quartile spread (1.5).
    assert verdict_of(STEADY, [v + 1.0 for v in STEADY]) == ("held", False)
