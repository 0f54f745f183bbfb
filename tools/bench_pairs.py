"""Paired benchmark runs of a parent commit against a change.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<pr>.json [--scratch DIR]
        [--first-seed N]

Both sides are unpacked the same way, with ``git archive`` into temporary
directories under --scratch, so that the trees' location cannot differ
between them: the parent is the git revision REV, and the change is this
checkout's tracked files as they are now (the commit ``git stash create``
makes of them, or HEAD when nothing is modified).  A stash does not carry
untracked files, so the tool refuses to run while git lists any under src/
or perfbench/.  For each of 10 pairs and every workload in BENCHMARK.json,
both sides run ``perfbench/run.py --trace 0`` for BENCHMARK.json's
run_seconds from their own tree with the same seed, one after the other, and
which side goes first alternates between pairs, so that a slow phase of a
shared machine does not fall on one side only.  Pair i uses seed N + i, N
from --first-seed (default 11): a claim is checked again on seeds that were
not used while the change was written.

The output is a JSON file in BENCHMARK.json's shape: for each workload, each
end-to-end metric with its unit, direction and bound, and per side the
median, the quartiles and every run's value, with the relative change of the
medians, the number of pairs in which the change was better, and the
metric's verdict ("held", "worse" or "unresolved") and claim_met, by the
rules in verdict().  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 11


def git(*args: str) -> str:
    """git's stdout, stripped, run in this repository."""
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def unpack(rev: str, scratch: Path) -> Path:
    """The tree of rev in a new directory under scratch."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    dest = Path(tempfile.mkdtemp(prefix="tree-", dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def unpack_sides(parent: str, scratch: Path, git=git, unpack=unpack) -> dict:
    """The parent revision and the change, this checkout's tracked files as
    they are now, each unpacked under scratch: maps "parent" and "change" to
    a tree.  SystemExit, before anything is unpacked, when git lists an
    untracked file under src/ or perfbench/, which the change would lack."""
    untracked = git("ls-files", "--others", "--exclude-standard", "src", "perfbench")
    if untracked:
        raise SystemExit("untracked files would be left out of the change; add or remove "
                         "them first:\n" + untracked)
    change = git("stash", "create") or git("rev-parse", "HEAD")
    return {"parent": unpack(parent, scratch), "change": unpack(change, scratch)}


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run.py result: its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError("run.py in %s exited with %d: %s"
                           % (tree, proc.returncode, proc.stderr.strip()[-500:]))
    return json.loads(lines[-1])


def source_digest(tree: Path) -> str:
    """The digest of src/ that run.py reports, to name a tree."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(path.relative_to(tree / "src").as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def run_pairs(trees: dict, workloads: list, seconds: int, run=run_once,
              first_seed: int = FIRST_SEED) -> dict:
    """PAIRS pairs of run(tree, workload, seed, seconds) on both trees, which
    maps "parent" and "change" to a tree, with the same seed in a pair, seed
    first_seed + i in pair i: the parent runs first in even pairs and the
    change in odd ones.  Returns, for each workload, each side's results in
    pair order."""
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                result = run(trees[side], w, first_seed + i, seconds)
                runs[w][side].append(result)
                print("pair %d %-13s %-6s %s" % (i, w, side, json.dumps(
                    {m: round(v["value"], 6) for m, v in result["metrics"].items()})),
                    file=sys.stderr, flush=True)
    return runs


def verdict(row: dict) -> tuple[str, bool]:
    """The verdict on one metric's row and whether it meets a claim of gain.

    "unresolved": the parent's quartile spread is wider than the bound times
    its median, and not every change run beats every parent run; else
    "worse": the change's median is worse than the parent's by more than the
    bound; else "held".  The claim is met when the change won at least nine
    tenths of the pairs and its median is better by more than the parent's
    quartile spread."""
    sign = 1.0 if row["better"] == "higher" else -1.0
    parent, change = row["parent"], row["change"]
    base = abs(parent["median"])
    spread = parent["q3"] - parent["q1"]
    gain = sign * (change["median"] - parent["median"])
    beats_all = min(sign * c for c in change["runs"]) > max(sign * p for p in parent["runs"])
    if spread > row["bound"] * base and not beats_all:
        name = "unresolved"
    elif gain < -row["bound"] * base:
        name = "worse"
    else:
        name = "held"
    return name, row["pairs_won"] >= 0.9 * len(parent["runs"]) and gain > spread


def workload_entries(runs: dict, metrics: list) -> list[dict]:
    """The report's workloads from runs, which maps each workload to each
    side's run.py results in pair order: whether every run of a side was
    correct and, for each end-to-end metric of BENCHMARK.json, each side's
    summary, the relative change of the medians, the pairs the change won,
    the verdict and claim_met."""
    entries = []
    for w, by_side in runs.items():
        entry = {"name": w, "correct": {side: all(r["correct"] for r in rs)
                                        for side, rs in by_side.items()},
                 "end_to_end": []}
        for spec in metrics:
            name = spec["name"]
            sides = {side: [r["metrics"][name]["value"] for r in rs]
                     for side, rs in by_side.items()}
            sign = 1.0 if spec["better"] == "higher" else -1.0
            won = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            row = dict(spec, parent=summary(sides["parent"]), change=summary(sides["change"]))
            base = row["parent"]["median"]
            row["median_change"] = (row["change"]["median"] - base) / base if base else None
            row["pairs_won"] = won
            row["verdict"], row["claim_met"] = verdict(row)
            entry["end_to_end"].append(row)
        entries.append(entry)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Paired benchmark runs, parent against change.")
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, default=None,
                        help="where both trees are unpacked (default: the system temp dir)")
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED,
                        help="seed of the first pair; pair i uses it plus i (default %(default)s)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    commit = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        trees = unpack_sides(commit, Path(scratch))
        digests = {side: source_digest(tree) for side, tree in trees.items()}
        runs = run_pairs(trees, workloads, seconds, first_seed=args.first_seed)

    report = {
        "command": bench["command"] + ["--seconds", str(seconds), "--trace", "0"],
        "parent": commit,
        "source_sha256": digests,
        "pairs": PAIRS,
        "seeds": [args.first_seed + i for i in range(PAIRS)],
        "order": "parent first in even pairs, change first in odd pairs",
        "env": {"python": platform.python_version(), "machine": platform.machine()},
        "workloads": workload_entries(runs, metrics),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for entry in report["workloads"]:
        for row in entry["end_to_end"]:
            print("%-13s %-13s parent %10.4g [%10.4g, %10.4g]  change %10.4g [%10.4g, %10.4g]"
                  "  %+7.1f%%  won %d/%d  %-10s claim %s" % (
                      entry["name"], row["name"], row["parent"]["median"], row["parent"]["q1"],
                      row["parent"]["q3"], row["change"]["median"], row["change"]["q1"],
                      row["change"]["q3"], 100 * (row["median_change"] or 0.0), row["pairs_won"],
                      PAIRS, row["verdict"], "met" if row["claim_met"] else "not met"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
