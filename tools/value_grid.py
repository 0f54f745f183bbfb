"""Every error_ratio result of a fixed grid, at a parent revision and in this
checkout, compared bit for bit.

    python3 tools/value_grid.py --parent REV [--scratch DIR]

The grid is 18 elements x 10 (k, m, p) specs x 22 fields, 3960 rows.  The
elements are generate(TetraGenSpec("mixed", 7), 12), then 3 needles (seed
3) and 3 slivers (seed 4) at eps = 1e-5.  The specs are (1,0,2), (1,1,3),
(2,1,2), (2,2,inf), (3,1,3), (3,2,2), (4,1,2), (4,2,inf), (4,4,3) and
(3,3,inf).  The fields are the 20 of corpus(k, t), a degree-k polynomial
with coefficients from default_rng([i, k]) on element i, and
x*sin(y) + exp(0.3*z).  Each row also records the public seminorm entry,
seminorm_with_info(v, t, SeminormSpec(k + 1, p)).value, so that the
wrapper around the seminorm loop is compared too.

REV is unpacked with bench_pairs.unpack under --scratch; each side computes
the grid in its own subprocess, with its own tree's src/ first on
PYTHONPATH, and prints one record per row: error, seminorm_hi, ratio and
bound_factor as float.hex strings, indeterminate and warnings, or the class
name and message of the exception the call raised; and the seminorm as a
float.hex string, or its exception.  The tool prints every
row whose records differ and the largest relative change per float column,
and exits 1 on any difference, 0 when every row is the same.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = ("error", "seminorm_hi", "ratio", "bound_factor")  # ErrorRatioResult's floats
FLOATS = RESULT + ("seminorm",)
INF = math.inf
SPECS = ((1, 0, 2.0), (1, 1, 3.0), (2, 1, 2.0), (2, 2, INF), (3, 1, 3.0),
         (3, 2, 2.0), (4, 1, 2.0), (4, 2, INF), (4, 4, 3.0), (3, 3, INF))
EXTRA = "x*sin(y) + exp(0.3*z)"


def grid() -> dict:
    """The grid's records, keyed "element/k,m,p/field", computed with the
    anisotetra that sys.path finds."""
    import numpy as np

    from anisotetra import (Polynomial3, SeminormSpec, TetraGenSpec, corpus, error_ratio,
                            field_from_expression, generate, monomial_indices,
                            seminorm_with_info)

    elements = (generate(TetraGenSpec("mixed", 7), 12)
                + generate(TetraGenSpec("needle", 3, {"eps": 1e-5}), 3)
                + generate(TetraGenSpec("sliver", 4, {"eps": 1e-5}), 3))
    rows = {}
    for i, t in enumerate(elements):
        for k, m, p in SPECS:
            coef = np.random.default_rng([i, k]).uniform(-1.0, 1.0, len(monomial_indices(k)))
            fields = corpus(k, t) + [("poly_k", Polynomial3.dense(coef, k)),
                                     ("extra", field_from_expression(EXTRA))]
            for name, v in fields:
                rows["%d/%d,%d,%s/%s" % (i, k, m, p, name)] = dict(
                    record(lambda: error_ratio(v, t, k, m, p)),
                    **seminorm(lambda: seminorm_with_info(v, t, SeminormSpec(k + 1, p))))
    return rows


def record(call) -> dict:
    """call()'s ErrorRatioResult as a record, or the exception it raised."""
    try:
        r = call()
    except Exception as exc:  # a raw error is a result to compare too
        return {"exception": [type(exc).__name__, str(exc)]}
    out = {name: float(getattr(r, name)).hex() for name in RESULT}
    out["indeterminate"] = bool(r.indeterminate)
    out["warnings"] = list(r.warnings)
    return out


def seminorm(call) -> dict:
    """call()'s SeminormInfo value as the seminorm column, or the exception
    it raised as seminorm_exception."""
    try:
        return {"seminorm": float(call().value).hex()}
    except Exception as exc:  # a raw error is a result to compare too
        return {"seminorm_exception": [type(exc).__name__, str(exc)]}


def relative_change(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two float.hex strings: 0 when they are the
    same float (NaN against NaN too), inf when only one is finite."""
    x, y = float.fromhex(a), float.fromhex(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(parent: dict, change: dict) -> tuple[list, dict]:
    """The keys whose records differ, sorted, and the largest relative change
    of each float column over them (where both sides have a value)."""
    differing = sorted(key for key in parent.keys() | change.keys()
                       if parent.get(key) != change.get(key))
    worst = {}
    for key in differing:
        a, b = parent.get(key, {}), change.get(key, {})
        for name in FLOATS:
            if name in a and name in b:
                worst[name] = max(worst.get(name, 0.0), relative_change(a[name], b[name]))
    return differing, worst


def computed(tree: Path) -> dict:
    """The grid's records from tree's src/, in a subprocess of this script."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("the grid in %s exited with %d: %s"
                           % (tree, proc.returncode, proc.stderr.strip()[-500:]))
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The error_ratio grid, parent against change.")
    parser.add_argument("--parent", help="git revision of the parent")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="where the parent is unpacked (default: the system temp dir)")
    parser.add_argument("--emit", action="store_true",
                        help="print this interpreter's grid as JSON and exit")
    args = parser.parse_args(argv)
    if args.emit:
        json.dump(grid(), sys.stdout)
        return 0
    if not args.parent:
        parser.error("--parent is required")

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_pairs import git, unpack

    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        parent = computed(unpack(git("rev-parse", args.parent), Path(scratch)))
    change = computed(ROOT)
    differing, worst = compare(parent, change)
    for key in differing:
        print("%s\n  parent %s\n  change %s" % (key, json.dumps(parent.get(key)),
                                                json.dumps(change.get(key))))
    print("%d of %d rows differ" % (len(differing), len(parent.keys() | change.keys())))
    for name in FLOATS:
        if name in worst:
            print("  largest relative change of %s: %.3e" % (name, worst[name]))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
