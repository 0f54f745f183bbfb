"""Benchmark launcher: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload mac-sampling|error-rotated
        --seed N --seconds S --trace 0|1 [--smoke]

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Every workload process is a fresh interpreter with BLAS
pinned to one thread.  With --trace 0 the last line holds the end-to-end
metrics, taken from an untraced run; set-up is measured in SETUP_RUNS
fresh processes and reported as their median.  With --trace 1 it holds the
per-layer metrics of a traced replay.  Before the last line come one line
per metric and a ``detail`` line with the environment, failures by class
and the correctness checks.  The exit code is 1 when a result is wrong, 2
when the benchmark cannot run here.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("mac-sampling", "error-rotated")
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list, env: dict) -> dict:
    """Run one worker; its last stdout line, plus set-up seconds from its start."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER)] + args, env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise BenchError("worker %s exited with %d" % (" ".join(args), proc.returncode))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, env: dict, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single set-up run, for the smoke test")
    args = parser.parse_args(argv)
    # A terminated launcher unwinds, so subprocess.run kills the running
    # worker and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "anisotetra" / "__init__.py").is_file():
        print("run.py: no anisotetra package under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    env = worker_env()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmpdir", tmpdir]
    if args.smoke:
        common.append("--smoke")
    try:
        # Set-up samples are split around the measured run, so that they do
        # not all fall into one slow phase of a shared machine.
        extra = 0 if args.smoke or args.trace else SETUP_RUNS - 1
        setup_args = common + ["--seconds", str(args.seconds), "--setup-only"]
        setups = [spawn(setup_args, env)["setup_s"] for _ in range(extra // 2)]
        result = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env)
        setups += [spawn(setup_args, env)["setup_s"] for _ in range(extra - extra // 2)]
        setups.append(result["setup_s"])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    info = environment(args.seed, env, result.pop("versions"))
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    detail = {k: v for k, v in result.items() if k not in ("metrics", "ready", "setup_s")}
    detail.update({"workload": args.workload, "trace": args.trace, "env": info,
                   "setup_runs_s": setups,
                   "failed_frac": result["failed"] / result["attempted"]})
    correct = not result["wrong"]

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  attempted %d  failed %d  failed_frac %.4f  typed %s  raw %s" % (
        result["attempted"], result["failed"], detail["failed_frac"],
        result["failures"]["typed"], result["failures"]["raw"]))
    if "tail" in result:
        print("  call_tail_ms is p%(percentile)d of %(calls)d calls, %(calls_above)d above it"
              % result["tail"])
    for message in result["wrong"][:10]:
        print("  WRONG: %s" % message)
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
