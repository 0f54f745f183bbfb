"""One workload in one fresh interpreter; prints one JSON line of results.

Started by run.py, which pins BLAS to one thread and puts ``src`` on the
path.  Importing the package, making the inputs and the warm-up calls are
set-up; the line reports the monotonic clock when set-up ended, so the
launcher can measure set-up from the moment it started this process.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --tmpdir DIR [--setup-only] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from collections import Counter
from time import perf_counter

import numpy as np
import scipy

from anisotetra import AnisotetraError

from replay import CliExit, Trace, per_layer_metrics, probe
from workloads import WORKLOADS, WrongResult

# The fixed tail percentile of call latency per workload.  It keeps at least
# ten calls above it, with margin: the highest such percentile falls between
# clusters of call costs and moved by a quarter from run to run.  It is
# fixed so that a faster commit is not measured at a higher percentile.
TAIL_PERCENTILE = {"mac-sampling": 75, "error-rotated": 90}

# An untraced run skips its remaining rounds once it has taken OVERRUN times
# --seconds, so that a much slower commit still finishes in bounded time.
OVERRUN = 1.3


class Tally:
    """Calls attempted, failures by class, and wrong results."""

    def __init__(self):
        self.attempted = 0
        self.typed = Counter()   # AnisotetraError subclasses and CLI exit codes
        self.raw = Counter()     # every other exception, by class
        self.raw_tracebacks = {}
        self.checked = 0
        self.wrong = []

    def call(self, fn, args):
        """(returned, result, seconds); failures are counted and never abort the run."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            return True, fn(args), perf_counter() - t0
        except (AnisotetraError, CliExit) as exc:
            name = type(exc).__name__ if isinstance(exc, AnisotetraError) else "exit %d" % exc.code
            self.typed[name] += 1
        except Exception as exc:  # a raw escape is itself a finding to report
            self.raw[type(exc).__name__] += 1
            self.raw_tracebacks.setdefault(type(exc).__name__, traceback.format_exc())
        return False, None, perf_counter() - t0

    def check(self, check, args, result) -> int:
        """Items of a returned call; 0 and a recorded message when it is wrong."""
        self.checked += 1
        try:
            return check(args, result)
        except WrongResult as exc:
            self.wrong.append(str(exc))
            return 0

    @property
    def failed(self) -> int:
        return sum(self.typed.values()) + sum(self.raw.values())


def cycles(seconds: float):
    """Yield once per cycle while one more cycle of average length still fits in `seconds`."""
    start = perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def plan(wl, seconds: float):
    """The calls of an untraced run: a fixed number of whole cycles, sized
    from `seconds` and the workload's cycle_s, so every run measures the
    same mix of calls however busy the machine is.  Made during set-up."""
    n_cycles = max(1, round(seconds / (wl.rounds * wl.cycle_s)))
    return [op for _ in range(n_cycles) for op in wl.cycle()]


def measure(wl, ops, seconds: float, tally: Tally):
    """Untraced: per call, its fastest time over wl.rounds and its items (None if it failed).

    Other tenants of a shared machine slow it down in phases of seconds to
    tens of seconds, so every call is made in wl.rounds rounds spread over
    the run and timed by its fastest round: that is the program's own cost.
    """
    best = [float("inf")] * len(ops)
    items = [None] * len(ops)
    start = perf_counter()
    for r in range(wl.rounds):
        if r and perf_counter() - start > OVERRUN * seconds:
            break
        for i, op in enumerate(ops):
            args = wl.prepare(op)
            returned, result, took = tally.call(wl.call, args)
            best[i] = min(best[i], took)
            if returned:
                n = tally.check(wl.check, args, result)
                if items[i] is None:
                    items[i] = n
    return best, items, r + 1


def trace_run(wl, seconds: float, tally: Tally, trace: Trace, tmpdir: str):
    """Traced: whole cycles for `seconds`; each call is paired with its replay.

    The replay gets inputs of its own, so nothing memoized by the untraced
    call speeds it up, and the two alternate in which runs first, so that
    neither profits from a warm start more than the other.
    """
    def replay(op):
        t0 = perf_counter()
        return trace.attempt(wl.replay, wl.prepare(op), trace), perf_counter() - t0

    index = 0
    for _ in cycles(seconds):
        for op in wl.cycle(trace):
            args = wl.prepare(op, trace)
            if index % 2:
                replayed, replay_s = replay(op)
            returned, result, took = tally.call(wl.call, args)
            if index % 2 == 0:
                replayed, replay_s = replay(op)
            index += 1
            if not returned:
                continue
            tally.check(wl.check, args, result)
            if replayed is not None and wl.compare(args, result, replayed, trace):
                trace.pair(took, replay_s)
    trace.attempt(wl.cli_overhead, trace, tmpdir)


def end_to_end(name: str, best, items):
    ok = [b for b, n in zip(best, items) if n is not None]
    lat = np.asarray(ok) * 1e3
    q = TAIL_PERCENTILE[name]
    tail_ms = float(np.percentile(lat, q))
    metrics = {
        "items_per_s": (sum(n for n in items if n) / sum(best), "1/s"),
        "call_p50_ms": (float(np.median(lat)), "ms"),
        "call_tail_ms": (tail_ms, "ms"),
        "ok_frac": (len(ok) / len(best), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail = {"percentile": q, "calls": len(lat), "calls_above": int(np.sum(lat > tail_ms))}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    wl.setup()
    ops = None if args.trace else plan(wl, args.seconds)
    out = {"ready": time.monotonic()}
    if not args.setup_only:
        tally = Tally()
        if not args.trace:
            best, items, out["rounds"] = measure(wl, ops, args.seconds, tally)
            out["metrics"], out["tail"] = end_to_end(args.workload, best, items)
        else:
            trace = Trace()
            trace_run(wl, args.seconds, tally, trace, args.tmpdir)
            probe_trace = Trace()
            probe(probe_trace, args.seed)
            out["metrics"], out["probed"], out["calls"] = per_layer_metrics(trace, probe_trace)
            out["replay_failures"] = dict(Counter(type(e).__name__ for e in trace.failures))
        out.update({
            "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": {"typed": dict(tally.typed), "raw": dict(tally.raw)},
            "raw_tracebacks": tally.raw_tracebacks,
            "checked": tally.checked,
            "wrong": tally.wrong,
        })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
