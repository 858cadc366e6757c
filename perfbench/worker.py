"""One benchmark process: set up a workload, run its operation, check the output.

``run.py`` starts a fresh process for every timed operation, because
``forms.derivative_maps`` keeps every form it has seen, so a second
normalization in one process is slower and larger than the first.  Modes:

    setup    set up and stop (``setup_s`` samples only)
    op       set up, run the operation once untraced; ``--repeat`` runs it a
             second time in the same process and reports the RSS growth
    traced   install the tracer, set up, run once, report per-layer metrics

The last line of standard output is one JSON object.  Set-up time runs from
``--t0``, the ``time.monotonic()`` reading the parent took just before
starting this process, to the moment the workload is ready.  Every timed
interval is also reported as a ``time.monotonic()`` window, so that the parent
can match it with its speed samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS, check

HERE = Path(__file__).resolve().parent


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """``VmHWM``: unlike ``ru_maxrss``, it does not carry the parent's RSS across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def timed_op(workload, rules) -> dict:
    """Run the operation once; time it, then check its output outside the timing."""
    start = time.monotonic()
    try:
        output = workload.run()
    except Exception:
        end = time.monotonic()
        return {
            "run_s": end - start,
            "window": [start, end],
            "ok": False,
            "error": traceback.format_exc(limit=3),
        }
    end = time.monotonic()
    summary = workload.summary(output)
    del output
    mismatches = [bad for rule in rules for bad in check(summary, rule)]
    return {
        "run_s": end - start,
        "window": [start, end],
        "ok": not mismatches,
        "mismatches": mismatches,
        "summary": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "op", "traced"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    root = Path.cwd()
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    workload = WORKLOADS[args.workload](root, args.seed, args.out)
    ready = time.monotonic()
    result = {"setup_s": ready - args.t0, "window": [args.t0, ready], "ops": []}
    rules = [reference["rules"], reference["variants"][str(workload.variant)]]
    if args.mode != "setup":
        if tracer is not None:
            tracer.phase = "run"
        result["ops"].append(timed_op(workload, rules))
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.layer_metrics(tracer)
        if args.repeat:
            gc.collect()
            before = current_rss_mb()
            result["ops"].append(timed_op(workload, rules))
            gc.collect()
            result["rss_growth_mb"] = current_rss_mb() - before
    print(json.dumps(result, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
