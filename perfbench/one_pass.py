"""Run one pass of a workload in this (fresh) interpreter; print one JSON line.

    python3 perfbench/one_pass.py --workload NAME --seed N --scratch DIR [--trace]

A pass runs every sweep of the workload through ``run_sweep_spec`` and
times the calls.  Each pass gets its own process, so graph caches, resolved
drivers and the peak RSS start cold every time, as for a user running
``repro sweep``.  With ``--trace`` the outside-in tracer is installed
before any cell runs and the pass also reports its span aggregates;
forked workers leave theirs in ``DIR``.

On an oracle or validator failure the line is ``{"error": ...}`` and the
exit code is 1.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, row_digest  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker daemon the shm plane started, if any."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def measure_pass(name: str, seed: int, scratch: str, trace: bool) -> dict:
    workload = WORKLOADS[name]
    for module in tracing.MODULES:
        importlib.import_module(module)
    specs = [spec.validate() for spec in workload.specs(seed, scratch)]
    stale = [spec.output for spec in specs if spec.output and os.path.exists(spec.output)]
    if stale:  # a store left by another pass would be resumed, not re-run
        raise FileExistsError(f"result stores already exist: {stale}")
    tracer = tracing.Tracer(dump_dir=scratch).install() if trace else None
    from repro.api import run_sweep_spec  # after install: the traced binding

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    rows = []
    for spec in specs:
        rows.extend(run_sweep_spec(spec))
    wall = time.perf_counter() - start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    failed = [row for row in rows if row.get("status") == "failed"]
    result = {
        "wall_s": wall,
        "digest": row_digest(rows),
        "cells": len(rows),
        "failed": len(failed),
        "failures": [
            {key: row[key] for key in ("scenario", "size", "seed", "params_digest", "error")}
            for row in failed
        ],
        "messages": sum(row.get("messages", 0) for row in rows),
        "lost_messages": sum(row.get("lost_messages", 0) for row in rows),
        "peak_rss_mb": (self_after.ru_maxrss + children_after.ru_maxrss) / 1024,
        "parent_cpu_s": _cpu(self_after) - _cpu(self_before),
        "children_cpu_s": _cpu(children_after) - _cpu(children_before),
        "workers": workload.workers,
    }
    if tracer is not None:
        tracer.uninstall()
        parent = tracer.snapshot()
        workers = []
        for path in sorted(glob.glob(os.path.join(scratch, "worker-*.json"))):
            with open(path) as fh:
                workers.append(json.load(fh))
        result["trace"] = {"parent": parent, "merged": tracing.merge([parent, *workers])}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    from repro.sim.experiments import SweepError

    try:
        result = measure_pass(args.workload, args.seed, args.scratch, args.trace)
    except SweepError as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
