"""The repository's benchmark: time to a verified result table, per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout.  Every pass runs in a fresh interpreter
(``one_pass.py``) and checks its output: the drivers verify every cell
against their sequential oracles, the rows of every pass must hash to
the same digest, and for the default seed the digest and the exact work
counters must equal ``reference.json``.

``--trace 0`` measures untraced passes for ``--seconds`` (at least
:data:`MIN_PASSES`) and reports the end-to-end metrics: the median pass
wall time, the median cold set-up time of :data:`SETUP_REPEATS` fresh
interpreters, and the median peak RSS.  ``--trace 1`` runs untraced
passes for half the time, then one traced pass, and reports the per-layer
metrics.  A readable report goes to stderr; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import EXACT_COUNTERS, WORKLOADS, check_layers  # noqa: E402

DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_REPEATS = 5
#: Every child process of a run must end within this many seconds of its
#: start, so the run ends within 180 s.
RUN_TIMEOUT_S = 170
#: Scratch space the benchmark owns inside the checkout (git-ignored).
SCRATCH = ROOT / ".perfbench_tmp"


def unit_of(metric: str) -> str:
    if metric.endswith("_us_per_run"):
        return "us"
    if metric.endswith("_ns_per_step"):
        return "ns"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric in ("api.parallel_eff", "trace.overhead"):
        return "ratio"
    return "count"


def _child(script: str, args: list[str], deadline: float) -> tuple[int, str]:
    """Run ``perfbench/<script>`` to completion; return (exit code, last stdout line).

    Raises ``subprocess.TimeoutExpired`` if it is still running at ``deadline``.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException:
        # Timeout or interrupt: take down the child and anything it forked.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def run_pass(
    name: str, seed: int, run_dir: str, index: int, trace: bool, deadline: float
) -> dict:
    scratch = tempfile.mkdtemp(prefix=f"pass-{index}-", dir=run_dir)
    args = ["--workload", name, "--seed", str(seed), "--scratch", scratch]
    try:
        code, line = _child("one_pass.py", args + (["--trace"] if trace else []), deadline)
    except subprocess.TimeoutExpired:
        shutil.rmtree(scratch, ignore_errors=True)
        return {"error": f"pass {index} did not finish within the run's time limit"}
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        result = {"error": f"pass exited {code} without a result"}
    if code != 0 and "error" not in result:
        result["error"] = f"pass exited {code}"
    shutil.rmtree(scratch, ignore_errors=True)
    return result


def setup_time(name: str, seed: int, deadline: float) -> float:
    code, line = _child("setup_probe.py", ["--workload", name, "--seed", str(seed)], deadline)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return float(line)


def measure(name: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    """Run the passes of one benchmark run; return the raw pass results."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [] if trace else [setup_time(name, seed, deadline) for _ in range(SETUP_REPEATS)]
    budget = seconds / 2 if trace else seconds
    min_passes = 1 if trace else MIN_PASSES
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        result = run_pass(name, seed, run_dir, len(passes), False, deadline)
        passes.append(result)
        if "error" in result:
            break
        now = time.monotonic()
        if len(passes) >= min_passes and now - start + (now - began) > budget:
            break
    traced = None
    if trace and "error" not in passes[-1]:
        traced = run_pass(name, seed, run_dir, len(passes), True, deadline)
    return {"setups": setups, "passes": passes, "traced": traced}


def verify(name: str, seed: int, raw: dict, reference: dict) -> list[str]:
    """Every correctness problem of one run (empty when the run is correct)."""
    results = raw["passes"] + ([raw["traced"]] if raw["traced"] else [])
    problems = [r["error"] for r in results if "error" in r]
    if problems:
        return problems
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        problems.append(f"row digests differ across passes: {sorted(digests)}")
    expected = reference.get(name)
    if seed == DEFAULT_SEED and expected is not None:
        if digests != {expected["digest"]}:
            problems.append(
                f"row digest {sorted(digests)} != reference {expected['digest']}"
            )
    return problems


def check_counters(name: str, seed: int, metrics: dict, reference: dict) -> tuple[list, list]:
    """(problems, notes) from comparing a traced run's counters with the reference.

    Only the default seed has a reference.  A mismatch in one of
    :data:`workloads.EXACT_COUNTERS` is a problem; a different split of
    the same work between layers is a note.
    """
    if seed != DEFAULT_SEED:
        return [], []
    problems, notes = [], []
    for key, value in reference.get(name, {}).get("counters", {}).items():
        if metrics[key] == value:
            continue
        if key in EXACT_COUNTERS:
            problems.append(f"{key} = {metrics[key]} != reference {value}")
        else:
            notes.append(f"{key} = {metrics[key]} (reference {value}; split, not gated)")
    return problems, notes


def layer_report(raw: dict) -> dict:
    from tracer import layer_metrics

    walls = [p["wall_s"] for p in raw["passes"]]
    last = raw["passes"][-1]
    traced = raw["traced"]
    workers = last["workers"]
    worker_cpu = last["children_cpu_s"] if workers > 1 else last["parent_cpu_s"]
    return layer_metrics(
        traced["trace"]["merged"],
        traced["trace"]["parent"],
        traced_wall_s=traced["wall_s"],
        untraced_wall_s=statistics.median(walls),
        rows_messages=traced["messages"],
        rows_lost=traced["lost_messages"],
        parent_cpu_s=last["parent_cpu_s"],
        worker_cpu_s=worker_cpu,
        workers=workers,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    SCRATCH.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it

    problems = verify(args.workload, args.seed, raw, reference)
    results = raw["passes"] + ([raw["traced"]] if raw["traced"] else [])
    attempted = sum(r.get("cells", 0) for r in results) or 1
    failed = sum(r.get("failed", 0) for r in results)
    notes: list[str] = []
    if problems:
        metrics = {}
    elif args.trace:
        metrics = layer_report(raw)
        problems, notes = check_counters(args.workload, args.seed, metrics, reference)
        notes += [f"layer check: {p}" for p in check_layers(args.workload, metrics)]
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in raw["passes"]),
            "setup_s": statistics.median(raw["setups"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in raw["passes"]),
        }
    notes += [f"failed cell: {cell}" for r in results for cell in r.get("failures", [])]

    walls = sorted(p["wall_s"] for p in raw["passes"] if "wall_s" in p)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(walls)} untraced pass(es), wall_s min {walls[0] if walls else 0:.4g} "
          f"max {walls[-1] if walls else 0:.4g} s", file=sys.stderr)
    for key, value in metrics.items():
        print(f"  {key:32s} {value:>16.6g} {unit_of(key)}", file=sys.stderr)
    print(f"  {'failed_frac':32s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} cells)", file=sys.stderr)
    for line in notes:
        print(f"  note: {line}", file=sys.stderr)
    for line in problems:
        print(f"  FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
