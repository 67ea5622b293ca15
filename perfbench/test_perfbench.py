"""Tests of the benchmark itself: the tracer, the workloads and the contract.

    python3 -m pytest perfbench -q

The traced-pass tests run one untraced and one traced pass of every
workload at the default seed (about a minute on two cores).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import CATALOG, EXACT_COUNTERS, WORKLOADS, check_layers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


# ----------------------------------------------------------------------
# span accounting
# ----------------------------------------------------------------------
def test_self_times_tile_nested_spans_and_groups_count_outermost():
    tracer = tracing.Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.wrap(leaf, "leaf", "leaf")

    def recurse(depth):
        traced_leaf(2000)
        return recurse_traced(depth - 1) if depth else 0

    recurse_traced = tracer.wrap(recurse, "node", "node")
    recurse_traced(3)
    spans, groups = tracer.spans, tracer.groups
    assert spans["node"][0] == 4 and spans["leaf"][0] == 4
    assert groups["node"][0] == 1  # three nested calls are inside the outermost
    # Self times tile the outermost span exactly.
    assert spans["node"][1] + spans["leaf"][1] == pytest.approx(groups["node"][1], rel=1e-9)
    assert spans["node"][1] > 0 and spans["leaf"][1] > 0
    assert not tracer._stack


def test_failing_call_still_closes_its_span():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom", "boom")()
    assert tracer.spans["boom"][0] == 1 and not tracer._stack


# ----------------------------------------------------------------------
# installation pitfalls
# ----------------------------------------------------------------------
def test_install_patches_every_binding_and_uninstall_restores():
    for module in tracing.MODULES:
        __import__(module)
    import repro.api
    import repro.api.run
    import repro.core
    from repro.sim.kernels import BatchKernel
    from repro.sim.runner import NodeAlgorithm

    apsp_module = sys.modules["repro.core.apsp"]
    assert callable(repro.core.apsp) and repro.core.apsp is not apsp_module
    steps = [c for c in tracing._subclasses(NodeAlgorithm) if "on_round" in c.__dict__]
    kernels = [c for c in tracing._subclasses(BatchKernel) if "on_round_batch" in c.__dict__]
    assert len(steps) >= 9 and len(kernels) >= 5
    before = {
        "schedule": apsp_module.schedule_with_random_delays,
        "run_sweep_spec": repro.api.run.run_sweep_spec,
        "steps": [c.__dict__["on_round"] for c in steps],
        "kernels": [c.__dict__["on_round_batch"] for c in kernels],
    }
    tracer = tracing.Tracer().install()
    try:
        wrapped = apsp_module.schedule_with_random_delays
        assert wrapped is not before["schedule"]
        assert wrapped.__wrapped__ is before["schedule"]
        # The package re-export is the same wrapper, not a stale original.
        assert repro.core.schedule_with_random_delays is wrapped
        assert repro.api.run_sweep_spec is repro.api.run.run_sweep_spec
        assert repro.api.run_sweep_spec.__wrapped__ is before["run_sweep_spec"]
        for cls, original in zip(steps, before["steps"]):
            assert cls.__dict__["on_round"].__wrapped__ is original, cls
        for cls, original in zip(kernels, before["kernels"]):
            assert cls.__dict__["on_round_batch"].__wrapped__ is original, cls
    finally:
        tracer.uninstall()
    assert apsp_module.schedule_with_random_delays is before["schedule"]
    assert repro.core.schedule_with_random_delays is before["schedule"]
    assert repro.api.run_sweep_spec is before["run_sweep_spec"]
    assert [c.__dict__["on_round"] for c in steps] == before["steps"]
    assert [c.__dict__["on_round_batch"] for c in kernels] == before["kernels"]


def test_install_refuses_a_process_that_already_resolved_a_driver():
    proc = _python(
        "import tracer\n"
        "import repro.sim.experiments\n"
        "from repro.api import get_algorithm_spec\n"
        "get_algorithm_spec('bfs').resolve()\n"
        "try:\n"
        "    tracer.Tracer().install()\n"
        "except RuntimeError as exc:\n"
        "    print('refused', exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused") and "'bfs'" in proc.stdout


# ----------------------------------------------------------------------
# workloads and the declared contract
# ----------------------------------------------------------------------
def test_workloads_name_registered_scenarios_explicitly():
    from repro.sim import experiments

    registered = set(experiments.list_scenarios())
    assert set(CATALOG) <= registered and "apsp/er" not in CATALOG
    for workload in WORKLOADS.values():
        for spec in workload.specs(7, store_dir="unused"):
            assert spec.scenarios and set(spec.scenarios) <= registered
            spec.validate()
    first, second = WORKLOADS["apsp-congest"].specs(1), WORKLOADS["apsp-congest"].specs(2)
    assert set(first[0].seeds).isdisjoint(second[0].seeds)


def test_benchmark_json_matches_what_the_benchmark_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric
    empty = {"spans": {}, "groups": {}, "counts": {}}
    names = tracing.layer_metrics(
        empty, empty, traced_wall_s=1.0, untraced_wall_s=1.0, rows_messages=0,
        rows_lost=0, parent_cpu_s=0.0, worker_cpu_s=0.0, workers=1,
    )
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(names)
    assert set(tracing.SELF_TIME_METRICS.values()) <= set(names)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apsp-congest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ----------------------------------------------------------------------
# traced passes of the real workloads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_runs():
    run.SCRATCH.mkdir(exist_ok=True)
    out = {}
    for name in WORKLOADS:
        run_dir = tempfile.mkdtemp(prefix=f"test-{name}-", dir=run.SCRATCH)
        try:
            out[name] = run.measure(name, run.DEFAULT_SEED, 0, True, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_matches_reference_and_tiles_its_wall(traced_runs, name):
    raw = traced_runs[name]
    assert run.verify(name, run.DEFAULT_SEED, raw, REFERENCE) == []
    metrics = run.layer_report(raw)
    # Every recorded count repeats exactly, split counters included.
    assert run.check_counters(name, run.DEFAULT_SEED, metrics, REFERENCE) == ([], [])
    assert set(EXACT_COUNTERS) <= set(REFERENCE[name]["counters"])

    parent = raw["traced"]["trace"]["parent"]
    assert set(parent["spans"]) <= set(tracing.SELF_TIME_METRICS)
    wall = raw["traced"]["wall_s"]
    unattributed = metrics["trace.unattributed_s"]
    assert 0 <= unattributed < 0.01 * wall
    assert tracing.self_total(parent) + unattributed == pytest.approx(wall, rel=1e-9)
    if raw["passes"][-1]["workers"] == 1:
        # One process: the reported self-time metrics add up to the wall.
        reported = sum(metrics[m] for m in tracing.SELF_TIME_METRICS.values())
        assert reported + unattributed == pytest.approx(wall, rel=1e-9)
    assert metrics["trace.overhead"] > 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_separation_holds(traced_runs, name):
    metrics = run.layer_report(traced_runs[name])
    assert check_layers(name, metrics) == []


def test_kernels_engage_only_where_expected(traced_runs):
    steps = {name: run.layer_report(raw)["sim.kernels.steps"] for name, raw in traced_runs.items()}
    assert steps["apsp-congest"] == 0
    assert steps["catalog-sweep"] > 0 and steps["low-energy-sssp"] > 0
