"""The benchmark's pinned workloads and the checks each one must pass.

A workload is a fixed list of sweeps, each a ``repro.api.SweepSpec`` run
through ``repro.api.run_sweep_spec``.  The workload seed picks the sweep
seeds and nothing else, so the same seed gives the same cells.  Scenarios
are always named: a newly registered scenario cannot change a workload.

Each workload loads different layers (see README.md), and
:data:`LAYER_CHECKS` states which per-layer metrics must be non-zero on
it, which must be exactly zero, and which ratios must hold.  This module
imports nothing from ``repro`` at import time, so the set-up probe times
the whole import.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

#: Every registered scenario except ``apsp/er``, which has its own workload.
CATALOG = (
    "bellman-ford/er",
    "bellman-ford/er@budget",
    "bellman-ford/er@crashrestart",
    "bellman-ford/er@delay4",
    "bellman-ford/er@drop5",
    "bellman-ford/grid@lossy",
    "bellman-ford/grid@stretch3",
    "bfs/grid",
    "bfs/grid@crash2",
    "boruvka/er",
    "cssp/er",
    "decomposition/er",
    "dijkstra/er",
    "energy-bfs-scratch/tree",
    "energy-bfs/path",
    "energy-cssp/er",
    "labeled-bfs/grid",
    "layered-cover/tree",
    "sparse-cover/grid",
    "sssp/er",
    "sssp/grid",
    "sssp/path",
    "tree-aggregation/tree",
)


@dataclass(frozen=True)
class Sweep:
    """One sweep of a workload; ``seeds_per_pass`` sweep seeds per workload seed."""

    scenarios: tuple
    sizes: tuple
    seeds_per_pass: int
    workers: int = 1

    def seeds(self, seed: int) -> tuple:
        first = seed * self.seeds_per_pass
        return tuple(range(first, first + self.seeds_per_pass))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: tuple
    #: Write rows to a JSONL store in the pass's scratch directory.
    file_store: bool = False

    @property
    def workers(self) -> int:
        return max(sweep.workers for sweep in self.sweeps)

    def specs(self, seed: int, store_dir: str | None = None) -> list:
        """The pass's sweep specs for workload seed ``seed``."""
        from repro.api import SweepSpec

        specs = []
        for index, sweep in enumerate(self.sweeps):
            output = None
            if self.file_store:
                if store_dir is None:
                    raise ValueError(f"{self.name}: a file store needs a directory")
                output = f"{store_dir}/sweep-{index}.jsonl"
            specs.append(
                SweepSpec(
                    scenarios=sweep.scenarios,
                    sizes=sweep.sizes,
                    seeds=sweep.seeds(seed),
                    workers=sweep.workers,
                    output=output,
                )
            )
        return specs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "low-energy-sssp",
            "the paper's sleeping-model SSSP and BFS (Thm 3.15, 3.8): energy node "
            "steps, lossy sleeping delivery, cover preprocessing",
            (
                Sweep(("energy-cssp/er",), (48,), seeds_per_pass=6),
                Sweep(("energy-bfs/path",), (256,), seeds_per_pass=2),
            ),
        ),
        Workload(
            "apsp-congest",
            "APSP as n concurrent SSSPs under random delays: thousands of short "
            "CONGEST runs metered per event, no kernels",
            (Sweep(("apsp/er",), (32,), seeds_per_pass=4),),
        ),
        Workload(
            "catalog-sweep",
            "every other scenario as users sweep it: forked workers, shm graphs, "
            "JSONL store, fault plane, event engine, batch kernels",
            (Sweep(CATALOG, (24, 48), seeds_per_pass=3, workers=2),),
            file_store=True,
        ),
    )
}

#: Per-workload layer separation: metrics that must be > 0, metrics that
#: must be exactly 0, and ``(numerator, denominator, op, bound)`` ratios.
LAYER_CHECKS = {
    "low-energy-sssp": {
        "loads": (
            "energy.preprocess_s", "energy.decomposition_self_s", "energy.steps",
            "sim.kernels.steps", "sim.runner_self_s",
        ),
        "bypasses": (
            "sim.faults_calls", "sim.events_self_s", "sim.shm_segments",
            "api.store_writes", "core.apsp_schedule_s",
        ),
        "ratios": (("sim.metrics_calls", "sim.messages", "<", 0.1),),
    },
    "apsp-congest": {
        "loads": (
            "core.steps", "core.apsp_schedule_s", "graphs.index_calls",
            "sim.runner_self_s",
        ),
        "bypasses": (
            "sim.kernels.steps", "energy.preprocess_s", "energy.steps",
            "sim.faults_calls", "sim.events_self_s", "sim.shm_segments",
            "api.store_writes",
        ),
        "ratios": (("sim.metrics_calls", "sim.messages", ">=", 1.0),),
    },
    "catalog-sweep": {
        "loads": (
            "graphs.instances", "energy.preprocess_s", "baselines.steps",
            "sim.kernels.steps", "sim.events_self_s", "sim.faults_calls",
            "sim.shm_segments", "api.store_writes", "sim.runner_self_s",
        ),
        "bypasses": ("core.apsp_schedule_s",),
        "ratios": (),
    },
}

#: Counters that measure the simulated work itself, so they must repeat
#: exactly and match the reference.  How the work is split between layers
#: (scalar vs kernel steps, metering calls) is reported but not gated, so
#: a change that moves work between layers is not an incorrect result.
EXACT_COUNTERS = ("sim.runs", "sim.node_steps", "sim.messages", "sim.lost_messages")


def check_layers(name: str, metrics: dict) -> list[str]:
    """Violations of the workload's layer separation (empty when it holds)."""
    spec = LAYER_CHECKS[name]
    problems = [f"{key} = 0, expected > 0" for key in spec["loads"] if not metrics[key] > 0]
    problems += [
        f"{key} = {metrics[key]}, expected 0" for key in spec["bypasses"] if metrics[key] != 0
    ]
    for num, den, op, bound in spec["ratios"]:
        ratio = metrics[num] / metrics[den] if metrics[den] else float("inf")
        if not (ratio >= bound if op == ">=" else ratio < bound):
            problems.append(f"{num}/{den} = {ratio:.4g}, expected {op} {bound}")
    return problems


def row_digest(rows: list) -> str:
    """SHA-256 over the returned rows, in the order the sweep returns them."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
