"""Outside-in tracer: times calls into each layer's public functions.

The tracer never edits ``src/``.  :meth:`Tracer.install` replaces the
public functions and methods listed in :data:`FUNCTIONS` and
:data:`METHODS` (plus ``on_round``/``on_round_batch`` on every algorithm
and kernel subclass) with wrappers that record a span per call, and
:meth:`Tracer.uninstall` puts the originals back.

A span has a name, a start, an end and a parent (the span open when it
started).  Spans are folded into per-name aggregates the moment they close,
because the APSP workload makes over a million metering calls and keeping
every span would cost hundreds of megabytes:

* ``calls`` and ``self_s`` per span name, where a span's self time is its
  duration minus the time its child spans cover;
* ``calls`` and ``incl_s`` per *group* of names, counting only spans with
  no ancestor in the same group, so recursive builders and ``super()``
  chains are not counted twice;
* free counters set by result hooks (kernel node-steps, declined kernel
  rounds, published shm segments, rows written to a file store).

Sweep workers are forked after installation, so they inherit the
wrappers.  A fork handler empties the child's aggregates, and the child
writes them to ``<dump_dir>/worker-<pid>.json`` after every cell group it
runs (before the group's result reaches the supervisor), so every worker's
share is on disk when the sweep returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

perf_counter = time.perf_counter

#: Modules imported before patching, so every binding exists to be found.
MODULES = (
    "repro",
    "repro.api",
    "repro.api.drivers",
    "repro.api.resultset",
    "repro.api.run",
    "repro.baselines",
    "repro.core",
    "repro.energy",
    "repro.energy.covers",
    "repro.energy.decomposition",
    "repro.energy.validation",
    "repro.graphs",
    "repro.sim",
    "repro.sim.events",
    "repro.sim.experiments",
    "repro.sim.faults",
    "repro.sim.kernels",
    "repro.sim.metrics",
    "repro.sim.runner",
    "repro.sim.shm",
)

#: Module-level functions: ``(defining module, attribute, span, group)``.
#: Every binding of the function object in any loaded ``repro`` module is
#: patched, including package attributes such as ``repro.core.apsp`` that
#: hold a function of the same name as a submodule.
FUNCTIONS = (
    ("repro.api.run", "run_sweep_spec", "api.run", "api.run"),
    ("repro.energy.decomposition", "build_decomposition", "energy.decomposition", "energy.preprocess"),
    ("repro.energy.covers", "build_sparse_cover", "energy.cover", "energy.preprocess"),
    ("repro.energy.covers", "build_layered_cover", "energy.cover", "energy.preprocess"),
    ("repro.energy.validation", "validate_decomposition", "api.oracle", "api.oracle"),
    ("repro.energy.validation", "validate_sparse_cover", "api.oracle", "api.oracle"),
    ("repro.energy.validation", "validate_layered_cover", "api.oracle", "api.oracle"),
    ("repro.core.apsp", "schedule_with_random_delays", "core.apsp_schedule", "core.apsp_schedule"),
    ("repro.sim.shm", "publish_graph", "sim.shm_publish", "sim.shm_publish"),
)

#: Methods: ``(module, class, attribute, span, group)``.  Class-level
#: patches reach every instance and every subclass that does not override.
METHODS = (
    ("repro.sim.experiments", "Scenario", "build_graph", "graphs.build", "graphs.build"),
    ("repro.graphs.indexed", "IndexedGraph", "of", "graphs.index", "graphs.index"),
    ("repro.graphs.weighted_graph", "Graph", "dijkstra", "api.oracle", "api.oracle"),
    ("repro.graphs.weighted_graph", "Graph", "hop_distances", "api.oracle", "api.oracle"),
    ("repro.graphs.weighted_graph", "Graph", "mst_weight", "api.oracle", "api.oracle"),
    ("repro.sim.runner", "Runner", "__init__", "sim.run_init", "sim.run_init"),
    ("repro.sim.events", "EventRunner", "__init__", "sim.run_init", "sim.run_init"),
    ("repro.sim.runner", "Runner", "run", "sim.runner", "sim.runner"),
    ("repro.sim.events", "EventRunner", "run", "sim.events", "sim.events"),
    ("repro.sim.runner", "Context", "send", "sim.send", "sim.send"),
    ("repro.sim.runner", "Context", "broadcast", "sim.send", "sim.send"),
    ("repro.sim.faults", "FaultModel", "drop_message", "sim.faults", "sim.faults"),
    ("repro.sim.faults", "FaultModel", "duplicate_message", "sim.faults", "sim.faults"),
    ("repro.sim.faults", "FaultModel", "crash_plan", "sim.faults", "sim.faults"),
    ("repro.api.resultset", "ResultSet", "append", "api.resultset", "api.resultset"),
    ("repro.api.resultset", "ResultSet", "close", "api.resultset", "api.resultset"),
)

#: ``Metrics`` methods wrapped on the base class and on every subclass
#: that defines them (the APSP tracing subclass overrides ``record_send``).
METRICS_METHODS = ("merge", "summary", "to_dict")

#: Top-level package of an algorithm class -> the layer its node steps count in.
STEP_LAYERS = ("energy", "core", "baselines")


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _step_layer(cls) -> str:
    parts = cls.__module__.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in STEP_LAYERS:
        return parts[1]
    raise RuntimeError(
        f"{cls.__module__}.{cls.__qualname__}: node algorithm outside the "
        f"{STEP_LAYERS} packages; give its steps a layer before tracing"
    )


class Tracer:
    """Span aggregates for one process, plus the patches that feed them."""

    def __init__(self, dump_dir: str | None = None) -> None:
        self.dump_dir = dump_dir
        self.owner = os.getpid()
        self.spans: dict[str, list] = {}  # name -> [calls, self_s]
        self.groups: dict[str, list] = {}  # group -> [calls, incl_s, open depth]
        self.counts: dict[str, list] = {}  # counter -> [value]
        self._stack: list[list] = []  # open spans: [child time covered]
        self._undo: list[tuple] = []  # (owner, attribute, original value)
        self._fork_hook = False

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def counter(self, name: str) -> list:
        return self.counts.setdefault(name, [0])

    def wrap(self, fn, span: str, group: str, after=None):
        """``fn`` wrapped to record one ``span`` per call.

        ``after(args, result)`` runs on normal return, for counters that
        depend on the call's arguments or result.
        """
        stack = self._stack
        stats = self.spans.setdefault(span, [0, 0.0])
        grp = self.groups.setdefault(group, [0, 0.0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            grp[2] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - frame[0]
                grp[2] -= 1
                if not grp[2]:
                    grp[0] += 1
                    grp[1] += duration
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch_function(self, module: str, attribute: str, span: str, group: str, after=None) -> None:
        original = getattr(sys.modules[module], attribute)
        wrapped = self.wrap(original, span, group, after)
        found = False
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
                    found = True
        if not found:
            raise RuntimeError(f"no binding of {module}.{attribute} to patch")

    def _patch_method(self, cls, attribute: str, span: str, group: str, after=None) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, span, group, after))
        else:
            wrapped = self.wrap(original, span, group, after)
        self._set(cls, attribute, wrapped)

    def install(self) -> "Tracer":
        """Patch every traced function and method; call before any cell runs.

        ``AlgorithmSpec.resolve`` caches each driver the first time a cell
        runs, so a tracer installed later would miss every cached driver.
        Installing in a process that has already resolved one is refused.
        """
        from repro.api import algorithms

        if algorithms._RESOLVED:
            raise RuntimeError(
                "install the tracer in a fresh process: drivers already "
                f"resolved and cached: {sorted(algorithms._RESOLVED)}"
            )
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module in MODULES:
            importlib.import_module(module)
        from repro.api import drivers
        from repro.sim import experiments
        from repro.sim.kernels import BatchKernel
        from repro.sim.metrics import Metrics
        from repro.sim.runner import NodeAlgorithm

        shm_segments = self.counter("sim.shm_segments")
        store_writes = self.counter("api.store_writes")
        kernel_steps = self.counter("sim.kernels.steps")
        kernel_declined = self.counter("sim.kernels.declined")

        def published(args, handle):
            if handle is not None:
                shm_segments[0] += 1

        def appended(args, result):
            if args[0].path is not None:
                store_writes[0] += 1

        def stepped(args, codes):
            if codes is None:
                kernel_declined[0] += 1
            else:
                kernel_steps[0] += len(args[2])  # (self, r, awake, ...)

        hooks = {"publish_graph": published, "append": appended}
        for module, attribute, span, group in FUNCTIONS:
            self._patch_function(module, attribute, span, group, hooks.get(attribute))
        for name in drivers.__all__:
            if name.startswith("drive_"):
                self._patch_function("repro.api.drivers", name, "api.driver", "api.driver")
        for module, cls_name, attribute, span, group in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._patch_method(cls, attribute, span, group, hooks.get(attribute))
        for cls in [Metrics, *_subclasses(Metrics)]:
            for attribute in list(cls.__dict__):
                if attribute.startswith("record_") or attribute in METRICS_METHODS:
                    self._patch_method(cls, attribute, "sim.metrics", "sim.metrics")
        for cls in _subclasses(NodeAlgorithm):
            if "on_round" in cls.__dict__:
                layer = _step_layer(cls)
                self._patch_method(cls, "on_round", f"{layer}.step", f"{layer}.step")
        for cls in _subclasses(BatchKernel):
            if "on_round_batch" in cls.__dict__:
                self._patch_method(cls, "on_round_batch", "sim.kernels", "sim.kernels", stepped)

        # Not a span: forked workers write their aggregates after each group.
        run_cell_group = experiments._run_cell_group

        @functools.wraps(run_cell_group)
        def run_group_and_dump(*args, **kwargs):
            result = run_cell_group(*args, **kwargs)
            if os.getpid() != self.owner and self.dump_dir is not None:
                self.dump(os.path.join(self.dump_dir, f"worker-{os.getpid()}.json"))
            return result

        self._set(experiments, "_run_cell_group", run_group_and_dump)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._reset_in_child)
            self._fork_hook = True
        return self

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _reset_in_child(self) -> None:
        # The fork happened inside the supervisor's open spans; the worker
        # starts with no open span and reports only its own work.
        if not self._undo:
            return
        self._stack.clear()
        for stats in self.spans.values():
            stats[:] = [0, 0.0]
        for grp in self.groups.values():
            grp[:] = [0, 0.0, 0]
        for value in self.counts.values():
            value[0] = 0

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "groups": {k: v[:2] for k, v in self.groups.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
        }

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def merge(snapshots: list[dict]) -> dict:
    """Sum aggregates across processes (the supervisor and its workers)."""
    total = {"spans": {}, "groups": {}, "counts": {}}
    for snap in snapshots:
        for kind in ("spans", "groups"):
            for key, values in snap[kind].items():
                acc = total[kind].setdefault(key, [0, 0.0])
                acc[0] += values[0]
                acc[1] += values[1]
        for key, value in snap["counts"].items():
            total["counts"][key] = total["counts"].get(key, 0) + value
    return total


def self_total(snapshot: dict) -> float:
    """Sum of self times over every span of one snapshot."""
    return sum(stats[1] for stats in snapshot["spans"].values())


def layer_metrics(
    traced: dict,
    parent: dict,
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    rows_messages: int,
    rows_lost: int,
    parent_cpu_s: float,
    worker_cpu_s: float,
    workers: int,
) -> dict:
    """The per-layer metrics of one traced pass.

    ``traced`` merges every process of the pass; ``parent`` is the
    benchmark process alone, whose spans tile the traced wall time (the
    remainder is ``trace.unattributed_s``).  Times are self times unless
    the name says ``preprocess`` (inclusive, outermost builder call).
    CPU figures come from the untraced pass.
    """
    spans, groups, counts = traced["spans"], traced["groups"], traced["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0])[1]

    scalar_steps = sum(calls(f"{layer}.step") for layer in STEP_LAYERS)
    node_steps = scalar_steps + counts.get("sim.kernels.steps", 0)
    runs = calls("sim.run_init")
    engine_self = self_s("sim.runner") + self_s("sim.events")
    return {
        "graphs.instances": calls("graphs.build"),
        "graphs.build_s": self_s("graphs.build"),
        "graphs.index_calls": calls("graphs.index"),
        "graphs.index_s": self_s("graphs.index"),
        "energy.preprocess_s": groups.get("energy.preprocess", [0, 0.0])[1],
        "energy.decomposition_self_s": self_s("energy.decomposition"),
        "energy.cover_self_s": self_s("energy.cover"),
        "energy.steps": calls("energy.step"),
        "energy.step_s": self_s("energy.step"),
        "core.steps": calls("core.step"),
        "core.step_s": self_s("core.step"),
        "core.apsp_schedule_s": self_s("core.apsp_schedule"),
        "baselines.steps": calls("baselines.step"),
        "baselines.step_s": self_s("baselines.step"),
        "sim.runs": runs,
        "sim.run_init_s": self_s("sim.run_init"),
        "sim.init_us_per_run": self_s("sim.run_init") / runs * 1e6 if runs else 0.0,
        "sim.runner_self_s": self_s("sim.runner"),
        "sim.events_self_s": self_s("sim.events"),
        "sim.node_steps": node_steps,
        "sim.runner_ns_per_step": engine_self / node_steps * 1e9 if node_steps else 0.0,
        "sim.kernels.steps": counts.get("sim.kernels.steps", 0),
        "sim.kernels.declined": counts.get("sim.kernels.declined", 0),
        "sim.kernels.s": self_s("sim.kernels"),
        "sim.send_calls": calls("sim.send"),
        "sim.send_s": self_s("sim.send"),
        "sim.metrics_calls": groups.get("sim.metrics", [0, 0.0])[0],
        "sim.metrics_s": self_s("sim.metrics"),
        "sim.faults_calls": calls("sim.faults"),
        "sim.faults_s": self_s("sim.faults"),
        "sim.shm_segments": counts.get("sim.shm_segments", 0),
        "sim.shm_publish_s": self_s("sim.shm_publish"),
        "sim.messages": rows_messages,
        "sim.lost_messages": rows_lost,
        "api.run_self_s": self_s("api.run"),
        "api.resultset_s": self_s("api.resultset"),
        "api.store_writes": counts.get("api.store_writes", 0),
        "api.oracle_s": self_s("api.oracle"),
        "api.driver_self_s": self_s("api.driver"),
        "api.parent_cpu_s": parent_cpu_s,
        "api.worker_cpu_s": worker_cpu_s,
        "api.parallel_eff": worker_cpu_s / (workers * untraced_wall_s),
        "trace.overhead": traced_wall_s / untraced_wall_s,
        "trace.unattributed_s": traced_wall_s - self_total(parent),
    }


#: Span names whose self times make up the ``*_s`` self-time metrics above;
#: together they tile every traced span (tested).
SELF_TIME_METRICS = {
    "graphs.build": "graphs.build_s",
    "graphs.index": "graphs.index_s",
    "energy.decomposition": "energy.decomposition_self_s",
    "energy.cover": "energy.cover_self_s",
    "energy.step": "energy.step_s",
    "core.step": "core.step_s",
    "core.apsp_schedule": "core.apsp_schedule_s",
    "baselines.step": "baselines.step_s",
    "sim.run_init": "sim.run_init_s",
    "sim.runner": "sim.runner_self_s",
    "sim.events": "sim.events_self_s",
    "sim.kernels": "sim.kernels.s",
    "sim.send": "sim.send_s",
    "sim.metrics": "sim.metrics_s",
    "sim.faults": "sim.faults_s",
    "sim.shm_publish": "sim.shm_publish_s",
    "api.run": "api.run_self_s",
    "api.resultset": "api.resultset_s",
    "api.oracle": "api.oracle_s",
    "api.driver": "api.driver_self_s",
}
