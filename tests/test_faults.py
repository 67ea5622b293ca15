"""The seeded fault-injection plane: grammar, determinism, both engines.

Covers the fault axis end to end: the ``FaultModel`` parse/canonical
grammar, process-stable draw keying, crash-restart semantics in the
synchronous and event engines (byte-identical under unit latency), the
``fault_model="none"`` differential guarantee (rows, metrics payloads and
resume digests unchanged from the pre-fault engines), worker-count and
shard stability of faulted sweeps, the sweep-level tolerance gate with
its ``force_faults`` override, the negative control (drop-injected BFS
demonstrably breaks), and the ``stop_reason``/``virtual_time`` columns of
duration-bounded scenarios.
"""

import json
import random

import pytest

from repro.api import (
    ResultSet,
    SpecError,
    SweepSpec,
    get_algorithm_spec,
    merge_shards,
    run_sweep_spec,
)
from repro.graphs import INFINITY, generators
from repro.sim import (
    FaultModel,
    Metrics,
    Mode,
    NodeAlgorithm,
    TracingMetrics,
    canonical_fault,
    make_runner,
    parse_fault_model,
    simulation_engine,
)
from repro.sim.experiments import (
    Scenario,
    SweepError,
    _run_cell,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    scenario_digest,
)
from repro.__main__ import main

#: The registered scenarios that carry their own non-none fault plane.
FAULT_SCENARIOS = (
    "bellman-ford/er@drop5",
    "bellman-ford/grid@lossy",
    "bellman-ford/er@crashrestart",
    "bfs/grid@crash2",
)


# ----------------------------------------------------------------------
# grammar: parse / canonical round-trips and rejections
# ----------------------------------------------------------------------
def test_none_and_zero_rates_parse_to_no_plane():
    assert parse_fault_model(None) is None
    assert parse_fault_model("none") is None
    assert parse_fault_model("drop:0") is None
    assert parse_fault_model("drop:0+dup:0") is None
    assert canonical_fault("none") == "none"
    assert canonical_fault("dup:0.0") == "none"


def test_canonical_orders_terms_and_normalizes_numbers():
    assert canonical_fault("dup:0.010+drop:0.050") == "drop:0.05+dup:0.01"
    assert canonical_fault("restart:6+crash:2@3") == "crash:2@3+restart:6"
    assert canonical_fault("crash:1@0") == "crash:1@0"
    # Canonical strings are fixed points of the grammar.
    for spec in ("drop:0.1", "drop:0.05+dup:0.01", "crash:2@3+restart:6",
                 "drop:0.1+dup:0.05+crash:1@2+restart:4"):
        assert canonical_fault(canonical_fault(spec)) == canonical_fault(spec)


def test_model_instance_passes_through_with_its_own_seed():
    plane = FaultModel(drop=0.25, seed=9)
    assert parse_fault_model(plane, seed=0) is plane
    assert plane.name == "drop:0.25"
    assert plane.kinds == frozenset({"drop"})


def test_kinds_reflect_active_hazards():
    assert parse_fault_model("drop:0.1+dup:0.2").kinds == frozenset({"drop", "dup"})
    assert parse_fault_model("crash:1@5").kinds == frozenset({"crash"})


@pytest.mark.parametrize("bad", [
    "drop:1.0", "dup:-0.1", "drop:1.5", "drop", "drop:", "drop:x",
    "restart:3", "crash:0@2", "crash:2", "crash:2@-1", "crash:2@3+restart:0",
    "drop:0.1+drop:0.2", "gamma:0.5", "", "none+drop:0.1",
])
def test_malformed_specs_raise_value_error(bad):
    with pytest.raises(ValueError):
        parse_fault_model(bad)


def test_parse_errors_pinpoint_the_offending_term():
    # A composed spec must name which term broke, its 1-based position,
    # and the text that failed — not make the user diff the spec by eye.
    with pytest.raises(ValueError, match=r"term 2 of 2 \('crash:2@x'\)") as exc:
        parse_fault_model("drop:0.1+crash:2@x")
    assert "expected an integer for the crash time (after '@'), got 'x'" in str(exc.value)

    with pytest.raises(ValueError, match=r"term 3 of 3 \('restart:0'\)"):
        parse_fault_model("drop:0.1+crash:2@5+restart:0")

    with pytest.raises(ValueError, match=r"repeats 'drop' \(already given at term 1\)"):
        parse_fault_model("drop:0.1+drop:0.2")

    # Single-term specs name the term without position noise.
    with pytest.raises(
        ValueError, match=r"term 'drop:x'.*expected a number for the drop probability, got 'x'"
    ):
        parse_fault_model("drop:x")

    # Range errors from probability checks carry the term context too.
    with pytest.raises(ValueError, match=r"term 2 of 2 \('dup:1.5'\).*\[0, 1\)"):
        parse_fault_model("drop:0.1+dup:1.5")


# ----------------------------------------------------------------------
# determinism: draws and crash plans are pure functions of their keys
# ----------------------------------------------------------------------
def test_draws_are_deterministic_across_instances_and_seed_sensitive():
    a = parse_fault_model("drop:0.3+dup:0.2", seed=5)
    b = parse_fault_model("drop:0.3+dup:0.2", seed=5)
    other = parse_fault_model("drop:0.3+dup:0.2", seed=6)
    keys = [(s, d, t, i) for s in range(4) for d in range(4) for t in range(3)
            for i in range(2)]
    drops_a = [a.drop_message(*k) for k in keys]
    assert drops_a == [b.drop_message(*k) for k in keys]
    assert [a.duplicate_message(*k) for k in keys] == \
        [b.duplicate_message(*k) for k in keys]
    assert drops_a != [other.drop_message(*k) for k in keys]
    assert any(drops_a) and not all(drops_a)


def test_composing_dup_does_not_perturb_drop_draws():
    # Draws key off the individual rate, not the whole model name.
    bare = parse_fault_model("drop:0.3", seed=5)
    composed = parse_fault_model("drop:0.3+dup:0.2", seed=5)
    keys = [(s, d, t, i) for s in range(6) for d in range(6) for t in range(4)
            for i in range(2)]
    assert [bare.drop_message(*k) for k in keys] == \
        [composed.drop_message(*k) for k in keys]


def test_crash_plan_is_label_set_deterministic_and_staggered():
    plane = parse_fault_model("crash:3@4+restart:2", seed=1)
    labels = list(range(10))
    plan = plane.crash_plan(labels)
    assert plan == plane.crash_plan(list(reversed(labels)))  # order-free
    assert len(plan) == 3
    crash_times = sorted(when for when, _ in plan.values())
    assert crash_times == [4, 5, 6]  # staggered, j-th victim at r + j
    for when, restart in plan.values():
        assert restart == when + 2
    # Clamped to the network size; restart None without a restart term.
    assert len(parse_fault_model("crash:5@0").crash_plan([1, 2])) == 2
    assert all(r is None for _, r in
               parse_fault_model("crash:2@1").crash_plan(labels).values())


# ----------------------------------------------------------------------
# engines: identical faulted executions, correct metering, restarts
# ----------------------------------------------------------------------
def _bellman_ford_under(fault, engine, seed=3, metrics=None):
    from repro.baselines import run_bellman_ford

    graph = generators.make_family("er", 16, 9, seed=seed)
    metrics = Metrics() if metrics is None else metrics
    with simulation_engine(engine, "unit", seed=seed, faults=fault):
        distances = run_bellman_ford(graph, next(iter(graph.nodes())), metrics=metrics)
    return distances, metrics


class _SleepyChatter(NodeAlgorithm):
    """Sleeping-model traffic on seeded schedules: unicasts or broadcasts."""

    def __init__(self, node, seed, broadcast):
        self.rng = random.Random(f"{seed}|{node}")
        self.broadcast = broadcast
        self.budget = 8
        self.heard = []

    def on_round(self, ctx, inbox):
        self.heard.append((ctx.round, sorted(inbox, key=repr)))
        self.budget -= 1
        if self.budget <= 0:
            ctx.halt()
            return
        if self.broadcast:
            if self.rng.random() < 0.6:
                ctx.broadcast(self.budget)
        else:
            for v in ctx.neighbors:
                if self.rng.random() < 0.5:
                    ctx.send(v, self.budget)
        ctx.wake_at(ctx.round + 1 + self.rng.randrange(3))


def _sleeping_chatter_under(fault, engine, broadcast, metrics, seed=3):
    graph = generators.make_family("er", 16, 9, seed=seed)
    algorithms = {u: _SleepyChatter(u, seed, broadcast) for u in graph.nodes()}
    with simulation_engine(engine, "unit", seed=seed, faults=fault):
        make_runner(graph, algorithms, Mode.SLEEPING, metrics=metrics).run()
    return {u: alg.heard for u, alg in algorithms.items()}


def _workload_under(workload, fault, engine):
    """``(outputs, metrics)`` of one parity workload under ``fault``.

    A traced workload's outputs include the tracer's timelines, so the
    time-resolved metering fold is compared too.
    """
    traced = workload.endswith("-traced")
    metrics = TracingMetrics() if traced else Metrics()
    if workload.startswith("bellman-ford"):
        outputs, _ = _bellman_ford_under(fault, engine, metrics=metrics)
    else:
        outputs = _sleeping_chatter_under(
            fault, engine, workload.startswith("sleeping-broadcast"), metrics
        )
    if traced:
        outputs = (outputs, metrics.messages_by_round, metrics.awake_by_round,
                   metrics.edge_timeline)
    return outputs, metrics


_PARITY_WORKLOADS = (
    "sleeping-unicast", "sleeping-broadcast", "sleeping-broadcast-traced",
    "bellman-ford-traced",
)


@pytest.mark.parametrize("fault, workload", [
    *(pytest.param(fault, "bellman-ford", id=fault) for fault in (
        "drop:0.1", "dup:0.2", "drop:0.1+dup:0.05",
        "crash:2@2+restart:3", "crash:1@4",
    )),
    *((fault, workload)
      for fault in ("drop:0.1", "dup:0.2", "crash:2@1+restart:2")
      for workload in _PARITY_WORKLOADS),
])
def test_faulted_runs_byte_identical_across_engines(fault, workload):
    sync_dist, sync_metrics = _workload_under(workload, fault, "round")
    event_dist, event_metrics = _workload_under(workload, fault, "event")
    assert event_dist == sync_dist
    assert event_metrics.to_dict() == sync_metrics.to_dict()


def test_fault_counters_meter_what_happened():
    _, metrics = _bellman_ford_under("drop:0.1+dup:0.05", "round")
    assert metrics.messages_dropped > 0
    assert metrics.messages_duplicated > 0
    assert metrics.nodes_crashed == 0 and metrics.recoveries == 0
    _, metrics = _bellman_ford_under("crash:2@2+restart:3", "round")
    assert metrics.nodes_crashed == 2 and metrics.recoveries == 2
    assert metrics.messages_dropped > 0  # deliveries to the dead are dropped
    payload = metrics.to_dict()["faults"]
    assert payload["nodes_crashed"] == 2 and payload["recoveries"] == 2
    assert Metrics.from_dict(metrics.to_dict()).to_dict() == metrics.to_dict()


def test_crash_without_restart_partitions_and_restart_relearns():
    from repro.baselines import run_bellman_ford

    graph = generators.path_graph(8)
    plane = parse_fault_model("crash:1@2", seed=0)
    victim = next(iter(plane.crash_plan(graph.nodes())))
    metrics = Metrics()
    with simulation_engine("round", "unit", seed=0, faults="crash:1@2"):
        dead = run_bellman_ford(graph, 0, metrics=metrics)
    assert metrics.nodes_crashed == 1 and metrics.recoveries == 0
    if victim != 0:
        # Everything strictly past a mid-path crash is unreachable.
        assert all(dead[u] == INFINITY for u in graph.nodes() if u > victim)
    with simulation_engine("round", "unit", seed=0, faults="crash:1@2+restart:2"):
        revived = run_bellman_ford(graph, 0, metrics=Metrics())
    # With a restart, re-broadcasts reteach the rebooted node: exact again.
    assert revived == graph.dijkstra([0])


# ----------------------------------------------------------------------
# the "none" differential guarantee and resume-digest stability
# ----------------------------------------------------------------------
def test_pre_fault_digests_are_pinned():
    # Byte-compat with stores written before the fault plane existed: the
    # fault-free digest payload must hash exactly as it did in PR 6.
    assert scenario_digest(get_scenario("bellman-ford/er")) == "442c56e17a83"
    assert scenario_digest(
        get_scenario("bellman-ford/er"), fault_model="none"
    ) == "442c56e17a83"
    assert scenario_digest(
        get_scenario("bellman-ford/er"), fault_model="drop:0.05"
    ) != "442c56e17a83"


@pytest.mark.parametrize("engine", ["round", "event"])
def test_none_rows_and_metrics_carry_no_fault_columns(engine):
    for name in list_scenarios():
        scenario = get_scenario(name)
        if scenario.fault_model != "none" or scenario.max_time is not None:
            continue
        row, metrics = _run_cell(name, 12, 0, engine=None if engine == "round" else engine,
                                 fault_model="none")
        for column in ("fault_model", "robustness", "messages_dropped",
                       "messages_duplicated", "nodes_crashed", "recoveries",
                       "stop_reason", "virtual_time"):
            assert column not in row, (name, column)
        assert "faults" not in metrics.to_dict()


def test_none_resumes_pre_fault_stores_verbatim(tmp_path):
    # A store written with no fault axis must satisfy a fault_model="none"
    # resume without re-running a single cell — and vice versa.
    path = tmp_path / "runs.jsonl"
    spec = SweepSpec(scenarios=("bellman-ford/er", "bfs/grid"), sizes=(12, 18),
                     seeds=(0,), output=str(path))
    baseline = run_sweep_spec(spec)
    executed = []
    resumed = run_sweep_spec(
        spec.replace(fault_model="none"),
        progress=lambda done, total, row: executed.append(row),
    )
    assert executed == []
    assert resumed == baseline


# ----------------------------------------------------------------------
# the sweep axis: rows, worker counts, shards, resume
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", FAULT_SCENARIOS)
def test_fault_scenarios_expose_robustness_columns_on_both_engines(name):
    row, metrics = _run_cell(name, 16, 1)
    event_row, event_metrics = _run_cell(name, 16, 1, engine="event")
    assert event_row == row
    assert event_metrics.to_dict() == metrics.to_dict()
    assert row["fault_model"] == canonical_fault(get_scenario(name).fault_model)
    assert row["robustness"] in ("exact", "survivors")
    assert {"messages_dropped", "messages_duplicated", "nodes_crashed",
            "recoveries"} <= set(row)


def test_faulted_sweep_rows_stable_across_worker_counts():
    spec = SweepSpec(scenarios=("bellman-ford/er", "bellman-ford/grid@lossy"),
                     sizes=(12, 18), seeds=(0, 1), fault_model="drop:0.1")
    solo = run_sweep_spec(spec)
    assert run_sweep_spec(spec.replace(workers=2)) == solo
    assert all(row["fault_model"] == "drop:0.1" for row in solo)
    assert all(row["params_digest"] != scenario_digest(get_scenario(row["scenario"]))
               for row in solo)  # the non-none plane joins the resume digest


def test_faulted_shards_merge_to_the_unsharded_table(tmp_path):
    spec = SweepSpec(scenarios=("bellman-ford/er", "bellman-ford/grid@lossy"),
                     sizes=(12, 18), seeds=(0, 1), fault_model="drop:0.1",
                     output=str(tmp_path / "faulted.jsonl"))
    for shard in spec.shard(2):
        run_sweep_spec(shard)
    merged = merge_shards(spec.output)
    assert [r["scenario"] for r in merged] != []
    executed = []
    rows = run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
    assert executed == []  # the merged store already held every faulted cell
    assert rows == run_sweep_spec(spec.replace(output=None))


def test_faulted_resume_reuses_only_matching_fault_cells(tmp_path):
    path = tmp_path / "runs.jsonl"
    spec = SweepSpec(scenarios=("bellman-ford/er",), sizes=(12,), seeds=(0,),
                     output=str(path), fault_model="drop:0.1")
    run_sweep_spec(spec)
    # Same plane: full reuse.  Different plane: full re-run.
    for fault, expected_new in (("drop:0.1", 0), ("drop:0.2", 1)):
        executed = []
        run_sweep_spec(spec.replace(fault_model=fault),
                       progress=lambda d, t, row: executed.append(row))
        assert len(executed) == expected_new, fault


# ----------------------------------------------------------------------
# tolerance gate, force override, negative control
# ----------------------------------------------------------------------
def test_gate_rejects_explicit_non_tolerant_scenarios():
    spec = SweepSpec(scenarios=("sssp/er",), sizes=(12,), fault_model="drop:0.1")
    with pytest.raises(SpecError, match="tolerance"):
        run_sweep_spec(spec)


def test_gate_auto_restricts_catalog_sweeps_to_tolerant_scenarios():
    rows = run_sweep_spec(SweepSpec(sizes=(12,), fault_model="dup:0.1"))
    ran = {row["scenario"] for row in rows}
    assert ran  # dup-tolerant scenarios exist (bellman-ford + bfs families)
    for name in ran:
        tolerance = get_algorithm_spec(get_scenario(name).algorithm).fault_tolerance
        assert "dup" in tolerance


def test_force_faults_bypasses_the_gate_and_the_protocol_breaks():
    spec = SweepSpec(scenarios=("bfs/grid",), sizes=(36,), fault_model="drop:0.3",
                     force_faults=True)
    with pytest.raises(SweepError, match="sandwich"):
        run_sweep_spec(spec)


def test_negative_control_bfs_breaks_under_drops_but_not_dup():
    # The ungated single-cell API shows exactly how a non-tolerant protocol
    # fails: BFS offers are one-shot, so drops lose distances for good...
    with pytest.raises(SweepError, match="bfs"):
        run_scenario("bfs/grid", 36, seed=0, fault_model="drop:0.3")
    # ...while duplication is idempotent and stays exact.
    row = run_scenario("bfs/grid", 36, seed=0, fault_model="dup:0.3")
    assert row["robustness"] == "exact"
    assert row["messages_duplicated"] > 0


def test_registering_a_non_tolerant_faulted_scenario_fails():
    with pytest.raises(SweepError, match="tolerance"):
        register_scenario(Scenario("sssp/er@bad", "er", "sssp", max_weight=9,
                                   fault_model="drop:0.1"))
    with pytest.raises(SweepError, match="fault"):
        register_scenario(Scenario("bfs/grid@bad", "grid", "bfs",
                                   fault_model="drop:nope"))


def test_cli_gate_exits_2_without_force_faults(capsys):
    code = main(["sweep", "--scenarios", "bfs/grid", "--sizes", "12",
                 "--fault-model", "drop:0.3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "tolerance" in err and "force" in err
    code = main(["sweep", "--scenarios", "bfs/grid", "--sizes", "12",
                 "--fault-model", "drop:0.3", "--force-faults"])
    assert code == 2  # the gate lifted; the oracle failure is the stop now
    assert "sandwich" in capsys.readouterr().err


# ----------------------------------------------------------------------
# duration-bounded runs: stop_reason / virtual_time columns
# ----------------------------------------------------------------------
def test_budgeted_scenario_surfaces_stop_reason_and_virtual_time():
    scenario = get_scenario("bellman-ford/er@budget")
    assert scenario.max_time == 24
    cut = run_scenario("bellman-ford/er@budget", 18, seed=0)
    assert cut["stop_reason"] == "max_time"
    assert 0 < cut["virtual_time"] <= scenario.max_time + 1
    # Small instances finish before the budget: completed, not cut.
    done = run_scenario("bellman-ford/er@budget", 12, seed=0)
    assert done["stop_reason"] == "completed"
    assert done["virtual_time"] == done["rounds"]
    # The bound forces the event engine by default and pins round parity.
    assert run_scenario("bellman-ford/er@budget", 18, seed=0, engine="event") == cut


def test_budget_columns_flow_through_stores_and_reports(tmp_path):
    from repro.analysis.sweeps import sweep_report, sweep_table

    spec = SweepSpec(scenarios=("bellman-ford/er@budget",), sizes=(12, 18),
                     seeds=(0,), output=str(tmp_path / "budget.jsonl"))
    rows = run_sweep_spec(spec)
    reloaded = run_sweep_spec(spec)
    assert reloaded == rows  # store round-trip keeps the extra columns
    table = sweep_table(rows)
    report = sweep_report(rows, title="budget")
    for text in (table, report):
        assert "stop_reason" in text and "max_time" in text
        assert "virtual_time" in text
    faulted = sweep_table([run_scenario("bellman-ford/grid@lossy", 16, seed=1)])
    assert "fault_model" in faulted and "robustness" in faulted


# ----------------------------------------------------------------------
# CLI surfaces: info / sweep --list print declared tolerances
# ----------------------------------------------------------------------
def test_info_and_list_print_declared_fault_tolerance(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "faults=drop,dup,crash" in out  # bellman-ford
    assert "faults=dup,crash" in out       # bfs
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    assert "faults=drop,dup,crash" in out
    assert "bellman-ford/er@drop5" in out
    assert main(["sweep", "--list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    by_name = {entry["name"]: entry for entry in catalog}
    assert by_name["bellman-ford/er@drop5"]["fault_model"] == "drop:0.05"
    assert by_name["bfs/grid"]["fault_tolerance"] == ["dup", "crash"]
    assert by_name["sssp/er"]["fault_tolerance"] == []
