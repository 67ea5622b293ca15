"""The full algorithm catalog: registry integrity, oracles, seeds, resume.

This file covers the catalog-growth contract:

* every registered :class:`~repro.api.AlgorithmSpec` resolves, validates
  its param schema against the driver signature, and round-trips through
  its dict form (and scenario names round-trip through ``SweepSpec`` JSON);
* every newly registered driver runs — self-verifying against its
  sequential oracle/validator — across at least three graph families
  (tree, grid, random-connected);
* seeds actually vary the run: on one fixed instance, every registered
  driver outside :data:`SEED_INVARIANT` gives more than one distinct
  output across seeds (the silent-corruption bug where every
  ``(scenario, n, seed)`` cell recomputed the identical run);
* a driver is a function of its graph and seed: one seed repeated on one
  instance gives one output, and the driver leaves the graph unchanged;
* resume keys carry the scenario-definition digest, so a store written
  under old params never silently satisfies a sweep under new ones.
"""

import json

import pytest

from repro.api import (
    AlgorithmSpec,
    ResultSet,
    SweepSpec,
    algorithms,
    get_algorithm_spec,
    list_algorithm_specs,
    register_algorithm_spec,
    run_sweep_spec,
)
from repro.graphs import generators
from repro.graphs.io import dumps
from repro.sim import Metrics, experiments
from repro.sim.experiments import (
    ROW_FIELDS,
    Scenario,
    SweepError,
    register_scenario,
    run_scenario,
    scenario_digest,
)

#: The three-family differential matrix the catalog contract requires.
FAMILIES = ("tree", "grid", "er")

#: algorithm -> (max_weight, size) used for the per-family differential runs.
#: Unit weights where the oracle demands them (Boruvka's MST-weight check is
#: exact only when every spanning forest is minimum).
CATALOG_CASES = {
    "boruvka": (1, 12),
    "apsp": (5, 10),
    "labeled-bfs": (7, 12),
    "decomposition": (1, 12),
    "sparse-cover": (1, 12),
    "layered-cover": (1, 12),
    "tree-aggregation": (1, 12),
    "energy-bfs-scratch": (1, 12),
    "energy-cssp": (3, 10),
}

#: Algorithms whose output is the same for every seed on a fixed instance:
#: deterministic per instance, the seed varies only the graph.
SEED_INVARIANT = frozenset({"boruvka", "decomposition", "sparse-cover", "layered-cover"})

#: The seed axis the probe sweeps over one fixed instance.
PROBE_SEEDS = range(6)


@pytest.fixture
def temp_scenario():
    """Register throwaway scenarios; unregister them afterwards."""
    registered = []

    def register(scenario: Scenario) -> Scenario:
        registered.append(scenario.name)
        return register_scenario(scenario)

    yield register
    for name in registered:
        experiments._SCENARIOS.pop(name, None)


class TestRegistryIntegrity:
    def test_catalog_has_at_least_twelve_algorithms(self):
        assert len(list_algorithm_specs()) >= 12

    def test_every_spec_resolves_and_validates(self):
        for spec in list_algorithm_specs():
            assert callable(spec.resolve()), spec.name
            assert spec.validate() is spec

    def test_every_spec_round_trips_through_dict(self):
        for spec in list_algorithm_specs():
            clone = AlgorithmSpec.from_dict(spec.to_dict())
            assert clone == spec
            assert clone.param_schema == spec.param_schema

    def test_every_scenario_round_trips_through_sweep_spec_json(self):
        names = tuple(experiments.list_scenarios())
        assert len(names) >= 12
        spec = SweepSpec(scenarios=names, sizes=(8,), seeds=(0,))
        clone = SweepSpec.from_json(spec.to_json())
        assert clone == spec
        for name in clone.scenarios:
            scenario = experiments.get_scenario(name)  # resolves, no raise
            get_algorithm_spec(scenario.algorithm)

    def test_param_schema_rejects_unknown_type(self):
        spec = AlgorithmSpec(
            "bad-type", "repro.api.drivers:drive_bfs",
            param_schema=(("x", "complex"),),
        )
        with pytest.raises(ValueError, match="unknown.*type"):
            spec.validate()

    def test_param_schema_rejects_param_the_driver_lacks(self):
        spec = AlgorithmSpec(
            "bad-param", "repro.api.drivers:drive_bfs",
            param_schema=(("no_such_param", "int"),),
        )
        with pytest.raises(ValueError, match="does not accept"):
            spec.validate()

    def test_register_algorithm_spec_rejects_bad_schema_shape(self):
        from repro.api import register_algorithm_spec

        with pytest.raises(ValueError, match="unknown.*type"):
            register_algorithm_spec(
                AlgorithmSpec("bad-shape", "repro.api.drivers:drive_bfs",
                              param_schema=(("x", "integer"),))
            )
        with pytest.raises(ValueError, match="model"):
            register_algorithm_spec(
                AlgorithmSpec("bad-model", "repro.api.drivers:drive_bfs",
                              model="quantum")
            )

    def test_register_scenario_rejects_undeclared_param(self):
        with pytest.raises(SweepError, match="unknown param"):
            register_scenario(
                Scenario("bad/undeclared", "tree", "energy-bfs",
                         params=(("bases", 4),))
            )

    def test_register_scenario_rejects_mistyped_param(self):
        with pytest.raises(SweepError, match="must be int"):
            register_scenario(
                Scenario("bad/mistyped", "tree", "energy-bfs",
                         params=(("base", "four"),))
            )


class TestCatalogDifferential:
    """Each new driver self-verifies against its oracle on >= 3 families."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("algorithm", sorted(CATALOG_CASES))
    def test_driver_passes_its_oracle(self, temp_scenario, algorithm, family):
        max_weight, size = CATALOG_CASES[algorithm]
        name = f"test-catalog/{algorithm}-{family}"
        temp_scenario(
            Scenario(name, family, algorithm, max_weight=max_weight)
        )
        row = run_scenario(name, size, seed=0)  # DriverError -> SweepError
        assert row["algorithm"] == algorithm
        assert row["rounds"] > 0
        assert row["messages"] > 0

    def test_boruvka_reports_exact_mst_weight(self, temp_scenario):
        temp_scenario(Scenario("test-catalog/boruvka", "er", "boruvka"))
        row = run_scenario("test-catalog/boruvka", 14, seed=2)
        graph = generators.make_family("er", 14, 1, seed=2)
        assert row["mst_weight"] == graph.mst_weight()
        assert row["forest_weight"] == row["mst_weight"]  # unit weights

    def test_boruvka_tolerates_weighted_instances(self, temp_scenario):
        # The Thm 2.2 forest is maximal, not minimum: on non-uniform
        # weights the driver must not flag correct output as an oracle
        # disagreement — the weight check relaxes to the MST lower bound.
        temp_scenario(Scenario("test-catalog/boruvka-w", "er", "boruvka",
                               max_weight=9))
        row = run_scenario("test-catalog/boruvka-w", 14, seed=2)
        assert row["forest_weight"] >= row["mst_weight"]

    def test_cover_scenarios_report_quality_columns(self, temp_scenario):
        temp_scenario(Scenario("test-catalog/cover", "grid", "sparse-cover"))
        row = run_scenario("test-catalog/cover", 12, seed=0)
        assert row["cover_clusters"] >= 1
        assert row["cover_degree"] >= 1
        assert row["cover_radius"] >= 0

    def test_energy_scenarios_report_per_node_energy(self, temp_scenario):
        temp_scenario(
            Scenario("test-catalog/agg", "tree", "tree-aggregation")
        )
        row = run_scenario("test-catalog/agg", 12, seed=0)
        assert row["energy"] >= row["energy_avg"] > 0

    def test_preprocess_columns_meter_cover_construction(self):
        # The Thm 3.8 query columns must not absorb the Thm 3.11
        # construction; the construction must still be visible (the
        # under-counting bug: the cover used to be built outside metrics).
        row = run_scenario("energy-bfs/path", 12, seed=0)
        assert row["preprocess_rounds"] > 0
        assert row["preprocess_messages"] > 0
        assert row["preprocess_energy"] > 0
        scratch = run_scenario("energy-bfs-scratch/tree", 12, seed=0)
        assert scratch["preprocess_rounds"] > 0

    def test_extras_flow_through_tables_fits_and_stores(self, temp_scenario, tmp_path):
        from repro.analysis import fit_sweep, sweep_columns, sweep_table

        temp_scenario(Scenario("test-catalog/boruvka-flow", "er", "boruvka"))
        spec = SweepSpec(scenarios=("test-catalog/boruvka-flow",),
                         sizes=(10, 14, 18), seeds=(0,),
                         output=str(tmp_path / "runs.jsonl"))
        rows = run_sweep_spec(spec)
        assert "mst_weight" in sweep_columns(rows)
        assert "mst_weight" in sweep_table(rows)
        fits = fit_sweep(rows, y="mst_weight")
        assert "test-catalog/boruvka-flow" in fits
        # Store round-trip: resumed rows carry the quality columns too.
        resumed = run_sweep_spec(spec)
        assert resumed == rows

    def test_core_row_fields_precede_extras(self, temp_scenario):
        temp_scenario(Scenario("test-catalog/apsp-order", "tree", "apsp",
                               max_weight=5))
        row = run_scenario("test-catalog/apsp-order", 10, seed=1)
        assert tuple(row)[: len(ROW_FIELDS)] == ROW_FIELDS
        assert sorted(tuple(row)[len(ROW_FIELDS):]) == list(tuple(row)[len(ROW_FIELDS):])


def seed_probe_scenario(algorithm: str) -> Scenario:
    """The first registered unit-latency, fault-free scenario of ``algorithm``."""
    for name in experiments.list_scenarios():
        scenario = experiments.get_scenario(name)
        if (
            scenario.algorithm == algorithm
            and scenario.latency_model == "unit"
            and scenario.fault_model == "none"
            and scenario.max_time is None
            and scenario.message_budget is None
        ):
            return scenario
    raise AssertionError(f"no unit-latency, fault-free scenario runs {algorithm!r}")


def distinct_seed_outputs(scenario: Scenario, n: int = 16) -> int:
    """How many distinct ``(metrics.summary(), extras)`` the seeds produce.

    The graph is built once (size ``n``, seed 0), so any variation comes
    from the driver's own use of its seed, never from the instance.
    """
    graph = scenario.build_graph(n, 0)
    driver = get_algorithm_spec(scenario.algorithm).resolve()
    outputs = set()
    for seed in PROBE_SEEDS:
        metrics = Metrics()
        extras = driver(graph, seed, metrics, **dict(scenario.params))
        outputs.add(json.dumps([metrics.summary(), extras], sort_keys=True, default=repr))
    return len(outputs)


def repeated_seed_outputs(scenario: Scenario, n: int = 16, seed: int = 3):
    """Two runs of one seed on one instance: ``(outputs, graph before, after)``.

    Each run gets a fresh ``Metrics``; the graph is shared, as it is across
    the seed axis of a sweep cell's cached instance.
    """
    graph = scenario.build_graph(n, 0)
    before = dumps(graph)
    driver = get_algorithm_spec(scenario.algorithm).resolve()
    outputs = []
    for _ in range(2):
        metrics = Metrics()
        extras = driver(graph, seed, metrics, **dict(scenario.params))
        outputs.append(json.dumps([metrics.summary(), extras], sort_keys=True, default=repr))
    return outputs, before, dumps(graph)


def _drive_seedless_bfs(graph, seed, metrics):
    """A driver that drops its seed: every cell of the seed axis is one run."""
    from repro.api.drivers import drive_bfs

    return drive_bfs(graph, 0, metrics)


_STATEFUL_CALLS = []


def _drive_stateful_bfs(graph, seed, metrics):
    """A driver whose source depends on how often it ran before, not its seed."""
    from repro.api.drivers import drive_bfs

    _STATEFUL_CALLS.append(seed)
    return drive_bfs(graph, seed + len(_STATEFUL_CALLS), metrics)


def _drive_graph_mutating_bfs(graph, seed, metrics):
    """A driver that adds a chord to the instance it was handed."""
    from repro.api.drivers import drive_bfs

    nodes = sorted(graph.nodes(), key=repr)
    u = nodes[0]
    graph.add_edge(u, next(v for v in nodes[1:] if not graph.has_edge(u, v)))
    return drive_bfs(graph, seed, metrics)


class TestSeedVariation:
    """Distinct seeds must give distinct runs (the seed-ignored bug)."""

    def test_source_node_varies_with_seed(self):
        from repro.api.drivers import _source_node

        graph = generators.make_family("grid", 16, 1, seed=0)
        sources = {_source_node(graph, seed) for seed in range(6)}
        assert len(sources) > 1

    @pytest.mark.parametrize(
        "algorithm", sorted(spec.name for spec in list_algorithm_specs())
    )
    def test_driver_output_varies_with_seed_on_a_fixed_instance(self, algorithm):
        distinct = distinct_seed_outputs(seed_probe_scenario(algorithm))
        if algorithm in SEED_INVARIANT:
            assert distinct == 1, (
                f"{algorithm} now varies with its seed; drop it from SEED_INVARIANT"
            )
        else:
            assert distinct > 1, f"{algorithm} ignores its seed on a fixed instance"

    def test_seed_ignoring_driver_is_flagged(self, temp_scenario, monkeypatch):
        monkeypatch.setattr(algorithms, "_SPECS", dict(algorithms._SPECS))
        register_algorithm_spec(
            AlgorithmSpec("seedless-bfs", entry_point="", driver=_drive_seedless_bfs)
        )
        scenario = temp_scenario(
            Scenario("test-catalog/seedless-bfs", "grid", "seedless-bfs")
        )
        assert distinct_seed_outputs(scenario) == 1


class TestSeedDeterminism:
    """One seed on one instance is one run, and the instance stays as given."""

    @pytest.mark.parametrize(
        "algorithm", sorted(spec.name for spec in list_algorithm_specs())
    )
    def test_driver_is_a_function_of_graph_and_seed(self, algorithm):
        outputs, before, after = repeated_seed_outputs(seed_probe_scenario(algorithm))
        assert outputs[0] == outputs[1], f"{algorithm} differs under a repeated seed"
        assert after == before, f"{algorithm} mutated the graph it was given"

    def test_stateful_driver_is_flagged(self, temp_scenario, monkeypatch):
        monkeypatch.setattr(algorithms, "_SPECS", dict(algorithms._SPECS))
        register_algorithm_spec(
            AlgorithmSpec("stateful-bfs", entry_point="", driver=_drive_stateful_bfs)
        )
        scenario = temp_scenario(
            Scenario("test-catalog/stateful-bfs", "grid", "stateful-bfs")
        )
        outputs, before, after = repeated_seed_outputs(scenario)
        assert outputs[0] != outputs[1]
        assert after == before

    def test_graph_mutating_driver_is_flagged(self, temp_scenario, monkeypatch):
        monkeypatch.setattr(algorithms, "_SPECS", dict(algorithms._SPECS))
        register_algorithm_spec(
            AlgorithmSpec("mutating-bfs", entry_point="", driver=_drive_graph_mutating_bfs)
        )
        scenario = temp_scenario(
            Scenario("test-catalog/mutating-bfs", "grid", "mutating-bfs")
        )
        _outputs, before, after = repeated_seed_outputs(scenario)
        assert after != before


class TestParamsAwareResume:
    """Resume keys carry the scenario-definition digest (the stale-params bug)."""

    def test_digest_changes_with_params_family_and_weights(self):
        base = Scenario("x", "tree", "labeled-bfs")
        assert scenario_digest(base) == scenario_digest(
            Scenario("renamed", "tree", "labeled-bfs")
        )  # the *name* is not part of the definition
        assert scenario_digest(base) != scenario_digest(
            Scenario("x", "tree", "labeled-bfs", params=(("num_sources", 2),))
        )
        assert scenario_digest(base) != scenario_digest(
            Scenario("x", "grid", "labeled-bfs")
        )
        assert scenario_digest(base) != scenario_digest(
            Scenario("x", "tree", "labeled-bfs", max_weight=9)
        )

    def test_digest_accepts_dict_params(self):
        # Every other consumer of Scenario.params goes through dict(), so
        # a plugin passing a mapping instead of the canonical pair-tuple
        # must digest identically, not crash in a forked worker.
        pairs = Scenario("x", "tree", "labeled-bfs", params=(("num_sources", 2),))
        mapping = Scenario("x", "tree", "labeled-bfs", params={"num_sources": 2})
        assert scenario_digest(pairs) == scenario_digest(mapping)

    def test_rows_record_the_digest(self):
        row = run_scenario("bfs/grid", 9, seed=0)
        assert row["params_digest"] == scenario_digest(
            experiments.get_scenario("bfs/grid")
        )

    def test_resume_with_changed_params_reruns_stale_cells(self, temp_scenario, tmp_path):
        name = "test-catalog/resume-params"
        spec = SweepSpec(scenarios=(name,), sizes=(10,), seeds=(0,),
                         output=str(tmp_path / "runs.jsonl"))

        temp_scenario(Scenario(name, "tree", "labeled-bfs",
                               params=(("num_sources", 2),)))
        first = run_sweep_spec(spec)

        # Same definition -> full reuse.
        executed = []
        run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
        assert executed == []

        # Changed params under the same scenario name -> the stored cell is
        # stale and MUST re-run (this used to silently reuse it).
        temp_scenario(Scenario(name, "tree", "labeled-bfs",
                               params=(("num_sources", 4),)))
        executed = []
        second = run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
        assert len(executed) == 1
        assert second[0]["params_digest"] != first[0]["params_digest"]

        # And resuming *again* under the new definition reuses the new cell.
        executed = []
        third = run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
        assert executed == []
        assert third == second

        # The store supersedes the stale cell: tables/fits built straight
        # from the ResultSet must not double-count the re-run cell.
        store = ResultSet(spec.output)
        assert len(store.rows()) == 1
        assert store.rows()[0]["params_digest"] == second[0]["params_digest"]

    def test_pre_digest_store_is_not_trusted(self, tmp_path):
        # A store written before the digest column keys with "" — it must
        # miss the lookup and re-run rather than be silently reused.
        path = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9,), seeds=(0,),
                         output=str(path))
        run_sweep_spec(spec)
        record = json.loads(path.read_text().splitlines()[0])
        del record["params_digest"]
        record["rounds"] = -1  # poison: reuse would be visible
        path.write_text(json.dumps(record) + "\n")
        rows = run_sweep_spec(spec)
        assert rows[0]["rounds"] > 0
