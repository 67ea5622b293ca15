"""The spec layer: JSON round-trips, validation, and algorithm descriptors."""

import dataclasses
import json
import sys

import pytest

from repro.api import (
    AlgorithmSpec,
    ReportSpec,
    SpecError,
    SweepSpec,
    get_algorithm_spec,
    list_algorithm_specs,
    load_spec,
    register_algorithm_spec,
    run_report_spec,
    run_spec,
    run_sweep_spec,
    smoke_spec,
)
from repro.api.algorithms import discover, resolve_entry_point
from repro.api.specs import Spec
from repro.sim.experiments import list_algorithms, run_scenario


class TestSweepSpecRoundTrip:
    def test_json_round_trip_is_exact(self):
        spec = SweepSpec(scenarios=("sssp/er", "bfs/grid"), sizes=(16, 32),
                         seeds=(0, 1, 2), workers=4, output="runs.jsonl")
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_defaults_round_trip(self):
        spec = SweepSpec()
        assert SweepSpec.from_json(spec.to_json()) == spec
        assert spec.scenarios is None  # "all registered" survives the trip

    def test_json_lists_normalize_to_tuples(self):
        spec = SweepSpec.from_dict(
            {"kind": "sweep", "scenarios": ["a", "b"], "sizes": [8], "seeds": [0, 1]}
        )
        assert spec.scenarios == ("a", "b")
        assert spec.sizes == (8,)
        assert spec.seeds == (0, 1)

    def test_file_round_trip(self, tmp_path):
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9,), seeds=(0,))
        path = spec.save(tmp_path / "sweep.json")
        assert SweepSpec.load(path) == spec
        assert load_spec(path) == spec  # kind-tag dispatch

    def test_cells_cross_product_order(self):
        spec = SweepSpec(scenarios=("a", "b"), sizes=(8, 16), seeds=(0, 1))
        cells = spec.cells()
        assert cells[0] == ("a", 8, 0)
        assert cells == sorted(cells, key=lambda c: (spec.scenarios.index(c[0]), c[1], c[2]))
        assert len(cells) == 8


class TestSweepSpecValidation:
    @pytest.mark.parametrize("bad", [
        {"sizes": ()},
        {"sizes": (0,)},
        {"sizes": (-4,)},
        {"sizes": ("x",)},
        {"seeds": ()},
        {"seeds": ("y",)},
        {"workers": 0},
        {"workers": "two"},
        {"scenarios": ()},
        {"output": 7},
    ])
    def test_rejects(self, bad):
        with pytest.raises(SpecError):
            SweepSpec(**bad).validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown fields"):
            SweepSpec.from_dict({"kind": "sweep", "frobnicate": 1})

    @pytest.mark.parametrize("cls", [SweepSpec], ids=["sweep"])
    def test_retired_backend_field_is_rejected(self, cls):
        # The kernel-dispatch knob is gone; an old spec file naming it must
        # fail loudly rather than run with the field silently dropped.
        with pytest.raises(SpecError, match=r"unknown fields \['backend'\]"):
            cls.from_dict({"kind": cls.kind, "backend": "numpy"})

    def test_wrong_kind_rejected(self):
        with pytest.raises(SpecError, match="expected kind"):
            SweepSpec.from_dict({"kind": "report"})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            SweepSpec.from_json("{nope")

    def test_replace_ignores_none_and_validates(self):
        spec = SweepSpec(sizes=(8,))
        assert spec.replace(sizes=None) is spec
        assert spec.replace(workers=3).workers == 3
        with pytest.raises(SpecError):
            spec.replace(workers=-1)


class TestOtherSpecs:
    def test_report_round_trip(self):
        spec = ReportSpec(results_dir="benchmarks/results", output="out.md")
        assert ReportSpec.from_json(spec.to_json()) == spec

    def test_load_spec_dispatches_on_kind(self, tmp_path):
        for spec in (SweepSpec(sizes=(8,)), ReportSpec()):
            path = spec.save(tmp_path / f"{spec.kind}.json")
            loaded = load_spec(path)
            assert type(loaded) is type(spec)
            assert loaded == spec

    def test_load_spec_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(SpecError, match="unknown spec kind"):
            load_spec(path)
        # The retired benchmark job kind is unknown too, not silently mapped.
        with pytest.raises(SpecError, match="unknown spec kind"):
            load_spec({"kind": "bench"})

    def test_unknown_kind_error_lists_the_two_spec_kinds(self):
        with pytest.raises(SpecError, match=r"options: \['report', 'sweep'\]"):
            load_spec({"kind": "mystery"})

    def test_run_spec_dispatches_each_kind_to_its_executor(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "E1_correctness.txt").write_text("== E1 ==\n")
        assert run_spec(ReportSpec(results_dir=str(results))) == run_report_spec(
            ReportSpec(results_dir=str(results))
        )
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9,))
        assert run_spec(spec) == run_sweep_spec(spec)

    def test_run_spec_rejects_a_spec_with_no_executor(self):
        @dataclasses.dataclass(frozen=True)
        class OrphanSpec(Spec):
            kind = "orphan"

        with pytest.raises(SpecError, match="no executor for spec of type OrphanSpec"):
            run_spec(OrphanSpec())

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_spec(tmp_path / "nope.json")

    def test_load_spec_accepts_json_text(self):
        spec = load_spec('{"kind": "sweep", "sizes": [8]}')
        assert spec == SweepSpec(sizes=(8,))
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec("{nope")

    def test_cells_without_resolved_scenarios_is_a_spec_error(self):
        with pytest.raises(SpecError, match="resolves at run time"):
            SweepSpec().cells()

    def test_smoke_spec_is_fixed_and_valid(self):
        spec = smoke_spec()
        assert spec.validate() is spec
        # The smoke sweep covers the *whole* registered catalog (CI runs
        # every driver through its oracle), at fixed small sizes.
        assert spec.scenarios is None
        assert spec.seeds == (0,)
        assert all(n <= 20 for n in spec.sizes)


class TestAlgorithmSpecs:
    def test_builtins_registered_declaratively(self):
        names = list_algorithms()
        assert {"sssp", "cssp", "bellman-ford", "dijkstra", "bfs", "energy-bfs"} <= set(names)
        spec = get_algorithm_spec("energy-bfs")
        assert spec.model == "sleeping"
        assert spec.oracle == "repro.graphs:Graph.hop_distances"
        assert dict(spec.param_schema) == {"base": "int", "stretch": "int"}

    def test_entry_points_resolve_to_callables(self):
        for spec in list_algorithm_specs():
            assert callable(spec.resolve()), spec.name

    def test_spec_dict_round_trip(self):
        spec = get_algorithm_spec("sssp")
        assert AlgorithmSpec.from_dict(spec.to_dict()) == spec

    def test_resolve_entry_point_syntax(self):
        assert resolve_entry_point("repro.api.drivers:drive_bfs").__name__ == "drive_bfs"
        with pytest.raises(ValueError, match="entry point"):
            resolve_entry_point("repro.api.drivers.drive_bfs")

    def test_registered_spec_drives_a_scenario(self):
        from repro.api import algorithms
        from repro.sim import experiments

        register_algorithm_spec(
            AlgorithmSpec("test-only-bfs", "repro.api.drivers:drive_bfs")
        )
        experiments.register_scenario(
            experiments.Scenario("test-only/bfs-path", "path", "test-only-bfs")
        )
        try:
            row = run_scenario("test-only/bfs-path", 8, seed=0)
            assert row["algorithm"] == "test-only-bfs"
            assert row["rounds"] > 0
        finally:
            experiments._SCENARIOS.pop("test-only/bfs-path", None)
            algorithms._SPECS.pop("test-only-bfs", None)


class TestPluginDiscovery:
    def test_env_var_plugin_registers_scenarios(self, tmp_path, monkeypatch):
        plugin = tmp_path / "repro_test_plugin.py"
        plugin.write_text(
            "from repro.sim.experiments import Scenario, register_scenario\n"
            "from repro.api import AlgorithmSpec, register_algorithm_spec\n"
            "register_algorithm_spec(AlgorithmSpec('plugin-bfs', 'repro.api.drivers:drive_bfs'))\n"
            "register_scenario(Scenario('plugin/bfs-path', 'path', 'plugin-bfs'))\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "repro_test_plugin")
        from repro.api import algorithms
        from repro.sim import experiments

        try:
            loaded = discover(force=True)
            assert "repro_test_plugin" in loaded
            assert "plugin/bfs-path" in experiments.list_scenarios()
            row = run_scenario("plugin/bfs-path", 8, seed=1)
            assert row["algorithm"] == "plugin-bfs"
        finally:
            experiments._SCENARIOS.pop("plugin/bfs-path", None)
            algorithms._SPECS.pop("plugin-bfs", None)

    def test_discover_runs_once_unless_forced(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLUGINS", raising=False)
        discover(force=True)
        assert discover() == []  # second call is a no-op

    def test_broken_plugin_raises_on_every_call(self, tmp_path, monkeypatch):
        # A plugin that fails to load must stay loud: a later discover()
        # retries it and raises again instead of returning [] with its
        # scenarios silently absent.
        plugin = tmp_path / "repro_broken_plugin.py"
        plugin.write_text("raise RuntimeError('broken plugin')\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "repro_broken_plugin")
        from repro.api import algorithms

        monkeypatch.setattr(algorithms, "_discovered", False)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="broken plugin"):
                discover()

    def test_broken_plugin_surfaces_through_get_scenario(self, tmp_path, monkeypatch):
        # The symptom a user sees: asking for a plugin's scenario reports
        # the plugin's own error every time, never "unknown scenario".
        (tmp_path / "repro_broken_lookup.py").write_text("raise RuntimeError('broken plugin')\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "repro_broken_lookup")
        from repro.api import algorithms
        from repro.sim.experiments import get_scenario

        monkeypatch.setattr(algorithms, "_discovered", False)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="broken plugin"):
                get_scenario("plugin/never-registered")

    def test_repaired_plugin_loads_on_the_next_call(self, tmp_path, monkeypatch):
        plugin = tmp_path / "repro_repaired_plugin.py"
        plugin.write_text("raise RuntimeError('broken plugin')\n")
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "repro_repaired_plugin")
        from repro.api import algorithms

        monkeypatch.setattr(algorithms, "_discovered", False)
        with pytest.raises(RuntimeError, match="broken plugin"):
            discover()
        plugin.write_text("LOADED = True\n")
        assert discover() == ["repro_repaired_plugin"]
        assert discover() == []  # done now: later calls are no-ops

    def test_plugin_reentering_discover_loads_once(self, tmp_path, monkeypatch):
        (tmp_path / "repro_reentrant_plugin.py").write_text(
            "from repro.api import discover\n"
            "calls = []\n"
            "def register():\n"
            "    calls.append(discover())\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "repro_reentrant_plugin:register")
        from repro.api import algorithms

        monkeypatch.setattr(algorithms, "_discovered", False)
        assert discover() == ["repro_reentrant_plugin:register"]
        import repro_reentrant_plugin

        assert repro_reentrant_plugin.calls == [[]]
