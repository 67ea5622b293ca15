"""Cross-module integration: full pipelines agreeing with each other."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from repro.testing import small_weighted_graph, subprocess_env
from repro import graphs, sssp, cssp, run_bellman_ford, run_distributed_dijkstra
from repro.energy import energy_cssp, low_energy_bfs_from_scratch
from repro.graphs import INFINITY
from repro.sim import Metrics

SRC = Path(__file__).parent.parent / "src"


class TestAllAlgorithmsAgree:
    """Every SSSP implementation in the library must produce identical
    distances on the same instance — the strongest cross-check we have."""

    def test_weighted_instance(self):
        g = small_weighted_graph(14, seed=21, max_weight=6)
        reference = g.dijkstra([0])
        assert sssp(g, 0).distances == reference
        assert run_bellman_ford(g, 0) == reference
        assert run_distributed_dijkstra(g, 0) == reference
        d_energy, _ = energy_cssp(g, {0: 0})
        assert d_energy == reference

    def test_unweighted_instance(self):
        g = graphs.grid_graph(4, 5)
        reference = g.hop_distances([0])
        assert sssp(g, 0).distances == reference
        assert run_bellman_ford(g, 0) == reference
        d_scratch, _ = low_energy_bfs_from_scratch(g, {0: 0})
        assert d_scratch == reference


class TestCostHierarchy:
    """The paper's qualitative cost claims, checked as inequalities."""

    def test_cssp_congestion_beats_bellman_ford_on_dense(self):
        g = graphs.random_weights(graphs.complete_graph(16), 9, seed=1)
        m_cssp, m_bf = Metrics(), Metrics()
        cssp(g, {0: 0}, metrics=m_cssp)
        run_bellman_ford(g, 0, metrics=m_bf)
        # Bellman-Ford's per-edge traffic scales with n; the recursion's
        # does not. On K_16 the gap must already be visible per message
        # *per edge* even though absolute constants differ.
        assert m_bf.max_congestion >= 13
        assert m_cssp.max_congestion < m_bf.max_congestion * 8

    def test_dijkstra_slowest_in_time(self):
        g = graphs.random_weights(graphs.path_graph(16), 5, seed=2)
        m_dij, m_bf = Metrics(), Metrics()
        run_distributed_dijkstra(g, 0, metrics=m_dij)
        run_bellman_ford(g, 0, metrics=m_bf)
        assert m_dij.rounds > m_bf.rounds * 3

    def test_energy_bfs_sleeps_naive_does_not(self):
        g = graphs.path_graph(24)
        qm = Metrics()
        low_energy_bfs_from_scratch(g, {0: 0}, query_metrics=qm)
        m_naive = Metrics()
        run_bellman_ford(g, 0, metrics=m_naive)
        naive_awake_fraction = m_naive.max_energy / m_naive.rounds
        energy_awake_fraction = qm.max_energy / qm.rounds
        assert naive_awake_fraction == pytest.approx(1.0, abs=0.1)
        assert energy_awake_fraction < 0.9


class TestEndToEndScenario:
    def test_sensor_network_story(self):
        """The paper's motivating scenario: a battery-powered sensor grid
        computing routes to a gateway with bounded per-node awake time."""
        g = graphs.grid_graph(5, 5)
        gateway = 12  # center node
        dist, cover = low_energy_bfs_from_scratch(g, {gateway: 0})
        assert dist == g.hop_distances([gateway])
        assert len(cover.levels) >= 1

    def test_apsp_routing_tables(self):
        from repro import apsp

        g = small_weighted_graph(10, seed=30, max_weight=4)
        result = apsp(g, seed=7)
        # Routing-table sanity: triangle inequality holds pairwise.
        nodes = list(g.nodes())
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    if INFINITY in (
                        result.distance(a, b), result.distance(b, c),
                        result.distance(a, c),
                    ):
                        continue
                    assert result.distance(a, c) <= (
                        result.distance(a, b) + result.distance(b, c)
                    )


class TestImportFootprint:
    def test_numpy_stays_off_the_import_path(self):
        # Every node step is pure Python; importing numpy would add its
        # start-up time and memory to every CLI call and sweep worker.
        script = (
            "import sys\n"
            "import repro\n"
            "from repro.api import run_sweep_spec, smoke_spec\n"
            "run_sweep_spec(smoke_spec(workers=1))\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_nothing_in_src_imports_the_compatibility_stubs(self):
        # repro.sim.kernels and repro.sim.shm survive only as names the
        # benchmark's tracer patches; no library code may depend on them.
        stubs = {"repro.sim.kernels", "repro.sim.shm"}
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            package = ".".join(path.relative_to(SRC).parent.parts)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package.rsplit(".", node.level - 1)[0] if node.level else ""
                    module = ".".join(filter(None, [base, node.module]))
                    targets = [module] + [f"{module}.{alias.name}" for alias in node.names]
                else:
                    continue
                if stubs.intersection(targets):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert offenders == []

    @pytest.mark.parametrize(
        "module, name", [("kernels", "BatchKernel"), ("shm", "publish_graph")]
    )
    def test_compatibility_stub_holds_only_its_one_name(self, module, name):
        tree = ast.parse((SRC / "repro" / "sim" / f"{module}.py").read_text())
        docstring, *rest = tree.body
        assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
        assert [getattr(node, "name", None) for node in rest] == [name]
