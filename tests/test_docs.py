"""Documentation consistency: the docs reference things that exist."""

import importlib
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


class TestDocsExist:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_present_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 1000, f"{name} looks like a stub"

    def test_design_confirms_paper_identity(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Paper identity confirmed" in text

    def test_experiments_cover_all_recorded_tables(self):
        results = ROOT / "benchmarks" / "results"
        if not results.is_dir():
            pytest.skip("benchmarks not recorded yet")
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for table in results.glob("E*.txt"):
            stem = table.stem.split("_")[0].rstrip("abc")
            assert stem in text, f"{table.stem} not discussed in EXPERIMENTS.md"


class TestDesignModuleReferences:
    def test_referenced_modules_import(self):
        text = (ROOT / "DESIGN.md").read_text()
        for match in set(re.findall(r"`(repro(?:\.\w+)+)`", text)):
            module = match
            attr = None
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                module, _, attr = match.rpartition(".")
                mod = importlib.import_module(module)
                assert hasattr(mod, attr), f"DESIGN.md references missing {match}"


class TestOneBenchmark:
    WORKLOADS = [
        workload["name"]
        for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_ci_runs_a_traced_pass_of_every_declared_workload(self, workload):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        loop = re.search(
            r"for w in ([^;]+); do\s+python perfbench/run\.py --workload \"\$w\" "
            r"--seconds 1 --trace 1\s+done",
            ci,
        )
        assert loop, "CI lost its perfbench step"
        assert workload in loop.group(1).split()


class TestPublicAPIHasDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.graphs",
            "repro.sim",
            "repro.core",
            "repro.baselines",
            "repro.energy",
            "repro.analysis",
        ],
    )
    def test_every_export_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            if name.startswith("__"):
                continue
            obj = getattr(module, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
