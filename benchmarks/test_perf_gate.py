"""Perf smoke gate (tier-2): the CLI's CI entry point stays fast.

Runs ``python -m repro sweep --smoke`` as a real subprocess with a generous
wall-clock budget: the fixed tiny sweep must complete.  Wall time itself is
measured by the repository's one benchmark, ``perfbench/`` (see
``perfbench/README.md``).

Runs under the ``bench`` marker (tier-2) like everything in this tree —
tier-1 never pays for it.  The budget is deliberately loose (shared CI
machines): an outright hang, not jitter, is what it catches.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from _bench import run_once

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Generous ceiling — an outright hang, not jitter, is what it catches.
SMOKE_BUDGET_S = 120


def _run(args: list[str], timeout: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_smoke_sweep_completes(benchmark):
    # Runs under the benchmark fixture so `--benchmark-only` (the documented
    # tier-2 invocation) executes the gate instead of deselecting it.
    result = run_once(benchmark, lambda: _run(["sweep", "--smoke"], SMOKE_BUDGET_S))
    assert result.returncode == 0, result.stderr
    assert "smoke sweep" in result.stdout

