"""Pinned benchmark workloads and the ``BENCH.json`` perf tracker.

The experiment benchmarks under ``benchmarks/`` assert *shape* claims and
record tables; this module pins the exact workloads of the fast subset
(E2 CSSP time, E6 low-energy BFS, E8 baseline showdown, plus the CI smoke
sweep) as importable functions so that

* the pytest benchmarks and ``python -m repro bench`` time the *same* code
  paths (numbers stay comparable across harnesses), and
* every PR can refresh ``BENCH.json`` — a flat ``{experiment: median_ms}``
  map — so the perf trajectory is tracked in-repo, PR over PR.

``python -m repro bench`` runs the subset and writes ``BENCH.json``;
``python -m repro bench --quick`` runs one repetition and exits non-zero if
any experiment regressed beyond a factor (default 2x) of the recorded
baseline — the perf smoke gate used by tier-2 CI.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median

from . import graphs, cssp, sssp, run_bellman_ford, run_distributed_dijkstra
from .analysis import fit_power_law
from .energy.covers import build_layered_cover
from .energy.low_energy_bfs import run_low_energy_bfs
from .sim import Metrics

__all__ = [
    "e2_sweep",
    "e6_sweep",
    "e8_sweep",
    "smoke",
    "WORKLOADS",
    "DEFAULT_EXPERIMENTS",
    "run_bench",
    "bench_provenance",
    "write_bench",
    "load_bench",
    "compare_to_baseline",
]

#: Pinned sizes — identical to the benchmarks' sweeps.
E2_SIZES = [16, 24, 32, 48, 64]
E6_SIZES = [16, 32, 64, 128]
E8_SIZES = [16, 24, 32, 48]


# ----------------------------------------------------------------------
# E2 — CSSP time scaling (Thm 2.6)
# ----------------------------------------------------------------------
def e2_measure(family: str, n: int, zero_weights: bool = False):
    g = graphs.make_family(family, n)
    g = graphs.random_weights(g, 9, seed=n, min_weight=0 if zero_weights else 1)
    m = Metrics()
    cssp(g, {next(iter(g.nodes())): 0}, metrics=m)
    return g.num_nodes, m


def e2_sweep():
    rows = []
    fits = {}
    for family in ("path", "grid", "er"):
        ns, rounds = [], []
        for n in E2_SIZES:
            real_n, m = e2_measure(family, n)
            ns.append(real_n)
            rounds.append(m.rounds)
            rows.append([family, real_n, m.rounds, m.total_messages, m.max_congestion])
        fits[family] = fit_power_law(ns, rounds)
    return rows, fits


# ----------------------------------------------------------------------
# E6 — low-energy BFS time/energy on paths (Thms 3.8/3.13)
# ----------------------------------------------------------------------
def e6_measure(n: int) -> dict:
    g = graphs.path_graph(n)
    cover = build_layered_cover(g, n, base=4, stretch=3)
    m = Metrics()
    dist, sched = run_low_energy_bfs(g, cover, {0: 0}, n, metrics=m)
    assert dist == g.hop_distances([0])
    total_roles: dict = {}
    for cov in cover.levels:
        for c in cov.clusters:
            for u in c.tree_parent:
                total_roles[u] = total_roles.get(u, 0) + 1
    max_roles = max(total_roles.values())
    mega_wakes = m.max_energy // sched.omega
    return {
        "n": n,
        "D": n - 1,
        "rounds": m.rounds,
        "sigma": sched.sigma,
        "omega": sched.omega,
        "energy": m.max_energy,
        "mega_wakes": mega_wakes,
        "max_roles": max_roles,
        "wakes_per_role": round(mega_wakes / max_roles, 1),
        "awake_fraction": round(m.max_energy / m.rounds, 3),
    }


def e6_sweep():
    return [e6_measure(n) for n in E6_SIZES]


# ----------------------------------------------------------------------
# E8 — baseline showdown (Section 1.1)
# ----------------------------------------------------------------------
def e8_sweep():
    rows = []
    summary = []
    for n in E8_SIZES:
        g = graphs.random_weights(
            graphs.random_connected_graph(n, extra_edge_prob=4.0 / n, seed=n), 9, seed=n
        )
        res = sssp(g, 0)
        m_bf, m_dij = Metrics(), Metrics()
        run_bellman_ford(g, 0, metrics=m_bf)
        run_distributed_dijkstra(g, 0, metrics=m_dij)
        for name, m in (
            ("cssp-sssp", res.metrics), ("bellman-ford", m_bf), ("dijkstra", m_dij)
        ):
            rows.append([n, name, m.rounds, m.total_messages, m.max_congestion])
        summary.append((n, res.metrics, m_bf, m_dij))
    return rows, summary


def smoke():
    from .sim.experiments import smoke_sweep

    return smoke_sweep()


WORKLOADS = {"E2": e2_sweep, "E6": e6_sweep, "E8": e8_sweep, "smoke": smoke}
DEFAULT_EXPERIMENTS = ("E2", "E6", "E8", "smoke")


# ----------------------------------------------------------------------
# timing + persistence
# ----------------------------------------------------------------------
def run_bench(
    experiments: tuple | list | None = None, repeats: int = 3
) -> dict[str, float]:
    """Time each pinned workload ``repeats`` times; return median ms each."""
    names = list(experiments) if experiments is not None else list(DEFAULT_EXPERIMENTS)
    results: dict[str, float] = {}
    for name in names:
        try:
            workload = WORKLOADS[name]
        except KeyError:
            raise ValueError(
                f"unknown experiment {name!r}; options: {sorted(WORKLOADS)}"
            ) from None
        times = []
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            workload()
            times.append((time.perf_counter() - start) * 1000.0)
        results[name] = round(median(times), 1)
    return results


def bench_provenance() -> dict:
    """Provenance recorded alongside a refreshed baseline (``"_meta"``).

    Answers "what produced these numbers" when a later gate run trips:
    the interpreter, the platform and the package version.  Provenance is
    metadata, never a compared quantity — :func:`compare_to_baseline` only
    looks at numeric entries, so old baselines without it and new ones
    with it gate identically.
    """
    import platform
    import sys

    from . import __version__

    return {
        "engines": ["round", "event"],
        "platform": sys.platform,
        "python": platform.python_version(),
        "version": __version__,
    }


def write_bench(
    results: dict[str, float],
    path: str | Path = "BENCH.json",
    meta: dict | None = None,
) -> Path:
    """Persist ``{experiment: median_ms}`` (the PR-over-PR perf record).

    ``meta`` lands under the ``"_meta"`` key — a non-numeric entry the
    gate comparator skips by construction.
    """
    target = Path(path)
    payload = dict(results)
    if meta is not None:
        payload["_meta"] = meta
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def load_bench(path: str | Path = "BENCH.json") -> dict[str, float] | None:
    """Read a recorded ``BENCH.json``; ``None`` when absent or unreadable."""
    target = Path(path)
    if not target.is_file():
        return None
    try:
        data = json.loads(target.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def compare_to_baseline(
    current: dict[str, float],
    baseline: dict[str, float],
    *,
    factor: float = 2.0,
) -> list[str]:
    """Regression report: experiments slower than ``factor`` x the baseline.

    Returns human-readable violation lines (empty = within budget).  Only
    experiments present in both maps are compared.
    """
    violations = []
    for name, current_ms in sorted(current.items()):
        recorded = baseline.get(name)
        if not isinstance(recorded, (int, float)) or recorded <= 0:
            continue
        if current_ms > factor * recorded:
            violations.append(
                f"{name}: {current_ms:.0f}ms > {factor:g}x recorded {recorded:.0f}ms"
            )
    return violations
