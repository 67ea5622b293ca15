"""Single-Source Shortest Paths: the paper's headline deliverable.

SSSP is CSSP with ``S = {s}`` (Theorem 2.6 / Theorem 1.1, CONGEST half).
This module provides the user-facing API and a result object carrying both
the distances and the measured complexity, so downstream code (examples,
benchmarks, the APSP scheduler) has one handle for everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graphs import Graph, INFINITY
from ..sim import Metrics
from .cssp import DEFAULT_EPS, cssp

__all__ = ["SSSPResult", "sssp", "sssp_distances"]


@dataclass
class SSSPResult:
    """Distances from one source plus the execution's complexity metrics."""

    source: object
    distances: dict
    metrics: Metrics = field(repr=False)

    def distance(self, v: object) -> float:
        return self.distances[v]

    def reachable(self) -> set:
        return {u for u, d in self.distances.items() if d != INFINITY}

    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    @property
    def congestion(self) -> int:
        return self.metrics.max_congestion

    @property
    def messages(self) -> int:
        return self.metrics.total_messages


def sssp(graph: Graph, source: object, *, eps: float = DEFAULT_EPS) -> SSSPResult:
    """Exact single-source shortest paths via the Section 2 recursion.

    Deterministic; ``~O(n)`` rounds; ``~O(m)`` messages; polylog congestion
    per edge (Theorem 2.6).  Nonnegative integer weights.
    """
    distances, metrics = cssp(graph, {source: 0}, eps=eps)
    return SSSPResult(source=source, distances=distances, metrics=metrics)


def sssp_distances(graph: Graph, source: object, *, eps: float = DEFAULT_EPS) -> dict:
    """Distances only, for callers that don't need the metrics."""
    return sssp(graph, source, eps=eps).distances
