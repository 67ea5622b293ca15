"""Labeled multi-source BFS: "which cluster is nearest, and how far?"

The decomposition growth steps (Theorem 3.10) and the cover expansion
(Theorem 3.11) both need a depth-``k`` BFS *from every active cluster at
once*, where each node learns the nearest cluster's label, its distance to
it, and a parent pointer back toward it.  Distances are weighted (the
energy-model CSSP of Section 3.7 grows covers by weighted radii; unit
weights recover the unweighted Section 3.3 case).

Ties break toward the smallest label key, deterministically, so the whole
construction is deterministic as the paper requires.  Each edge carries at
most one offer per direction (congestion ``O(1)`` per step).
"""

from __future__ import annotations

from ..graphs import Graph, INFINITY
from ..sim import Context, Metrics, Mode, NodeAlgorithm, make_runner

__all__ = ["LabeledBFS", "run_labeled_bfs"]


class LabeledBFS(NodeAlgorithm):
    """One node's role in the nearest-labeled-source weighted BFS.

    Offers are ``(distance, label_key, label, hops)``; a node finalizes the
    lexicographically smallest ``(distance, label_key)`` it can realize when
    the round ruler reaches that distance, exactly like
    :class:`repro.core.bfs.WeightedBFS` but carrying the winning label.
    ``self.dist``, ``self.label`` and ``self.parent`` hold the result.
    """

    def __init__(self, node: object, threshold: int, source_label: object = None) -> None:
        self.node = node
        self.threshold = threshold
        self.dist: float = INFINITY
        self.label: object = None
        self.parent: object = None
        self.hops: int = 0
        self._finalized = False
        if source_label is not None:
            self._best: tuple | None = (0, repr(source_label), source_label, None, 0)
        else:
            self._best = None

    def on_round(self, ctx: Context, inbox: list[tuple[object, object]]) -> None:
        if self._finalized:
            ctx.halt()
            return
        if inbox.senders:
            best = self._best
            for sender, (dist, key, label, hops) in zip(inbox.senders, inbox.payloads):
                if best is None or dist < best[0] or (dist == best[0] and key < best[1]):
                    best = (dist, key, label, sender, hops)
            self._best = best
        r = ctx.round
        if self._best is not None and self._best[0] == r and r <= self.threshold:
            dist, key, label, parent, hops = self._best
            self.dist = dist
            self.label = label
            self.parent = parent
            self.hops = hops
            self._finalized = True
            threshold = self.threshold
            payload_hops = hops + 1
            for v, w in zip(ctx.neighbors, ctx.edge_weights):
                offer = dist + w
                if offer <= threshold:
                    ctx.send(v, (offer, key, label, payload_hops))
            ctx.halt()
            return
        if self._best is not None and self._best[0] <= self.threshold:
            ctx.wake_at(self._best[0])
            return
        if r <= self.threshold:
            ctx.wake_at(self.threshold + 1)
            return
        ctx.halt()


def run_labeled_bfs(
    graph: Graph,
    source_labels: dict,
    threshold: int,
    *,
    metrics: Metrics | None = None,
) -> dict:
    """Run the labeled BFS; returns node -> (dist, label, parent, hops).

    ``source_labels`` maps source node -> its cluster label.  Nodes beyond
    ``threshold`` (weighted distance) come back with ``dist == INFINITY``
    and ``label is None``.
    """
    algorithms = {
        u: LabeledBFS(u, threshold, source_label=source_labels.get(u))
        for u in graph.nodes()
    }
    make_runner(graph, algorithms, Mode.CONGEST, metrics=metrics).run()
    return {
        u: (algorithms[u].dist, algorithms[u].label, algorithms[u].parent, algorithms[u].hops)
        for u in graph.nodes()
    }
