"""Distributed (weighted) BFS: thresholded closest-source shortest paths.

This is the primitive the whole paper is built from.  In a graph with
positive integer weights whose maximum source-to-node distance is bounded by
a threshold ``tau``, one can compute ``dist(S, v)`` by the classic
*wait-``t``-rounds-on-a-weight-``t``-edge* BFS (Section 2.1.1): the global
round counter doubles as a distance ruler.  A node that finalizes distance
``d`` does so exactly at round ``d`` and immediately offers ``d + w(u, v)``
to each neighbor ``v``; a node finalizes when the round counter reaches its
smallest received offer.  Each edge carries at most one message per
direction in the whole execution — congestion ``O(1)`` — and the run takes
``tau + 1`` rounds.

Generalizations needed by the CSSP recursion:

* **Multi-source with offsets** — sources carry initial distances
  ``delta_s >= 0`` and the output is ``min_s (delta_s + dist(s, v))``.  The
  recursion's "imaginary cut nodes" ``x_vu`` (Section 2.3, step 5) become
  offsets on the real node ``u``: ``u`` simulates ``x_vu`` exactly as the
  paper prescribes, so no virtual node ever appears in the network.
* **Thresholding** — nodes whose distance exceeds ``tau`` output infinity
  (Definition 2.3); everyone halts by round ``tau + 1``.

The unweighted BFS of Section 3 is the special case of unit weights.
"""

from __future__ import annotations

from ..graphs import Graph, INFINITY
from ..sim import Context, Metrics, Mode, NodeAlgorithm, make_runner

__all__ = ["WeightedBFS", "run_weighted_bfs", "run_bfs"]


class WeightedBFS(NodeAlgorithm):
    """One node's role in the thresholded multi-source weighted BFS.

    Parameters
    ----------
    node:
        This node's id.
    threshold:
        The distance bound ``tau``; distances above it come out as infinity.
    source_offset:
        ``None`` for non-sources; otherwise the source's initial distance
        (0 for an ordinary source).
    collect_parent:
        If true, remember which neighbor supplied the winning offer — this
        yields a shortest-path forest on top of the distances.

    After the run, ``self.dist`` holds the finalized distance (or
    ``INFINITY``) and ``self.parent`` the predecessor on a shortest path
    (``None`` for sources/unreached nodes).
    """

    def __init__(
        self,
        node: object,
        threshold: int,
        source_offset: int | None = None,
        *,
        collect_parent: bool = False,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if source_offset is not None and source_offset < 0:
            raise ValueError(f"source offset must be >= 0, got {source_offset}")
        self.node = node
        self.threshold = threshold
        self.dist: float = INFINITY
        self.parent: object = None
        self.collect_parent = collect_parent
        self._best: float = INFINITY if source_offset is None else source_offset
        self._best_from: object = None
        self._finalized = False

    def on_round(self, ctx: Context, inbox: list[tuple[object, object]]) -> None:
        if self._finalized:
            ctx.halt()
            return
        if inbox.senders:
            for sender, offer in zip(inbox.senders, inbox.payloads):
                if offer < self._best:
                    self._best = offer
                    self._best_from = sender
        r = ctx.round
        if self._best <= r and self._best <= self.threshold:
            # The round ruler has reached our smallest offer: no shorter
            # path can exist (any better offer would have arrived earlier).
            # In CONGEST the equality _best == r holds exactly; the <= only
            # fires under sleeping-model misuse (see the negative-control
            # tests), where it degrades to a best-effort value instead of
            # crashing on a stale wake.
            self.dist = self._best
            if self.collect_parent:
                self.parent = self._best_from
            self._finalized = True
            dist = self.dist
            threshold = self.threshold
            for v, w in zip(ctx.neighbors, ctx.edge_weights):
                offer = dist + w
                if offer <= threshold:
                    ctx.send(v, offer)
            ctx.halt()
            return
        if self._best <= self.threshold:
            ctx.wake_at(self._best)
            return
        if r <= self.threshold:
            # Nothing pending within the threshold: give up at tau + 1 so
            # the round count honestly reflects the Theta(tau) running time
            # the paper charges for a thresholded BFS.
            ctx.wake_at(self.threshold + 1)
            return
        # Past the threshold with no offer in range: unreachable within tau.
        self.dist = INFINITY
        ctx.halt()


def run_weighted_bfs(
    graph: Graph,
    sources: dict,
    threshold: int,
    *,
    metrics: Metrics | None = None,
    collect_parents: bool = False,
) -> dict:
    """Run the thresholded multi-source weighted BFS over ``graph``.

    ``sources`` maps source node -> integer offset (use 0 for plain
    sources).  Returns node -> distance (``INFINITY`` beyond ``threshold``).
    Edge weights must be strictly positive (weight-0 edges are handled one
    level up, by contraction — Theorem 2.7).
    """
    if graph.num_edges and graph.min_weight() <= 0:
        u, v, w = next((u, v, w) for u, v, w in graph.edges() if w <= 0)
        raise ValueError(
            f"weighted BFS needs positive weights; edge {u!r}-{v!r} has {w}"
        )
    for s, offset in sources.items():
        if s not in graph:
            raise KeyError(f"source {s!r} not in graph")
        if offset < 0 or int(offset) != offset:
            raise ValueError(f"offset of {s!r} must be a nonnegative integer, got {offset}")
    algorithms = {
        u: WeightedBFS(
            u,
            threshold,
            source_offset=sources.get(u),
            collect_parent=collect_parents,
        )
        for u in graph.nodes()
    }
    runner = make_runner(graph, algorithms, Mode.CONGEST, metrics=metrics)
    runner.run()
    return {u: algorithms[u].dist for u in graph.nodes()}


def run_bfs(
    graph: Graph,
    sources: list | set | tuple,
    threshold: int | None = None,
    *,
    metrics: Metrics | None = None,
) -> dict:
    """Unweighted (hop-count) BFS: unit weights, plain sources.

    ``threshold`` defaults to ``n`` (no thresholding in effect).
    """
    # Skip the copy when the graph is already unit-weighted — the cached
    # indexed view then carries over to the runner.
    if graph.num_edges and graph.min_weight() == 1 and graph.max_weight() == 1:
        hop_graph = graph
    else:
        hop_graph = graph.reweighted(lambda _w: 1)
    tau = threshold if threshold is not None else graph.num_nodes
    return run_weighted_bfs(hop_graph, {s: 0 for s in sources}, tau, metrics=metrics)
