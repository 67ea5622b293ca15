"""Distributed Bellman-Ford — the classic baseline the paper argues against.

Section 1.1: "a major drawback is that this algorithm relaxes each edge in
each round, and thus has message complexity ``Theta(mn)`` and ``Omega(n)``
congestion".  We implement exactly that naive variant (every node re-sends
its estimate to every neighbor every round for ``n`` rounds), plus the folk
*send-on-change* optimization as an ablation, so experiment E8 can show both
the time optimality (``O(n)`` rounds) and the congestion blow-up that makes
concurrent instances (APSP) infeasible.
"""

from __future__ import annotations

from ..graphs import Graph, INFINITY
from ..sim import (
    Context,
    Metrics,
    Mode,
    NodeAlgorithm,
    fault_horizon_factor,
    latency_bound,
    make_runner,
)

__all__ = ["BellmanFordNode", "run_bellman_ford"]


class BellmanFordNode(NodeAlgorithm):
    """One node's Bellman-Ford role: relax every incident edge every round."""

    def __init__(
        self, node: object, is_source: bool, horizon: int, *, send_on_change: bool
    ) -> None:
        self.node = node
        self.dist: float = 0 if is_source else INFINITY
        self.horizon = horizon
        self.send_on_change = send_on_change
        self._changed = True  # sources must announce in round 0
        self._weight_of: dict | None = None

    def on_round(self, ctx: Context, inbox: list[tuple[object, object]]) -> None:
        # The relaxation loop runs once per received message for n rounds —
        # cache the neighbor->weight map out of it (one bulk read per node).
        if inbox.senders:
            weight_of = self._weight_of
            if weight_of is None:
                weight_of = self._weight_of = dict(zip(ctx.neighbors, ctx.edge_weights))
            dist = self.dist
            for sender, estimate in zip(inbox.senders, inbox.payloads):
                candidate = estimate + weight_of[sender]
                if candidate < dist:
                    dist = candidate
                    self._changed = True
            self.dist = dist
        if ctx.round >= self.horizon:
            ctx.halt()
            return
        should_send = self.dist != INFINITY and (self._changed or not self.send_on_change)
        if should_send:
            ctx.broadcast(self.dist)
            self._changed = False
        if self.send_on_change and not should_send:
            # Optimized variant: sleep until something arrives or the end.
            ctx.wake_at(self.horizon)


def run_bellman_ford(
    graph: Graph,
    source: object,
    *,
    metrics: Metrics | None = None,
    send_on_change: bool = False,
) -> dict:
    """Distances from ``source`` by distributed Bellman-Ford.

    ``send_on_change=False`` is the paper's ``Theta(mn)``-message baseline;
    ``True`` is the folk optimization (same worst case, better in practice).
    The horizon is ``n`` rounds — enough for any shortest path (at most
    ``n - 1`` edges), and all nodes know ``n``.  Under an asynchronous
    engine it scales by the latency bound: an estimate needs at most
    ``L`` time units per hop, so ``n * L`` covers every path.  That makes
    Bellman-Ford *delay-tolerant* — it converges to correct distances
    under any per-edge latency model (relaxation is monotone; timing only
    changes when estimates improve, not what they converge to).  The same
    monotonicity makes it *fault-tolerant*: every node with a finite
    estimate re-broadcasts each round, so a dropped message retries next
    round and a restarted node relearns from its neighbors — the horizon
    scales by :func:`~repro.sim.fault_horizon_factor` to leave room.
    """
    horizon = graph.num_nodes * latency_bound() * fault_horizon_factor()
    algorithms = {
        u: BellmanFordNode(u, u == source, horizon, send_on_change=send_on_change)
        for u in graph.nodes()
    }
    runner = make_runner(graph, algorithms, Mode.CONGEST, metrics=metrics)
    runner.run()
    return {u: algorithms[u].dist for u in graph.nodes()}
