"""Differential tests: the indexed Runner vs the retained reference engine.

Seeded synthetic protocols — gossipy CONGEST traffic and lossy sleeping
schedules — run on random graphs through both :class:`repro.sim.Runner`
(indexed, batched) and :class:`repro.sim.ReferenceRunner` (the original
dict-of-objects implementation).  The two executions must agree on *every*
metric: rounds, messages, lost messages, energy, congestion, and the full
per-edge / per-node counters.

The protocols are deliberately order-insensitive (they aggregate their
inbox, never index into it), because the engines step awake nodes in
different deterministic orders (node-index vs ``repr``-sorted) and the model
makes no promise about mailbox ordering.

The library's own protocols that once also ran as batch kernels are pinned
the same way at the end of the module, against both the reference engine
and the unit-latency event scheduler.
"""

import random

import pytest

from repro import graphs
from repro.baselines.bellman_ford import BellmanFordNode
from repro.core.bfs import WeightedBFS
from repro.core.boruvka import BoruvkaNode
from repro.core.trees import ConvergecastBroadcast, RootedForest, bfs_forest
from repro.energy.labeled_bfs import LabeledBFS
from repro.graphs import INFINITY
from repro.sim import EventRunner, Metrics, Mode, NodeAlgorithm, ReferenceRunner, Runner


class Gossip(NodeAlgorithm):
    """CONGEST chatter: seeded random sends, naps, idles; halts at a horizon.

    Exercises wake-on-message, rescheduling to earlier rounds (stale wake
    entries), idling, and halting mid-conversation.
    """

    def __init__(self, node, seed, horizon=14):
        self.node = node
        self.rng = random.Random(seed * 1_000_003 + node * 7919)
        self.horizon = horizon
        self.heard = 0

    def on_round(self, ctx, inbox):
        self.heard += sum(payload for _, payload in inbox)  # order-insensitive
        if ctx.round >= self.horizon:
            ctx.halt()
            return
        for v in ctx.neighbors:
            if self.rng.random() < 0.35:
                ctx.send(v, (self.node + self.heard + ctx.round) % 97)
        choice = self.rng.random()
        if choice < 0.25:
            ctx.sleep_for(1 + int(choice * 20))
        elif choice < 0.35:
            ctx.idle()
        # else: default — awake again next round


class SleepyBeacon(NodeAlgorithm):
    """Sleeping-model protocol: staggered wake schedules, lossy sends.

    Nodes wake on their own seeded schedule and broadcast to random
    neighbors; whether a message lands depends on the recipient's schedule,
    so this exercises the lost-message accounting of Section 1.2.
    """

    def __init__(self, node, seed, budget=8):
        self.node = node
        self.rng = random.Random(seed * 998_244_353 + node * 104_729)
        self.budget = budget

    def on_round(self, ctx, inbox):
        self.budget -= 1
        if self.budget <= 0:
            ctx.halt()
            return
        for v in ctx.neighbors:
            if self.rng.random() < 0.5:
                ctx.send(v, self.budget)
        ctx.wake_at(ctx.round + 1 + self.rng.randrange(4))


def both_metrics(graph, make_algorithms, mode, **kwargs):
    runs = []
    for engine in (Runner, ReferenceRunner):
        metrics = Metrics()
        engine(graph, make_algorithms(), mode, metrics=metrics, **kwargs).run()
        runs.append(metrics)
    return runs


def assert_identical(new: Metrics, ref: Metrics) -> None:
    assert new.summary() == ref.summary()
    assert new.edge_messages == ref.edge_messages
    assert new.awake_rounds == ref.awake_rounds


@pytest.mark.parametrize("seed", range(8))
def test_congest_parity_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 40)
    g = graphs.random_connected_graph(n, extra_edge_prob=rng.choice([0.0, 0.1, 0.3]), seed=seed)
    new, ref = both_metrics(g, lambda: {u: Gossip(u, seed) for u in g.nodes()}, Mode.CONGEST)
    assert_identical(new, ref)
    assert new.lost_messages == 0  # CONGEST never loses messages


@pytest.mark.parametrize("seed", range(8))
def test_sleeping_parity_on_random_graphs(seed):
    rng = random.Random(1000 + seed)
    n = rng.randrange(5, 40)
    g = graphs.random_connected_graph(n, extra_edge_prob=0.15, seed=seed)
    new, ref = both_metrics(
        g, lambda: {u: SleepyBeacon(u, seed) for u in g.nodes()}, Mode.SLEEPING
    )
    assert_identical(new, ref)
    assert new.lost_messages > 0  # the schedules are staggered enough to lose some


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_megaround_parity(seed):
    g = graphs.random_connected_graph(16, extra_edge_prob=0.2, seed=seed)
    new, ref = both_metrics(
        g,
        lambda: {u: Gossip(u, seed, horizon=9) for u in g.nodes()},
        Mode.CONGEST,
        round_width=3,
        edge_capacity=3,
    )
    assert_identical(new, ref)


def test_parity_on_disconnected_graph():
    g = graphs.random_graph(24, p=0.05, seed=7)  # usually several components
    new, ref = both_metrics(g, lambda: {u: Gossip(u, 7) for u in g.nodes()}, Mode.CONGEST)
    assert_identical(new, ref)


class Chatter(NodeAlgorithm):
    """Broadcast-heavy protocol: exercises the columnar broadcast fast path.

    Every awake round the node broadcasts (sometimes repeatedly, to stress
    ``edge_capacity > 1``), occasionally unicasts on top of the broadcast in
    the same round, and follows a seeded nap schedule so both CONGEST
    wake-on-message and SLEEPING loss accounting are hit.
    """

    def __init__(self, node, seed, horizon=12, extra_sends=0):
        self.node = node
        self.rng = random.Random(seed * 69_061 + node * 50_021)
        self.horizon = horizon
        self.extra_sends = extra_sends
        self.heard = 0

    def on_round(self, ctx, inbox):
        self.heard += sum(payload for _, payload in inbox)  # order-insensitive
        if ctx.round >= self.horizon:
            ctx.halt()
            return
        if self.rng.random() < 0.7:
            ctx.broadcast((self.node + ctx.round) % 89)
        for _ in range(self.extra_sends):
            # A unicast on top of the broadcast meters the same per-port
            # capacity accounting (needs edge_capacity > 1 to be legal).
            v = self.rng.choice(ctx.neighbors) if ctx.neighbors else None
            if v is not None and self.rng.random() < 0.5:
                ctx.send(v, 1)
        choice = self.rng.random()
        if choice < 0.2:
            ctx.sleep_for(1 + int(choice * 15))


class LoopBroadcast(NodeAlgorithm):
    """Same traffic as ``Chatter`` but via per-neighbor ``send`` calls.

    Drives the property test that ``broadcast`` and a send-loop meter
    capacity and metrics identically on the fast engine.
    """

    def __init__(self, node, seed, horizon=12, extra_sends=0):
        self._inner = Chatter(node, seed, horizon, extra_sends)

    @property
    def heard(self):
        return self._inner.heard

    def on_round(self, ctx, inbox):
        inner = self._inner
        inner.heard += sum(payload for _, payload in inbox)
        if ctx.round >= inner.horizon:
            ctx.halt()
            return
        if inner.rng.random() < 0.7:
            payload = (inner.node + ctx.round) % 89
            for v in ctx.neighbors:
                ctx.send(v, payload)
        for _ in range(inner.extra_sends):
            v = inner.rng.choice(ctx.neighbors) if ctx.neighbors else None
            if v is not None and inner.rng.random() < 0.5:
                ctx.send(v, 1)
        choice = inner.rng.random()
        if choice < 0.2:
            ctx.sleep_for(1 + int(choice * 15))


@pytest.mark.parametrize("seed", range(6))
def test_broadcast_congest_parity(seed):
    rng = random.Random(4000 + seed)
    n = rng.randrange(5, 32)
    g = graphs.random_connected_graph(n, extra_edge_prob=rng.choice([0.0, 0.2]), seed=seed)
    new, ref = both_metrics(g, lambda: {u: Chatter(u, seed) for u in g.nodes()}, Mode.CONGEST)
    assert_identical(new, ref)
    assert new.total_messages > 0
    assert new.lost_messages == 0


@pytest.mark.parametrize("seed", range(6))
def test_broadcast_sleeping_parity_with_loss(seed):
    rng = random.Random(5000 + seed)
    n = rng.randrange(6, 32)
    g = graphs.random_connected_graph(n, extra_edge_prob=0.15, seed=seed)
    new, ref = both_metrics(
        g, lambda: {u: Chatter(u, seed) for u in g.nodes()}, Mode.SLEEPING
    )
    assert_identical(new, ref)
    assert new.lost_messages > 0  # staggered naps lose some broadcasts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_broadcast_capacity_gt_one_parity(seed):
    g = graphs.random_connected_graph(14, extra_edge_prob=0.25, seed=seed)
    new, ref = both_metrics(
        g,
        lambda: {u: Chatter(u, seed, extra_sends=2) for u in g.nodes()},
        Mode.CONGEST,
        edge_capacity=3,
    )
    assert_identical(new, ref)


@pytest.mark.parametrize("seed", [0, 1])
def test_broadcast_megaround_parity(seed):
    g = graphs.random_connected_graph(12, extra_edge_prob=0.2, seed=seed)
    new, ref = both_metrics(
        g,
        lambda: {u: Chatter(u, seed, horizon=8, extra_sends=1) for u in g.nodes()},
        Mode.CONGEST,
        round_width=4,
        edge_capacity=4,
    )
    assert_identical(new, ref)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("mode", [Mode.CONGEST, Mode.SLEEPING])
@pytest.mark.parametrize("edge_capacity", [1, 3])
def test_broadcast_equals_send_loop(seed, mode, edge_capacity):
    """Property: broadcast and the equivalent send-loop meter identically.

    Same seeded traffic through ``Chatter`` (broadcast fast path) and
    ``LoopBroadcast`` (per-neighbor sends) on the fast engine must agree on
    every metric *and* on each node's aggregated inbox contents — mixed
    ``send`` + ``broadcast`` rounds included.
    """
    rng = random.Random(7000 + seed)
    n = rng.randrange(5, 26)
    g = graphs.random_connected_graph(n, extra_edge_prob=0.2, seed=seed)
    extra = 1 if edge_capacity > 1 else 0
    results = []
    for make in (Chatter, LoopBroadcast):
        algorithms = {u: make(u, seed, extra_sends=extra) for u in g.nodes()}
        metrics = Metrics()
        Runner(g, algorithms, mode, metrics=metrics, edge_capacity=edge_capacity).run()
        results.append((metrics, {u: algorithms[u].heard for u in g.nodes()}))
    (m_bcast, heard_bcast), (m_loop, heard_loop) = results
    assert_identical(m_bcast, m_loop)
    assert heard_bcast == heard_loop


def test_broadcast_capacity_breach_detected():
    """Two broadcasts in one round breach capacity 1 on both engines."""
    from repro.sim import SimulationError

    class DoubleCast(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            ctx.broadcast("a")
            ctx.broadcast("b")

    g = graphs.path_graph(3)
    for engine in (Runner, ReferenceRunner):
        with pytest.raises(SimulationError, match="capacity"):
            engine(g, {u: DoubleCast() for u in g.nodes()}, Mode.CONGEST).run()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_algorithms_run_under_the_reference_oracle(seed):
    """The oracle must execute the library's actual protocols, not just the
    synthetic differential ones — they read the columnar inbox view."""
    g = graphs.random_weights(
        graphs.random_connected_graph(12, extra_edge_prob=0.2, seed=seed), 7, seed=seed
    )
    source = next(iter(g.nodes()))
    oracle = g.dijkstra([source])
    for make in (
        lambda u: BellmanFordNode(u, u == source, g.num_nodes, send_on_change=False),
        lambda u: WeightedBFS(
            u, g.num_nodes * 7, source_offset=0 if u == source else None
        ),
    ):
        results = []
        for engine in (Runner, ReferenceRunner):
            algorithms = {u: make(u) for u in g.nodes()}
            metrics = Metrics()
            engine(g, algorithms, Mode.CONGEST, metrics=metrics).run()
            results.append((metrics, {u: algorithms[u].dist for u in g.nodes()}))
        (m_new, d_new), (m_ref, d_ref) = results
        assert d_new == d_ref == oracle
        assert_identical(m_new, m_ref)


def test_engine_pool_checkout_does_not_corrupt_live_runner():
    """A runner whose pooled state was checked out by a newer runner must
    rebuild private state instead of leaking into the thief's buffers."""

    class CastOnce(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            if ctx.round == 0:
                ctx.broadcast(1)
            else:
                ctx.halt()

    g = graphs.path_graph(4)
    a = Runner(g, {u: CastOnce() for u in g.nodes()}, Mode.CONGEST)
    baseline = a.run().total_messages  # clean run returns state to the pool
    assert baseline == 6  # one broadcast per node: 2 messages per edge

    # b's __init__ checks the pooled state out and repoints it at b.  A
    # second run of a (stateless algorithms, so semantically a replay) must
    # rebuild its own state rather than metering into b's buffers.
    b = Runner(g, {u: CastOnce() for u in g.nodes()}, Mode.CONGEST)
    a.metrics = Metrics()
    assert a.run().total_messages == baseline
    assert b._bcast_src == [] and b._out_ports == []  # nothing leaked into b
    assert b.run().total_messages == baseline


def test_parity_with_non_integer_labels():
    base = graphs.random_connected_graph(12, seed=3)
    g = graphs.Graph.from_edges(
        ((f"v{u}", f"v{v}", w) for u, v, w in base.edges()),
        nodes=(f"v{u}" for u in base.nodes()),
    )
    index_of = {label: i for i, label in enumerate(g.nodes())}
    new, ref = both_metrics(
        g, lambda: {u: Gossip(index_of[u], 3) for u in g.nodes()}, Mode.CONGEST
    )
    assert_identical(new, ref)


# -- the library protocols that once had batch kernels ---------------------
#
# Labeled BFS, weighted BFS, Bellman-Ford, Boruvka and the convergecast were
# each also run by a vectorized batch kernel, whose parity with the scalar
# ``on_round`` step cross-checked that step.  The scalar step is now the
# only one, so each protocol is pinned here to the independent reference
# engine (and to the unit-latency event scheduler) on three graph shapes:
# random weights, a unit-weight grid full of distance ties, and a weighted
# graph with two components.  Outputs are compared only where the protocol
# defines them independently of mailbox order (distances and winning
# labels, not which of several tied senders became the parent).


def _two_component_graph(seed):
    tree = graphs.random_tree(7, seed=seed)
    edges = [(u, v, 1) for u, v, _ in tree.edges()]
    edges += [(7 + i, 7 + (i + 1) % 5, 1) for i in range(5)]
    return graphs.random_weights(graphs.Graph.from_edges(edges), 5, seed=seed)


GRAPH_SHAPES = {
    "er": lambda: graphs.random_weights(
        graphs.random_connected_graph(14, extra_edge_prob=0.25, seed=4), 7, seed=4
    ),
    "grid": lambda: graphs.grid_graph(4, 4),
    "two-components": lambda: _two_component_graph(5),
}


def _dists(algorithms):
    return {u: a.dist for u, a in algorithms.items()}


def _weighted_bfs(g):
    source = min(g.nodes())
    exact = g.dijkstra([source])
    tau = max(d for d in exact.values() if d != INFINITY) // 2 + 1  # thresholded
    expected = {u: d if d <= tau else INFINITY for u, d in exact.items()}
    return (
        lambda: {
            u: WeightedBFS(u, tau, source_offset=0 if u == source else None, collect_parent=True)
            for u in g.nodes()
        },
        _dists,
        expected.__eq__,
    )


def _labeled_bfs(g):
    nodes = sorted(g.nodes())
    labels = {nodes[0]: "a", nodes[len(nodes) // 2]: "b", nodes[-1]: "c"}
    tau = g.num_nodes * g.max_weight()
    per_source = {s: g.dijkstra([s]) for s in labels}
    expected = {}
    for u in g.nodes():
        dist = min(per_source[s][u] for s in labels)
        winners = [labels[s] for s in labels if per_source[s][u] == dist != INFINITY]
        expected[u] = (dist, min(winners, default=None))
    return (
        lambda: {u: LabeledBFS(u, tau, source_label=labels.get(u)) for u in g.nodes()},
        lambda algorithms: {u: (a.dist, a.label) for u, a in algorithms.items()},
        expected.__eq__,
    )


def _bellman_ford(send_on_change):
    def protocol(g):
        source = min(g.nodes())
        return (
            lambda: {
                u: BellmanFordNode(u, u == source, g.num_nodes, send_on_change=send_on_change)
                for u in g.nodes()
            },
            _dists,
            g.dijkstra([source]).__eq__,
        )

    return protocol


def _boruvka(g):
    def spans(parent):
        RootedForest(parent).validate_against(g)
        return True

    return (
        lambda: {u: BoruvkaNode(u, g.num_nodes) for u in g.nodes()},
        lambda algorithms: {u: a.parent for u, a in algorithms.items()},
        spans,
    )


def _convergecast(g):
    forest = bfs_forest(g)
    values = {u: 3 * i + 1 for i, u in enumerate(sorted(g.nodes()))}
    tree_sum = {
        u: sum(values[v] for v in members)
        for members in forest.components().values()
        for u in members
    }
    return (
        lambda: {u: ConvergecastBroadcast(forest, u, values[u], sum) for u in g.nodes()},
        lambda algorithms: {u: a.result for u, a in algorithms.items()},
        tree_sum.__eq__,
    )


PROTOCOLS = {
    "weighted-bfs": _weighted_bfs,
    "labeled-bfs": _labeled_bfs,
    "bellman-ford": _bellman_ford(send_on_change=False),
    "bellman-ford-on-change": _bellman_ford(send_on_change=True),
    "boruvka": _boruvka,
    "convergecast": _convergecast,
}


def _run_protocol(engine, protocol, shape):
    g = GRAPH_SHAPES[shape]()
    make, read, correct = PROTOCOLS[protocol](g)
    algorithms = make()
    metrics = Metrics()
    engine(g, algorithms, Mode.CONGEST, metrics=metrics).run()
    out = read(algorithms)
    assert correct(out), f"{protocol} on {shape} under {engine.__name__}"
    return out, metrics


@pytest.mark.parametrize("shape", list(GRAPH_SHAPES))
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_formerly_batched_protocols_match_the_reference_engine(protocol, shape):
    out, metrics = _run_protocol(Runner, protocol, shape)
    ref_out, ref_metrics = _run_protocol(ReferenceRunner, protocol, shape)
    assert out == ref_out
    assert_identical(metrics, ref_metrics)


@pytest.mark.parametrize("shape", list(GRAPH_SHAPES))
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_formerly_batched_protocols_match_under_the_event_scheduler(protocol, shape):
    out, metrics = _run_protocol(Runner, protocol, shape)
    event_out, event_metrics = _run_protocol(EventRunner, protocol, shape)
    assert out == event_out
    assert_identical(metrics, event_metrics)
