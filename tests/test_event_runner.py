"""Unit tests for the event-driven core (:mod:`repro.sim.events`).

Covers the latency-model grammar and determinism, the engine-selection
context, EventRunner's unit-latency parity with the synchronous Runner on
synthetic protocols (CONGEST, sleeping, megarounds, capacity > 1), its
asynchronous behaviors (delay stretching, wake-on-message under latency,
per-edge tables), and the new stopping conditions.
"""

import random

import pytest

from repro import graphs
from repro.sim import (
    Context,
    EdgeTableLatency,
    EventRunner,
    Metrics,
    Mode,
    NodeAlgorithm,
    RandomDelayLatency,
    Runner,
    SimulationError,
    TracingMetrics,
    UniformLatency,
    canonical_latency,
    current_engine,
    latency_bound,
    make_runner,
    parse_latency_model,
    simulation_engine,
)
from repro.graphs.indexed import IndexedGraph


class Gossip(NodeAlgorithm):
    """Seeded CONGEST chatter: sends, naps, idles, halts (order-insensitive)."""

    def __init__(self, node, seed, horizon=14):
        self.node = node
        self.rng = random.Random(seed * 1_000_003 + node * 7919)
        self.horizon = horizon
        self.heard = 0

    def on_round(self, ctx, inbox):
        self.heard += sum(payload for _, payload in inbox)
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


class SleepyBeacon(NodeAlgorithm):
    """Sleeping-model traffic on staggered seeded schedules (lossy)."""

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


class Broadcaster(NodeAlgorithm):
    """Broadcast-heavy chatter (exercises the bcast delivery plane)."""

    def __init__(self, node, seed, horizon=10):
        self.node = node
        self.rng = random.Random(seed * 31 + node)
        self.horizon = horizon
        self.heard = 0

    def on_round(self, ctx, inbox):
        self.heard += len(inbox)
        if ctx.round >= self.horizon:
            ctx.halt()
            return
        if self.rng.random() < 0.6:
            ctx.broadcast(self.node)


def run_both(graph, make_algorithms, mode, metrics_type=Metrics, **kwargs):
    """The same protocol through Runner and unit-latency EventRunner."""
    out = []
    for engine in (Runner, EventRunner):
        metrics = metrics_type()
        engine(graph, make_algorithms(), mode, metrics=metrics, **kwargs).run()
        out.append(metrics)
    return out


#: Extra ``run_both`` inputs: the fault plane and the time-resolved
#: metering fold (metric subclasses) on top of a plain run.
VARIANTS = {
    "drop": {"faults": "drop:0.2"},
    "dup": {"faults": "dup:0.2"},
    "crash-restart": {"faults": "crash:2@1+restart:2"},
    "traced": {"metrics_type": TracingMetrics},
    "traced-faulted": {
        "metrics_type": TracingMetrics,
        "faults": "drop:0.1+dup:0.1+crash:2@1+restart:2",
    },
}


#: The same extras under the sleeping model, for CONGEST protocols.
SLEEPING_VARIANTS = {
    f"sleeping-{name}": {"mode": Mode.SLEEPING, **extra}
    for name, extra in {"plain": {}, **VARIANTS}.items()
}


def parity_inputs(seeds, variants=VARIANTS, variant_seeds=(0, 1)):
    """``(seed, extra)`` inputs: every seed plain, then each variant."""
    cases = [pytest.param(seed, {}, id=str(seed)) for seed in seeds]
    for seed in variant_seeds:
        for name, extra in variants.items():
            cases.append(pytest.param(seed, extra, id=f"{seed}-{name}"))
    return cases


def assert_identical(sync: Metrics, event: Metrics) -> None:
    # to_dict() is the serialized store payload — byte-level equivalence,
    # current_round included.
    assert sync.to_dict() == event.to_dict()


# ----------------------------------------------------------------------
# latency models
# ----------------------------------------------------------------------
class TestLatencyModels:
    def test_parse_grammar(self):
        assert parse_latency_model("unit").name == "unit"
        assert parse_latency_model("sync").name == "unit"
        assert parse_latency_model("uniform").name == "unit"
        assert parse_latency_model("uniform:1").name == "unit"
        assert parse_latency_model("random:1").name == "unit"
        assert parse_latency_model("uniform:3").name == "uniform:3"
        assert parse_latency_model("random:4", seed=2).name == "random:4"
        model = UniformLatency(5)
        assert parse_latency_model(model) is model

    def test_parse_rejects_garbage(self):
        for bad in ("fast", "uniform:x", "random:0", "uniform:-1", "", 3):
            with pytest.raises(ValueError):
                parse_latency_model(bad)

    def test_parse_errors_name_the_offending_text(self):
        with pytest.raises(
            ValueError, match=r"expected an integer bound after 'uniform:', got 'x'"
        ):
            parse_latency_model("uniform:x")
        with pytest.raises(
            ValueError, match=r"expected an integer bound after 'random:', got ''"
        ):
            parse_latency_model("random:")
        with pytest.raises(ValueError, match=r"unknown kind 'bogus' before ':'"):
            parse_latency_model("bogus:3")

    def test_canonical_latency(self):
        assert canonical_latency("sync") == "unit"
        assert canonical_latency("uniform:1") == "unit"
        assert canonical_latency("random:1") == "unit"
        assert canonical_latency("uniform:7") == "uniform:7"

    def test_uniform_bounds_and_table(self):
        g = IndexedGraph.of(graphs.path_graph(4))
        model = UniformLatency(3)
        assert model.bound == 3
        assert model.port_delays(g) == [3] * len(g.nbr)

    def test_random_delay_deterministic_and_symmetric(self):
        g = IndexedGraph.of(graphs.random_connected_graph(12, extra_edge_prob=0.3, seed=5))
        model = RandomDelayLatency(4, seed=9)
        delays = model.port_delays(g)
        assert delays == RandomDelayLatency(4, seed=9).port_delays(g)
        assert all(1 <= d <= 4 for d in delays)
        assert len(set(delays)) > 1  # actually heterogeneous on 12+ edges
        # Symmetric per undirected edge: u->v and v->u draw the same delay.
        for i in range(g.num_nodes):
            u = g.labels[i]
            for k in range(g.indptr[i], g.indptr[i + 1]):
                v = g.labels[g.nbr[k]]
                assert model.edge_delay(u, v) == model.edge_delay(v, u)
                assert delays[k] == model.edge_delay(u, v)

    def test_random_delay_seed_sensitivity(self):
        g = IndexedGraph.of(graphs.random_connected_graph(16, extra_edge_prob=0.3, seed=1))
        a = RandomDelayLatency(4, seed=0).port_delays(g)
        b = RandomDelayLatency(4, seed=1).port_delays(g)
        assert a != b

    def test_edge_table_latency(self):
        g = IndexedGraph.of(graphs.path_graph(3))
        model = EdgeTableLatency({(0, 1): 5}, default=2)
        assert model.bound == 5
        assert model.edge_delay(0, 1) == 5
        assert model.edge_delay(1, 0) == 5  # symmetric fallback
        assert model.edge_delay(1, 2) == 2  # default
        delays = model.port_delays(g)
        assert sorted(delays) == [2, 2, 5, 5]

    def test_edge_table_rejects_bad_delays(self):
        with pytest.raises(ValueError):
            EdgeTableLatency({(0, 1): 0})
        with pytest.raises(ValueError):
            EdgeTableLatency({}, default=-1)


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
class TestEngineContext:
    def test_default_is_synchronous(self):
        assert current_engine() is None
        assert latency_bound() == 1
        g = graphs.path_graph(3)
        runner = make_runner(g, {u: Gossip(u, 0, horizon=2) for u in g.nodes()})
        assert type(runner) is Runner

    def test_event_context_dispatches(self):
        g = graphs.path_graph(3)
        with simulation_engine("event", "uniform:3"):
            assert latency_bound() == 3
            runner = make_runner(g, {u: Gossip(u, 0, horizon=2) for u in g.nodes()})
            assert type(runner) is EventRunner
            assert runner.latency.name == "uniform:3"
        assert current_engine() is None

    def test_contexts_nest(self):
        with simulation_engine("event", "uniform:2"):
            with simulation_engine("round"):
                assert latency_bound() == 1
                assert current_engine().engine == "round"
            assert latency_bound() == 2

    def test_round_engine_rejects_latency(self):
        with pytest.raises(ValueError):
            with simulation_engine("round", "uniform:2"):
                pass

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            with simulation_engine("warp"):
                pass


# ----------------------------------------------------------------------
# unit-latency differential parity (the equivalence guarantee)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_congest_parity(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 32)
    g = graphs.random_connected_graph(n, extra_edge_prob=rng.choice([0.0, 0.2]), seed=seed)
    sync, event = run_both(g, lambda: {u: Gossip(u, seed) for u in g.nodes()}, Mode.CONGEST)
    assert_identical(sync, event)


@pytest.mark.parametrize("seed, extra", parity_inputs(range(6), variant_seeds=(2, 3)))
def test_sleeping_parity(seed, extra):
    g = graphs.random_connected_graph(5 + seed * 4, extra_edge_prob=0.15, seed=seed)
    sync, event = run_both(
        g, lambda: {u: SleepyBeacon(u, seed) for u in g.nodes()}, Mode.SLEEPING,
        **extra,
    )
    assert_identical(sync, event)
    assert event.lost_messages > 0


@pytest.mark.parametrize(
    "seed, extra", parity_inputs([0, 1, 2], {**VARIANTS, **SLEEPING_VARIANTS})
)
def test_broadcast_parity(seed, extra):
    g = graphs.random_connected_graph(18, extra_edge_prob=0.25, seed=seed)
    sync, event = run_both(
        g, lambda: {u: Broadcaster(u, seed) for u in g.nodes()},
        **{"mode": Mode.CONGEST, **extra},
    )
    assert_identical(sync, event)


@pytest.mark.parametrize("seed, extra", parity_inputs([0, 1]))
def test_megaround_parity(seed, extra):
    g = graphs.random_connected_graph(14, extra_edge_prob=0.2, seed=seed)
    sync, event = run_both(
        g,
        lambda: {u: Gossip(u, seed, horizon=9) for u in g.nodes()},
        Mode.CONGEST,
        round_width=3,
        edge_capacity=3,
        **extra,
    )
    assert_identical(sync, event)


def test_tracing_metrics_parity():
    # The time-resolved fold (metric subclasses) must agree too —
    # current_round stamping and the (edge, round) timelines included.
    g = graphs.random_connected_graph(12, extra_edge_prob=0.2, seed=3)
    out = []
    for engine in (Runner, EventRunner):
        t = TracingMetrics()
        engine(g, {u: Gossip(u, 3) for u in g.nodes()}, Mode.CONGEST, metrics=t).run()
        out.append(t)
    sync, event = out
    assert sync.to_dict() == event.to_dict()
    assert sync.messages_by_round == event.messages_by_round
    assert sync.awake_by_round == event.awake_by_round
    assert sync.edge_timeline == event.edge_timeline


def test_parity_on_disconnected_graph():
    g = graphs.random_graph(20, p=0.05, seed=7)
    sync, event = run_both(g, lambda: {u: Gossip(u, 7) for u in g.nodes()}, Mode.CONGEST)
    assert_identical(sync, event)


def test_empty_graph():
    g = graphs.Graph()
    metrics = EventRunner(g, {}, Mode.CONGEST).run()
    assert metrics.rounds == 0


# ----------------------------------------------------------------------
# asynchronous behaviors
# ----------------------------------------------------------------------
class FloodOnce(NodeAlgorithm):
    """Node 0 broadcasts at time 0; everyone records first-arrival time."""

    def __init__(self, node):
        self.node = node
        self.arrival = 0 if node == 0 else None

    def on_round(self, ctx, inbox):
        if inbox and self.arrival is None:
            self.arrival = ctx.round
        if ctx.round == 0 and self.node == 0:
            ctx.broadcast("wave")
        if self.arrival is not None and ctx.round > 0:
            ctx.halt()
            return
        ctx.idle()  # wake-on-message


def test_uniform_delay_stretches_time():
    g = graphs.path_graph(4)
    algorithms = {u: FloodOnce(u) for u in g.nodes()}

    class Relay(FloodOnce):
        def on_round(self, ctx, inbox):
            if inbox and self.arrival is None:
                self.arrival = ctx.round
                ctx.broadcast("wave")  # relay onward
            super().on_round(ctx, inbox)

    algorithms = {u: Relay(u) for u in g.nodes()}
    runner = EventRunner(g, algorithms, Mode.CONGEST, latency=UniformLatency(3))
    runner.run()
    # Hop h hears the wave at time 3 * h: wake-on-message under latency.
    assert [algorithms[u].arrival for u in g.nodes()] == [0, 3, 6, 9]


def test_edge_table_delays_shape_arrivals():
    g = graphs.Graph()
    for edge in ((0, 1), (0, 2)):
        g.add_edge(*edge)
    algorithms = {u: FloodOnce(u) for u in g.nodes()}
    latency = EdgeTableLatency({(0, 1): 7}, default=2)
    EventRunner(g, algorithms, Mode.CONGEST, latency=latency).run()
    assert algorithms[1].arrival == 7
    assert algorithms[2].arrival == 2


def test_sleeping_delivery_decided_at_send_time():
    # Under SLEEPING semantics a delayed message is delivered iff the
    # receiver was awake at the *send* time — schedule a receiver awake at
    # the send time but asleep at the arrival time.
    g = graphs.path_graph(2)

    class Sender(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            if ctx.round == 0:
                ctx.send(1, "hello")
                ctx.halt()

    class Receiver(NodeAlgorithm):
        def __init__(self):
            self.got = []

        def on_round(self, ctx, inbox):
            self.got.extend(inbox)
            if ctx.round >= 10:
                ctx.halt()
                return
            ctx.wake_at(10)  # awake at 0, then asleep until long after arrival

    receiver = Receiver()
    metrics = EventRunner(
        g, {0: Sender(), 1: receiver}, Mode.SLEEPING, latency=UniformLatency(4)
    ).run()
    assert metrics.lost_messages == 0  # receiver was awake at send time 0
    assert receiver.got == [(0, "hello")]  # read at its own wake, time 10


def test_sleeping_loss_when_asleep_at_send_time():
    g = graphs.path_graph(2)

    class Sender(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            if ctx.round == 0:
                ctx.sleep_for(1)
                return
            ctx.send(1, "late")  # round 1: receiver sleeps
            ctx.halt()

    class Napper(NodeAlgorithm):
        def __init__(self):
            self.got = []

        def on_round(self, ctx, inbox):
            self.got.extend(inbox)
            if ctx.round >= 5:
                ctx.halt()
                return
            ctx.wake_at(5)

    napper = Napper()
    metrics = EventRunner(
        g, {0: Sender(), 1: napper}, Mode.SLEEPING, latency=UniformLatency(2)
    ).run()
    assert metrics.lost_messages == 1
    assert napper.got == []


def test_capacity_is_per_send_time():
    g = graphs.path_graph(2)

    class DoubleSend(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            ctx.send(1, "a")
            ctx.send(1, "b")
            ctx.halt()

    class Quiet(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            ctx.idle()

    with pytest.raises(SimulationError):
        EventRunner(g, {0: DoubleSend(), 1: Quiet()}, Mode.CONGEST).run()
    # capacity 2 admits both
    EventRunner(g, {0: DoubleSend(), 1: Quiet()}, Mode.CONGEST, edge_capacity=2).run()


# ----------------------------------------------------------------------
# stopping conditions
# ----------------------------------------------------------------------
class Ticker(NodeAlgorithm):
    """Pings its neighbors forever (never halts on its own)."""

    def on_round(self, ctx, inbox):
        ctx.broadcast("tick")


def test_max_time_stops_gracefully():
    g = graphs.path_graph(3)
    runner = EventRunner(
        g, {u: Ticker() for u in g.nodes()}, Mode.CONGEST, max_time=20
    )
    metrics = runner.run()
    assert runner.stop_reason == "max_time"
    assert metrics.rounds == 21  # steps at times 0..20 inclusive


def test_message_budget_stops_gracefully():
    g = graphs.path_graph(3)
    runner = EventRunner(
        g, {u: Ticker() for u in g.nodes()}, Mode.CONGEST, message_budget=50
    )
    metrics = runner.run()
    assert runner.stop_reason == "message_budget"
    assert metrics.total_messages >= 50
    # The in-flight batch resolves whole: 4 sends per time unit.
    assert metrics.total_messages < 50 + 4


def test_max_rounds_still_hard():
    g = graphs.path_graph(3)
    runner = EventRunner(
        g, {u: Ticker() for u in g.nodes()}, Mode.CONGEST, max_rounds=15
    )
    with pytest.raises(SimulationError):
        runner.run()


def test_quiescent_run_has_no_stop_reason():
    g = graphs.path_graph(3)
    runner = EventRunner(
        g, {u: Gossip(u, 0, horizon=5) for u in g.nodes()}, Mode.CONGEST,
        max_time=10_000, message_budget=1_000_000,
    )
    runner.run()
    assert runner.stop_reason is None
