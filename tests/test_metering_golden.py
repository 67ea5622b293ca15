"""Golden pins for the metering folds and the APSP schedule.

Engine-vs-engine parity cannot catch a change to the loop both engines
share, so these tests pin absolute values: every :class:`TracingMetrics`
field on three runs (both engines) and the APSP schedule report plus each
source's ``(edge, round)`` trace.  The expected digests were recorded
before the engines moved to one fold per run; regenerate them with
``python tests/test_metering_golden.py`` only for an intended change.
"""

import hashlib
import json
import random

import pytest

from repro import apsp
from repro.graphs import make_family, random_connected_graph
from repro.sim import runner as runner_module
from repro.sim import (
    EventRunner,
    Mode,
    NodeAlgorithm,
    ReferenceRunner,
    Runner,
    SimulationError,
    TracingMetrics,
)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def counter_digest(counter) -> str:
    return digest(sorted(counter.items(), key=repr))


class Chatter(NodeAlgorithm):
    """Seeded mix of broadcasts, unicasts, naps and halts."""

    def __init__(self, node, seed, horizon, per_edge=1):
        self.node = node
        self.rng = random.Random(seed * 7_919 + node)
        self.horizon = horizon
        self.per_edge = per_edge

    def on_round(self, ctx, inbox):
        if ctx.round >= self.horizon:
            ctx.halt()
            return
        casts = 0
        if self.rng.random() < 0.6:
            ctx.broadcast(self.node)
            casts = 1
        for v in ctx.neighbors:
            for _ in range(self.per_edge - casts):
                if self.rng.random() < 0.3:
                    ctx.send(v, len(inbox))
        ctx.wake_at(ctx.round + 1 + self.rng.randrange(3))


GRAPH = random_connected_graph(16, extra_edge_prob=0.25, seed=5)

#: name -> (mode, runner kwargs, horizon, per-edge sends)
RUNS = {
    "congest-broadcast": (Mode.CONGEST, {}, 12, 1),
    "sleeping-width3": (Mode.SLEEPING, {"round_width": 3, "edge_capacity": 3}, 14, 3),
    "sleeping-width3-faulted": (
        Mode.SLEEPING,
        {"round_width": 3, "edge_capacity": 3,
         "faults": "drop:0.2+dup:0.1+crash:2@1+restart:2"},
        14,
        3,
    ),
}


def traced_run(engine, name) -> dict:
    mode, kwargs, horizon, per_edge = RUNS[name]
    metrics = TracingMetrics()
    # Two phases on one accumulator: timelines are phase-absolute.
    for phase in range(2):
        algorithms = {u: Chatter(u, phase, horizon, per_edge) for u in GRAPH.nodes()}
        engine(GRAPH, algorithms, mode, metrics=metrics, **kwargs).run()
    return {
        "to_dict": digest(metrics.to_dict()),
        "messages_by_round": counter_digest(metrics.messages_by_round),
        "awake_by_round": counter_digest(metrics.awake_by_round),
        "edge_timeline": counter_digest(metrics.edge_timeline),
    }


def apsp_pin(n, seed) -> dict:
    result = apsp(make_family("er", n, 9, seed=seed), seed=seed)
    schedule = result.schedule
    return {
        "makespan": schedule.makespan,
        "max_slot_load": schedule.max_slot_load,
        "delays": digest(sorted(schedule.delays.items())),
        # One SHA-256 per source's sorted trace items, folded in source order.
        "traces": digest([
            [repr(s), counter_digest(r.metrics.trace)] for s, r in result.per_source.items()
        ]),
    }


#: Recorded before the single-fold engine (see the module docstring).
TRACED = {
    "congest-broadcast": {
        "to_dict": "0c5a56046d8f1d6f",
        "messages_by_round": "52d95d7e5d0b8d8c",
        "awake_by_round": "8553b6d9187b54ba",
        "edge_timeline": "e6408bc9e417ecb1",
    },
    "sleeping-width3": {
        "to_dict": "f1bf0bd99dd7b472",
        "messages_by_round": "5a64265a03f8905d",
        "awake_by_round": "453ce597d2e321df",
        "edge_timeline": "bcd40524988022d8",
    },
    "sleeping-width3-faulted": {
        "to_dict": "5622038cc15de1b7",
        "messages_by_round": "b1108e9e83ec1c40",
        "awake_by_round": "aca961c2447d5eb1",
        "edge_timeline": "f3f5ca7ebbce1210",
    },
}

APSP = {
    "12/0": {"makespan": 3320, "max_slot_load": 4,
             "delays": "594ce1d713c8fa30", "traces": "2a1d0d0fd7877941"},
    "12/1": {"makespan": 2917, "max_slot_load": 4,
             "delays": "7e645d7e19175144", "traces": "c1a8bf4c249c7504"},
    "12/2": {"makespan": 3567, "max_slot_load": 3,
             "delays": "646de08a8e4977c7", "traces": "54899aabea360f54"},
    "24/0": {"makespan": 7277, "max_slot_load": 4,
             "delays": "5bfdbc839c47e32d", "traces": "7396c8da0623f4f7"},
    "24/1": {"makespan": 7102, "max_slot_load": 4,
             "delays": "de09e45b4fba04ee", "traces": "1eda11bdd49d7d07"},
    "24/2": {"makespan": 7258, "max_slot_load": 5,
             "delays": "43950e9b75b0b854", "traces": "c457c438a79b3f13"},
}


@pytest.mark.parametrize("engine", [Runner, EventRunner], ids=["sync", "event"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_tracing_metrics_golden(engine, name):
    assert traced_run(engine, name) == TRACED[name]


@pytest.mark.parametrize("n,seed", [(n, s) for n in (12, 24) for s in range(3)])
def test_apsp_schedule_golden(n, seed):
    assert apsp_pin(n, seed) == APSP[f"{n}/{seed}"]


if __name__ == "__main__":
    print("TRACED =", json.dumps({name: traced_run(Runner, name) for name in sorted(RUNS)},
                                 indent=4))
    print("APSP =", json.dumps({f"{n}/{s}": apsp_pin(n, s) for n in (12, 24) for s in range(3)},
                               indent=4))


# ----------------------------------------------------------------------
# the engines fold logs; they never call the per-event hooks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", [Runner, EventRunner])
@pytest.mark.parametrize("hook", ["record_send", "record_awake"])
def test_overriding_a_per_event_hook_is_rejected(engine, hook):
    class PerEvent(TracingMetrics):
        pass

    setattr(PerEvent, hook, lambda self, *args, **kwargs: None)
    algorithms = {u: Chatter(u, 0, 3) for u in GRAPH.nodes()}
    with pytest.raises(SimulationError, match=rf"{hook}.*record_logs"):
        engine(GRAPH, algorithms, Mode.CONGEST, metrics=PerEvent())


class Tripwire(TracingMetrics):
    """Raises if an engine ever calls a per-event hook on it."""

    def __init__(self):
        super().__init__()
        self.record_send = self.record_awake = self._trip

    def _trip(self, *args, **kwargs):
        raise AssertionError("the engine called a per-event metering hook")


@pytest.mark.parametrize("faults", [None, "drop:0.2+dup:0.1+crash:2@1+restart:2"])
@pytest.mark.parametrize("mode", [Mode.CONGEST, Mode.SLEEPING])
@pytest.mark.parametrize("engine", [Runner, EventRunner])
def test_engines_never_call_per_event_hooks(engine, mode, faults):
    out = []
    for metrics in (Tripwire(), TracingMetrics()):
        algorithms = {u: Chatter(u, 1, 10, 2) for u in GRAPH.nodes()}
        engine(GRAPH, algorithms, mode, metrics=metrics, round_width=2,
               edge_capacity=2, faults=faults).run()
        out.append(metrics)
    tripwire, plain = out
    assert tripwire.total_messages > 0
    assert tripwire.to_dict() == plain.to_dict()
    assert tripwire.edge_timeline == plain.edge_timeline
    assert tripwire.awake_by_round == plain.awake_by_round


def test_reference_runner_rejects_fold_overrides():
    algorithms = {u: Chatter(u, 0, 3) for u in GRAPH.nodes()}
    with pytest.raises(SimulationError, match="record_logs"):
        ReferenceRunner(GRAPH, algorithms, Mode.CONGEST, metrics=TracingMetrics())


@pytest.mark.parametrize("engine", [Runner, EventRunner], ids=["sync", "event"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_mid_run_folds_match_one_fold(engine, name, monkeypatch):
    # Fold after every round mark and every few log entries: the bounded
    # batches must add up to exactly the pinned single-fold values.
    monkeypatch.setattr(runner_module, "_MARK_FOLD", 1)
    monkeypatch.setattr(runner_module, "_LOG_FOLD", 3)
    assert traced_run(engine, name) == TRACED[name]
