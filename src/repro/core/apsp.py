"""All-Pairs Shortest Paths via ``n`` concurrent SSSPs (Section 1.1).

The paper's APSP result: because the Section 2 SSSP has polylog congestion
per edge, ``n`` instances (one per source) can run *concurrently* under
random-delay scheduling [LMR94, Gha15], giving ``~O(n)`` total time.  The
only randomness in the whole APSP algorithm is the delays.

Reproduction strategy (DESIGN.md, decision 3): every SSSP instance is
executed once on the simulator, recording its per-(edge, round) message
trace.  The scheduler then draws one uniform random start delay per
instance from a window ``[0, n)`` and superimposes the traces.  The run is
*schedulable* if no (edge, direction, round) slot exceeds the per-round
capacity ``c`` (the CONGEST bandwidth left for each instance-bundle; the
scheduling theorems allow ``O(log n)`` messages per round to be bundled
since each message is ``O(log n)`` bits and ``B``-bit CONGEST messages with
``B = O(log^2 n)`` — or equivalently grouping rounds — changes bounds only
by polylog factors).  The reported makespan is ``max_i (delay_i +
duration_i)``; experiment E7 checks it scales ``~O(n)`` and that capacity
violations don't occur for ``c = O(log n)``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from ..graphs import Graph
from ..sim import Metrics
from ..sim.trace import fold_send_timeline
from .cssp import DEFAULT_EPS
from .sssp import SSSPResult, sssp

__all__ = ["APSPResult", "apsp", "schedule_with_random_delays", "ScheduleReport"]


@dataclass
class ScheduleReport:
    """Outcome of superimposing delayed SSSP traces."""

    makespan: int
    max_slot_load: int
    capacity: int
    delays: dict = field(repr=False)

    @property
    def feasible(self) -> bool:
        """True when no (edge, round) slot exceeded the per-round capacity."""
        return self.max_slot_load <= self.capacity


@dataclass
class APSPResult:
    """All-pairs distances plus per-instance metrics and the schedule."""

    distances: dict  # (source, node) -> distance
    per_source: dict  # source -> SSSPResult
    schedule: ScheduleReport

    def distance(self, u: object, v: object) -> float:
        return self.distances[(u, v)]


def schedule_with_random_delays(
    traces: dict,
    durations: dict,
    *,
    window: int,
    capacity: int,
    seed: int = 0,
) -> ScheduleReport:
    """Superimpose per-instance (edge, round) traces under random delays.

    ``traces`` maps instance -> Counter{(edge, round): messages};
    ``durations`` maps instance -> rounds.  Returns the makespan and the
    worst per-slot load so callers can verify feasibility at their chosen
    capacity.
    """
    rng = random.Random(seed)
    delays = {i: rng.randrange(max(1, window)) for i in traces}
    # A plain dict with a bound ``get`` superimposes about twice as fast as
    # ``Counter.__missing__`` per (edge, round) key.
    slot_load: dict = {}
    load = slot_load.get
    for instance, trace in traces.items():
        delay = delays[instance]
        for (edge, round_number), count in trace.items():
            key = (edge, round_number + delay)
            slot_load[key] = load(key, 0) + count
    makespan = max(
        (delays[i] + durations[i] for i in traces), default=0
    )
    max_slot_load = max(slot_load.values(), default=0)
    return ScheduleReport(
        makespan=makespan, max_slot_load=max_slot_load, capacity=capacity, delays=delays
    )


class _TracingMetrics(Metrics):
    """Metrics that additionally record when each edge message was sent.

    ``trace[((src, dst), round)]`` counts the messages on ``src -> dst`` at
    the absolute round ``round``: the rounds of completed phases (phases
    compose sequentially, so the clock when a phase runs is exactly the
    round at which its messages travel) plus the in-phase real round.  The
    trace is built in bulk from each run's send log when the engine folds
    it, like :class:`~repro.sim.TracingMetrics` but without the per-round
    profiles nothing here reads.
    """

    def __init__(self) -> None:
        super().__init__()
        self.trace: Counter = Counter()

    def record_logs(self, indexed, width, wakes, ports, bcasts, drops, marks) -> None:
        super().record_logs(indexed, width, wakes, ports, bcasts, drops, marks)
        fold_send_timeline(self.trace, indexed, self.rounds, width, ports, bcasts, marks)
        if marks:
            self.current_round = marks[-1][0] * width


def apsp(
    graph: Graph,
    *,
    eps: float = DEFAULT_EPS,
    seed: int = 0,
    capacity_log_factor: int = 4,
) -> APSPResult:
    """All-pairs distances by ``n`` independent SSSP runs + random delays.

    Exact distances for every ordered pair.  The schedule report states the
    concurrent makespan and whether the per-round edge capacity
    ``capacity_log_factor * ceil(log2 n)`` was respected.
    """
    import math

    nodes = sorted(graph.nodes(), key=repr)
    per_source: dict = {}
    traces: dict = {}
    durations: dict = {}
    for s in nodes:
        tracing = _TracingMetrics()
        distances, metrics = _traced_sssp(graph, s, eps, tracing)
        per_source[s] = SSSPResult(source=s, distances=distances, metrics=metrics)
        traces[s] = tracing.trace
        durations[s] = metrics.rounds

    n = max(2, graph.num_nodes)
    capacity = capacity_log_factor * math.ceil(math.log2(n))
    window = max(1, max(durations.values(), default=1))
    schedule = schedule_with_random_delays(
        traces, durations, window=window, capacity=capacity, seed=seed
    )
    distances = {
        (s, v): per_source[s].distances[v] for s in nodes for v in graph.nodes()
    }
    return APSPResult(distances=distances, per_source=per_source, schedule=schedule)


def _traced_sssp(graph: Graph, source: object, eps: float, tracing: Metrics):
    from .cssp import cssp

    return cssp(graph, {source: 0}, eps=eps, metrics=tracing)
