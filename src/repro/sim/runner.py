"""Round-accurate simulator of the synchronous message-passing model.

Two execution modes mirror the paper's two settings:

* :data:`Mode.CONGEST` — the classic synchronous CONGEST model of
  Section 1.1.  Every node is conceptually awake every round.  As a pure
  simulation optimization, node algorithms may *sleep* through rounds in
  which they have nothing to do; the runner then buffers their messages and
  wakes them on arrival ("wake-on-message").  This changes no observable of
  the model — time, message and congestion accounting are exactly those of
  an always-awake execution — it only skips no-op Python work.  The energy
  metric is *not meaningful* in this mode.

* :data:`Mode.SLEEPING` — the sleeping model of Section 1.2.  A node is
  awake only in rounds it scheduled; **messages sent to a sleeping node are
  lost** (recorded in ``Metrics.lost_messages``) and there is no
  wake-on-message.  The awake-round count per node is the energy complexity.

Rounds are lock-step.  In round ``r`` every awake node consumes the messages
delivered to it in earlier rounds (its mailbox), updates state, and sends at
most ``edge_capacity`` messages per incident directed edge.  Messages sent in
round ``r`` are available from round ``r + 1``.

``round_width`` supports the paper's *megarounds* (Section 3.1.3): when
``k`` logical subroutines share edges, the paper groups ``k`` real rounds
into one megaround and a node awake in any of them stays awake for all of
them.  Setting ``round_width=k, edge_capacity=k`` makes one simulated round
stand for one megaround: the rounds/energy metrics advance by ``k`` per
simulated round and up to ``k`` messages may cross an edge (one per real
slot).  All paper-facing metrics remain exact.

Engine
------
The runner executes on the frozen :class:`~repro.graphs.IndexedGraph` view
of the network (built once per graph and cached on it), so all per-round
bookkeeping is integer-indexed array work.  The message plane is
*columnar*: per-round state lives in flat parallel arrays, not per-message
objects.

* the outbox is a pair of parallel lists ``(port_id, payload)`` — a unicast
  send appends one integer and one payload, no tuple is built;
* :meth:`Context.broadcast` is a fast path: one batched capacity check
  against the node's CSR port slice, one touched-list extend, and a single
  ``(src_index, payload)`` record that the delivery phase expands — not
  ``degree`` individual sends;
* delivery writes into reusable per-node :class:`Inbox` buffers (parallel
  ``senders`` / ``payloads`` lists cleared by truncation after each node
  steps), with sender labels taken from a precomputed per-port label table
  — steady-state rounds allocate no per-message tuples;
* the wake schedule is a heap of *distinct pending rounds* over per-round
  integer buckets, so quiet stretches between wakes are skipped outright
  (a round is pushed once when its bucket is created — no per-node heap
  churn);
* per-round edge-capacity accounting is a flat per-port counter array reset
  via a touched-list, not a fresh ``Counter`` per round;
* awake nodes step in node-index order (graph insertion order), which is
  deterministic.

One message plane, two schedulers: :class:`~repro.sim.events.EventRunner`
subclasses :class:`Runner` and runs the same loop (:meth:`Runner._execute`)
on the same pooled state.  The two differ only in where an accepted message
goes — straight into the receiver's inbox here, into the arrival slot of
``t + delay`` there — and so in which time the heap yields next.  Faulted
and event-scheduled sends share one per-message path (fault draws and the
sleeping-model delivered-at-send-time check); fault-free synchronous
delivery walks the outbox columns inline.

One metering path: every path above writes the same integer logs (awake
node indices, port ids, broadcast senders, fault-dropped port ids) plus one
``(round, log offsets)`` mark per active round, and the run ends with a
single :meth:`~repro.sim.Metrics.record_logs` fold, for every
:class:`~repro.sim.Metrics` type.  Time-resolved metrics
(:class:`~repro.sim.TracingMetrics`) override only that fold.

The :class:`Inbox` handed to ``on_round`` is a *view* over the runner's
reusable buffers: it iterates as ``(sender, payload)`` pairs exactly like
the old list-of-tuples mailbox, but it is valid **only during that
``on_round`` call** — algorithms that need the contents later must copy
them (``list(inbox)``).

Semantics are identical to :class:`repro.sim.reference.ReferenceRunner`
(the retained original implementation); the differential tests in
``tests/test_runner_differential.py`` pin the two engines to byte-identical
metrics, including broadcast-heavy, megaround and ``edge_capacity > 1``
protocols in both modes.
"""

from __future__ import annotations

import copy
import enum
from heapq import heappop, heappush
from itertools import repeat

from ..graphs import Graph
from ..graphs.indexed import IndexedGraph
from .metrics import Metrics

__all__ = ["Mode", "Context", "Inbox", "NodeAlgorithm", "Runner", "SimulationError"]


class Mode(enum.Enum):
    """Execution semantics: classic CONGEST vs the sleeping (energy) model."""

    CONGEST = "congest"
    SLEEPING = "sleeping"


class SimulationError(RuntimeError):
    """Raised on protocol violations (capacity breach, bad target, overrun)."""


#: Sentinel for :meth:`Context.idle` — sleep with no scheduled wake.
_IDLE = -1

#: The integer meter logs fold into the metrics (Metrics.record_logs) once
#: they reach this many entries, or once this many rounds are marked (a
#: mark tuple outweighs ~20 log entries), bounding runner memory on
#: message-heavy and on long executions.
_LOG_FOLD = 1 << 20
_MARK_FOLD = 1 << 12

#: ``next_wake`` marker for "no live wake scheduled".
_NONE = -1


class Inbox:
    """Columnar mailbox view: parallel ``senders`` / ``payloads`` lists.

    Iterating yields ``(sender, payload)`` pairs, so existing algorithms
    written against the list-of-tuples mailbox keep working unchanged; hot
    algorithms may read the parallel lists directly.  The view is backed by
    the runner's reusable per-node buffers and is valid **only during the
    ``on_round`` call it was handed to** — the runner truncates the buffers
    when the node's step returns.  Copy (``list(inbox)``) to keep contents.
    """

    __slots__ = ("senders", "payloads")

    def __init__(self) -> None:
        self.senders: list = []
        self.payloads: list = []

    def __len__(self) -> int:
        return len(self.senders)

    def __bool__(self) -> bool:
        return bool(self.senders)

    def __iter__(self):
        return zip(self.senders, self.payloads)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(zip(self.senders[key], self.payloads[key]))
        return (self.senders[key], self.payloads[key])

    def __eq__(self, other) -> bool:
        if isinstance(other, Inbox):
            return self.senders == other.senders and self.payloads == other.payloads
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Inbox({list(self)!r})"


class Context:
    """Per-node handle through which an algorithm interacts with the network.

    Exposes the node's local view only: its id, its incident edges and their
    weights, the current round, and the actions *send*, *broadcast*, *sleep*,
    *halt*.  Algorithms must not touch the graph globally — that is what
    keeps the implementations honest distributed algorithms.
    """

    __slots__ = (
        "node",
        "round",
        "_runner",
        "_index",
        "_neighbors",
        "_weights",
        "_ports",
        "_lo",
        "_hi",
        "_next_wake",
        "_halted",
    )

    def __init__(self, runner: "Runner", node: object, index: int, view: tuple) -> None:
        self.node = node
        self.round = 0
        self._runner = runner
        self._index = index
        # Shared, read-only per-node structures from IndexedGraph.node_views()
        # — built once per graph, reused by every runner over it.
        self._neighbors, self._weights, self._ports, self._lo, self._hi = view
        self._next_wake: int | None = None
        self._halted = False

    # -- local topology -------------------------------------------------
    @property
    def neighbors(self) -> tuple:
        return self._neighbors

    @property
    def edge_weights(self) -> tuple:
        """Weights aligned with :attr:`neighbors` — the bulk accessor.

        ``zip(ctx.neighbors, ctx.edge_weights)`` is the no-lookup way to
        walk incident edges in hot per-node loops.
        """
        return self._weights

    def weight(self, neighbor: object) -> int:
        # One dict hit on the port table (which the send path needs anyway)
        # instead of a second weight-only dict.
        return self._ports[neighbor][2]

    @property
    def degree(self) -> int:
        return len(self._neighbors)

    # -- actions ---------------------------------------------------------
    def send(self, neighbor: object, payload: object) -> None:
        """Send ``payload`` to ``neighbor`` this round (arrives next round)."""
        port = self._ports.get(neighbor)
        if port is None:
            raise SimulationError(f"{self.node!r} tried to message non-neighbor {neighbor!r}")
        port_id, _dst_index, _weight = port
        runner = self._runner
        load = runner._edge_load
        count = load[port_id] + 1
        if count > runner.edge_capacity:
            raise SimulationError(
                f"edge capacity exceeded: {self.node!r}->{neighbor!r} sent "
                f"{count} messages in one round "
                f"(capacity {runner.edge_capacity})"
            )
        load[port_id] = count
        if count == 1:
            runner._touched.append(port_id)
        runner._out_ports.append(port_id)
        runner._out_payloads.append(payload)

    def broadcast(self, payload: object) -> None:
        """Send ``payload`` to every neighbor (one message per edge).

        Fast path: the node's whole CSR port slice is metered in one batched
        capacity check and the outbox records a single ``(src, payload)``
        entry that the delivery phase expands — per-edge Python work is
        avoided entirely in the common ``edge_capacity == 1`` case.
        """
        lo, hi = self._lo, self._hi
        if lo == hi:
            return
        runner = self._runner
        load = runner._edge_load
        if runner.edge_capacity == 1 and not any(load[lo:hi]):
            load[lo:hi] = repeat(1, hi - lo)
            runner._touched.extend(range(lo, hi))
        else:
            self._meter_ports(load, runner)
        runner._bcast_src.append(self._index)
        runner._bcast_payloads.append(payload)

    def _meter_ports(self, load: list, runner: "Runner") -> None:
        """Per-port capacity metering for broadcasts (capacity > 1 or reuse)."""
        cap = runner.edge_capacity
        touched = runner._touched
        neighbors = self._neighbors
        lo = self._lo
        for port_id in range(lo, self._hi):
            count = load[port_id] + 1
            if count > cap:
                raise SimulationError(
                    f"edge capacity exceeded: {self.node!r}->{neighbors[port_id - lo]!r} "
                    f"sent {count} messages in one round (capacity {cap})"
                )
            load[port_id] = count
            if count == 1:
                touched.append(port_id)

    def wake_at(self, round_number: int) -> None:
        """Sleep after this round and wake at the given absolute round."""
        if round_number <= self.round:
            raise SimulationError(
                f"{self.node!r} scheduled wake at {round_number} <= current round {self.round}"
            )
        if self._next_wake is None or round_number < self._next_wake:
            self._next_wake = round_number

    def sleep_for(self, rounds: int) -> None:
        """Sleep for ``rounds`` rounds (wake at ``round + rounds``)."""
        self.wake_at(self.round + rounds)

    def wake_at_unchecked(self, round_number: int) -> None:
        """Fast-path :meth:`wake_at` for a round's *single* schedule writer.

        Skips the future-round validation and the min-combine with earlier
        requests — the caller guarantees ``round_number > self.round`` and
        that no other ``wake_at`` was issued this round.  Hot schedulers
        that compute one final wake per round use this; everything else
        should call :meth:`wake_at`.
        """
        self._next_wake = round_number

    def idle(self) -> None:
        """Sleep with no scheduled wake.

        In CONGEST mode an arriving message wakes the node (this is the
        no-op-skipping optimization; the node is conceptually awake).  In the
        SLEEPING model an idle node genuinely never wakes again — use only
        when the protocol guarantees nothing more is coming.
        """
        self._next_wake = _IDLE

    def halt(self) -> None:
        """Finish: never wake again.  Output must already be in local state."""
        self._halted = True


class NodeAlgorithm:
    """Base class for one node's protocol logic.

    Subclasses implement :meth:`on_round`.  The same instance persists for
    the whole execution, so instance attributes are the node's local memory.
    By default a node stays awake every round until it calls ``ctx.halt()``
    or schedules a wake; override behavior entirely in ``on_round``.
    """

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        """Handle one awake round.

        ``inbox`` iterates as ``(sender, payload)`` pairs; it is a view over
        reusable buffers and is valid only during this call.
        """
        raise NotImplementedError


class Runner:
    """Executes one protocol over a graph and meters it.

    Parameters
    ----------
    graph:
        The network — a :class:`~repro.graphs.Graph` (its cached
        :class:`~repro.graphs.IndexedGraph` view is used) or an
        :class:`~repro.graphs.IndexedGraph` directly.  Every node must have
        an algorithm.
    algorithms:
        Mapping node label -> :class:`NodeAlgorithm` instance.
    mode:
        :data:`Mode.CONGEST` (buffered, wake-on-message) or
        :data:`Mode.SLEEPING` (lossy, strict schedules).
    round_width / edge_capacity:
        Megaround support; see the module docstring.
    metrics:
        Optional shared accumulator (for phase composition).  A fresh one is
        created if omitted.
    max_rounds:
        Hard safety bound; exceeding it raises :class:`SimulationError`.
    faults:
        Optional :class:`~repro.sim.faults.FaultModel` (or axis string) —
        seeded message drop/duplication and node crash-restart applied in
        the delivery phase.  ``None``/``"none"`` leaves every hot path
        byte-identical to the fault-free engine.
    """

    def __init__(
        self,
        graph: Graph | IndexedGraph,
        algorithms: dict,
        mode: Mode = Mode.CONGEST,
        *,
        round_width: int = 1,
        edge_capacity: int = 1,
        metrics: Metrics | None = None,
        max_rounds: int = 10_000_000,
        faults=None,
    ) -> None:
        self._setup(graph, algorithms, mode, round_width, edge_capacity, metrics,
                    max_rounds, faults)

    def _setup(self, graph, algorithms, mode, round_width, edge_capacity, metrics,
               max_rounds, faults) -> None:
        """The constructor body both engines share."""
        indexed = graph if isinstance(graph, IndexedGraph) else IndexedGraph.of(graph)
        try:
            algorithms_by_index = [algorithms[label] for label in indexed.labels]
        except KeyError:
            missing = [u for u in indexed.labels if u not in algorithms]
            raise SimulationError(
                f"nodes without an algorithm: {missing[:5]}"
            ) from None
        self.graph = graph
        self.indexed = indexed
        self.algorithms = algorithms
        self.mode = mode
        self.round_width = round_width
        self.edge_capacity = edge_capacity
        self.metrics = metrics if metrics is not None else Metrics()
        for hook in ("record_send", "record_awake"):
            if getattr(type(self.metrics), hook) is not getattr(Metrics, hook):
                raise SimulationError(
                    f"{type(self.metrics).__name__} overrides Metrics.{hook}, which "
                    f"the engines never call: override Metrics.record_logs, the "
                    f"fold of the run's wake and send logs, instead"
                )
        self.max_rounds = max_rounds
        from .faults import parse_fault_model

        self.faults = parse_fault_model(faults)
        # Restart snapshots: a rebooted node comes back with *fresh*
        # algorithm state, so capture each node's initial instance before
        # the first step mutates it.  Only crash+restart plans pay for the
        # copies.
        if self.faults is not None and self.faults.crashes and self.faults.restart_after:
            self._restart_snapshots = [copy.deepcopy(alg) for alg in algorithms_by_index]
        else:
            self._restart_snapshots = None
        # Per-graph engine-state pool: recursive algorithms create runners
        # by the thousand over the same frozen view, so contexts, inbox
        # buffers and the port-load array are checked out of a single-slot
        # pool on the IndexedGraph instead of rebuilt.  The slot is returned
        # only by a clean run(); a second live runner over the same view (or
        # a run that raised, leaving dirty state) simply builds fresh.
        pool = indexed._engine_pool
        if pool is not None:
            indexed._engine_pool = None
            contexts, inboxes, edge_load = pool
            for ctx in contexts:
                ctx._runner = self
                ctx._halted = False
                ctx._next_wake = None
            for box in inboxes:
                if box.senders:
                    box.senders.clear()
                    box.payloads.clear()
            self._contexts_by_index = contexts
            self._inboxes = inboxes
            self._edge_load = edge_load
        else:
            self._build_state()
        self._algorithms_by_index = algorithms_by_index
        # Columnar outboxes: unicast sends as parallel (port, payload) lists,
        # broadcasts as one (src_index, payload) record each.
        self._out_ports: list[int] = []
        self._out_payloads: list[object] = []
        self._bcast_src: list[int] = []
        self._bcast_payloads: list[object] = []
        self._touched: list[int] = []

    def _build_state(self) -> None:
        """Fresh per-run engine state (contexts, inbox buffers, port loads)."""
        indexed = self.indexed
        views = indexed.node_views()
        self._contexts_by_index = [
            Context(self, label, i, views[i])
            for i, label in enumerate(indexed.labels)
        ]
        self._inboxes = [Inbox() for _ in range(indexed.num_nodes)]
        self._edge_load = [0] * len(indexed.nbr)

    # ------------------------------------------------------------------
    def run(self) -> Metrics:
        """Simulate until quiescence; return the (possibly shared) metrics."""
        self._execute()
        return self.metrics

    def _execute(self, latency=None, max_time=None, message_budget=None):
        """The engine loop of both schedulers; returns ``(stop_reason, final_time)``.

        ``latency is None`` is the synchronous scheduler: an accepted
        message goes straight into its receiver's inbox, readable next
        round.  A :class:`~repro.sim.events.LatencyModel` is the event
        scheduler of :class:`~repro.sim.events.EventRunner`: a message
        accepted at time ``t`` over port ``p`` waits in the arrival slot
        of ``t + delay(p)`` and reaches the inbox at the top of that time,
        after its crashes and before its restarts and wakes.  Everything
        else — crash/restart, the stale-wake filter, the node step, the
        fault draws and the metering — is this one loop.  ``max_time``
        and ``message_budget`` are the event scheduler's graceful stops.
        """
        indexed = self.indexed
        n = indexed.num_nodes
        labels = indexed.labels
        nbr = indexed.nbr
        indptr = indexed.indptr
        port_src = indexed.port_src_labels()
        bviews = None  # indexed.broadcast_views(), fetched on first broadcast
        contexts = self._contexts_by_index
        if contexts and contexts[0]._runner is not self:
            # Our pooled state was checked out by a runner created after us
            # (pool checkout happens in __init__); rebuild private state so
            # this run stays correct and isolated.
            self._build_state()
            contexts = self._contexts_by_index
        algorithms = self._algorithms_by_index
        on_rounds = [alg.on_round for alg in algorithms]
        inboxes = self._inboxes
        out_ports = self._out_ports
        out_payloads = self._out_payloads
        bcast_src = self._bcast_src
        bcast_payloads = self._bcast_payloads
        edge_load = self._edge_load
        touched = self._touched
        metrics = self.metrics
        max_rounds = self.max_rounds
        width = self.round_width
        sleeping = self.mode is Mode.SLEEPING
        # Event scheduler: arrival time -> (unicasts, broadcasts), each a
        # list of (port_id, payload) in global send order.  Within a time,
        # unicasts precede broadcasts, exactly like the synchronous
        # delivery phase, which is what makes unit latency identical to it.
        arrivals: dict[int, tuple[list, list]] | None = None
        uniform = delays = None
        if latency is not None:
            arrivals = {}
            uniform = latency.uniform_delay
            if uniform is None:
                delays = latency.port_delays(indexed)

        # Wake schedule: per-round buckets of node indices plus a heap of the
        # *distinct* pending rounds.  A round enters the heap exactly once,
        # when its bucket is created, so the main loop pops straight from one
        # active round to the next — empty stretches cost nothing.  Every
        # time in the heap owns a bucket (possibly empty: an arrival or a
        # fault event).  Stale bucket entries (nodes rescheduled elsewhere)
        # are filtered against ``next_wake`` at pop time.
        heap: list[int] = []
        buckets: dict[int, list[int]] = {}
        next_wake = [0] * n
        if n:
            buckets[0] = list(range(n))
            heap.append(0)
        # last round each node woke (for sleeping-mode delivery).
        awake_stamp = [-1] * n if sleeping else None
        # --- fault plane (repro.sim.faults) ---------------------------
        # ``plane is None`` on fault-free runs: every branch below then
        # follows the exact pre-fault code path (the byte-identity
        # guarantee the differential tests pin).
        plane = self.faults
        crashed: list[bool] | None = None
        crash_at: dict[int, list[int]] | None = None
        restart_at: dict[int, list[int]] = {}
        if plane is not None:
            crashed = [False] * n
            if plane.crashes:
                index_of = {label: i for i, label in enumerate(labels)}
                crash_at = {}
                for node, (when, restart) in plane.crash_plan(labels).items():
                    crash_at.setdefault(when, []).append(index_of[node])
                    if restart is not None:
                        restart_at.setdefault(restart, []).append(index_of[node])
                # Force a scheduler visit at every fault-event round so
                # crashes and restarts fire even in quiet stretches.
                for when in (*crash_at, *restart_at):
                    if when not in buckets:
                        buckets[when] = []
                        heappush(heap, when)
        # Faulted or event-scheduled sends take the per-message path.
        per_message = plane is not None or arrivals is not None
        last_round = -1
        messages_sent = 0
        stop_reason: str | None = None
        # Metering is integer logs, folded by one metrics.record_logs call
        # per run: no Python call per wake or message, for every Metrics
        # type.  Each active round closes with one mark of the log offsets
        # so time-resolved subclasses can place its wakes and sends.  The
        # logs fold mid-run at the _LOG_FOLD / _MARK_FOLD bounds, so memory
        # stays bounded even on Theta(mn)-message workloads.
        wake_log: list[int] = []
        port_log: list[int] = []
        bcast_log: list[int] = []
        drop_log: list[int] = []
        marks: list[tuple[int, int, int, int]] = []

        while heap:
            r = heappop(heap)
            if max_time is not None and r > max_time:
                stop_reason = "max_time"
                break
            bucket = buckets.pop(r)
            if crash_at is not None:
                # Crash events fire before anything else at their round: the
                # victim does not step, its buffered inbox is destroyed (the
                # messages were metered as delivered sends — they vanish
                # into ``messages_dropped`` only).
                for i in crash_at.get(r, ()):
                    crashed[i] = True
                    metrics.nodes_crashed += 1
                    box = inboxes[i]
                    if box.senders:
                        metrics.messages_dropped += len(box.senders)
                        box.senders.clear()
                        box.payloads.clear()
            if arrivals is not None:
                slot = arrivals.pop(r, None)
                if slot is not None:
                    # Arrivals reach the inbox now; a dead receiver loses
                    # them, a halted one discards them silently, and CONGEST
                    # receivers wake on them at this very time.
                    for queue in slot:
                        for port_id, payload in queue:
                            dst_i = nbr[port_id]
                            if crashed is not None and crashed[dst_i]:
                                metrics.messages_dropped += 1
                                continue
                            if contexts[dst_i]._halted:
                                continue
                            box = inboxes[dst_i]
                            box.senders.append(port_src[port_id])
                            box.payloads.append(payload)
                            if not sleeping:
                                cur = next_wake[dst_i]
                                if cur == _NONE or cur > r:
                                    next_wake[dst_i] = r
                                    bucket.append(dst_i)
            if restart_at:
                # Restarts rebind a fresh copy of the node's initial
                # algorithm and book it to wake *this* round, as if it had
                # just joined the network.  They fire after arrivals, so a
                # node restarting at ``r`` misses what lands at ``r`` — sent
                # while it was down.
                for i in restart_at.get(r, ()):
                    fresh = copy.deepcopy(self._restart_snapshots[i])
                    algorithms[i] = fresh
                    self.algorithms[labels[i]] = fresh
                    on_rounds[i] = fresh.on_round
                    ctx = contexts[i]
                    ctx._halted = False
                    ctx._next_wake = None
                    crashed[i] = False
                    metrics.recoveries += 1
                    next_wake[i] = r
                    bucket.append(i)
            # Keep live entries only; consuming an entry marks it dead so a
            # node double-booked into one bucket still steps once.
            awake: list[int] = []
            if crashed is None:
                for i in bucket:
                    if next_wake[i] == r:
                        next_wake[i] = _NONE
                        awake.append(i)
            else:
                for i in bucket:
                    if next_wake[i] == r:
                        next_wake[i] = _NONE
                        if not crashed[i]:
                            awake.append(i)
            if not awake:
                continue
            if r >= max_rounds:
                raise SimulationError(f"exceeded max_rounds={max_rounds}")
            last_round = r
            awake.sort()

            # --- node steps (deterministic node-index order) ------------
            nxt_round = r + 1
            for i in awake:
                if sleeping:
                    awake_stamp[i] = r
                ctx = contexts[i]
                ctx.round = r
                ctx._next_wake = None
                box = inboxes[i]
                on_rounds[i](ctx, box)
                # Truncate the reusable buffers; the Inbox view the
                # algorithm saw is now dead (documented contract).
                if box.senders:
                    box.senders.clear()
                    box.payloads.clear()
                # Schedule the node's next wake right here: all steps finish
                # before delivery runs, so wake-on-message still sees the
                # complete post-round schedule.
                wake = ctx._next_wake
                if ctx._halted or wake is _IDLE:
                    continue
                s = wake if wake is not None else nxt_round
                next_wake[i] = s
                slot_bucket = buckets.get(s)
                if slot_bucket is None:
                    buckets[s] = [i]
                    heappush(heap, s)
                else:
                    slot_bucket.append(i)
            wake_log.extend(awake)

            # --- delivery -------------------------------------------------
            if out_ports or bcast_src:
                if bcast_src and bviews is None:
                    bviews = indexed.broadcast_views()
                if message_budget is not None:
                    messages_sent += len(out_ports) + sum(
                        indptr[src_i + 1] - indptr[src_i] for src_i in bcast_src
                    )
                    if messages_sent >= message_budget:
                        # The in-flight batch still resolves whole: budgets
                        # bound work, they do not tear messages.
                        stop_reason = "message_budget"
                if per_message:
                    # One per-message path for faults and for the event
                    # scheduler, in both modes.  Draws are keyed by (seed,
                    # kind, edge, send round, occurrence index) with
                    # occurrences counted in send order, and drop/dup are
                    # decided here, at send time, on the sending side of
                    # the link (see DESIGN.md).
                    occ: dict[int, int] = {}
                    nxt_bucket = buckets.get(nxt_round)

                    def deliver(port_id: int, src: object, payload: object, kind: int) -> None:
                        nonlocal nxt_bucket
                        dst_i = nbr[port_id]
                        dst = labels[dst_i]
                        dup = False
                        if plane is not None:
                            k = occ.get(port_id, 0)
                            occ[port_id] = k + 1
                            if plane.drop_message(src, dst, r, k) or crashed[dst_i]:
                                # Sent, so it counts toward the message and
                                # congestion totals, but it reaches nobody.
                                drop_log.append(port_id)
                                metrics.messages_dropped += 1
                                return
                        port_log.append(port_id)
                        if sleeping:
                            # A message reaches its target only if the
                            # target was awake when it was sent (Sec 1.2).
                            if awake_stamp[dst_i] != r or contexts[dst_i]._halted:
                                metrics.lost_messages += 1
                                return
                        elif contexts[dst_i]._halted:
                            return
                        if plane is not None and plane.duplicate_message(src, dst, r, k):
                            # The duplicate lands right after the original
                            # (same time) — a fault artifact outside the
                            # capacity and message-complexity metering.
                            dup = True
                            metrics.messages_duplicated += 1
                        if arrivals is not None:
                            arrival = r + (uniform or delays[port_id])
                            slot = arrivals.get(arrival)
                            if slot is None:
                                slot = arrivals[arrival] = ([], [])
                                if arrival not in buckets:
                                    buckets[arrival] = []
                                    heappush(heap, arrival)
                            queue = slot[kind]
                            queue.append((port_id, payload))
                            if dup:
                                queue.append((port_id, payload))
                            return
                        box = inboxes[dst_i]
                        box.senders.append(src)
                        box.payloads.append(payload)
                        if dup:
                            box.senders.append(src)
                            box.payloads.append(payload)
                        if not sleeping:
                            cur = next_wake[dst_i]
                            if cur == _NONE or cur > nxt_round:
                                next_wake[dst_i] = nxt_round
                                if nxt_bucket is None:
                                    nxt_bucket = buckets[nxt_round] = [dst_i]
                                    heappush(heap, nxt_round)
                                else:
                                    nxt_bucket.append(dst_i)

                    sent = len(port_log) + len(drop_log)
                    for port_id, payload in zip(out_ports, out_payloads):
                        deliver(port_id, port_src[port_id], payload, 0)
                    for src_i, payload in zip(bcast_src, bcast_payloads):
                        sender = labels[src_i]
                        for port_id in range(indptr[src_i], indptr[src_i + 1]):
                            deliver(port_id, sender, payload, 1)
                    metrics.total_messages += len(port_log) + len(drop_log) - sent
                elif sleeping:
                    # A message reaches its target only if the target was
                    # awake in the round it was sent (Sec 1.2).
                    lost = 0
                    if out_ports:
                        port_log.extend(out_ports)
                        metrics.total_messages += len(out_ports)
                        for port_id, payload in zip(out_ports, out_payloads):
                            dst_i = nbr[port_id]
                            if awake_stamp[dst_i] == r and not contexts[dst_i]._halted:
                                box = inboxes[dst_i]
                                box.senders.append(port_src[port_id])
                                box.payloads.append(payload)
                            else:
                                lost += 1
                    if bcast_src:
                        for src_i, payload in zip(bcast_src, bcast_payloads):
                            dsts = bviews[src_i]
                            metrics.total_messages += len(dsts)
                            sender = labels[src_i]
                            for dst_i in dsts:
                                if awake_stamp[dst_i] == r and not contexts[dst_i]._halted:
                                    box = inboxes[dst_i]
                                    box.senders.append(sender)
                                    box.payloads.append(payload)
                                else:
                                    lost += 1
                        bcast_log.extend(bcast_src)
                    metrics.lost_messages += lost
                else:
                    # CONGEST: never lost; a halted node discards arrivals
                    # silently, others wake-on-message.
                    nxt_bucket = buckets.get(nxt_round)
                    if out_ports:
                        port_log.extend(out_ports)
                        metrics.total_messages += len(out_ports)
                    for port_id, payload in zip(out_ports, out_payloads):
                        dst_i = nbr[port_id]
                        dst_ctx = contexts[dst_i]
                        if not dst_ctx._halted:
                            box = inboxes[dst_i]
                            box.senders.append(port_src[port_id])
                            box.payloads.append(payload)
                            cur = next_wake[dst_i]
                            if cur == _NONE or cur > nxt_round:
                                next_wake[dst_i] = nxt_round
                                if nxt_bucket is None:
                                    nxt_bucket = buckets[nxt_round] = [dst_i]
                                    heappush(heap, nxt_round)
                                else:
                                    nxt_bucket.append(dst_i)
                    for src_i, payload in zip(bcast_src, bcast_payloads):
                        dsts = bviews[src_i]
                        sender = labels[src_i]
                        metrics.total_messages += len(dsts)
                        for dst_i in dsts:
                            if not contexts[dst_i]._halted:
                                box = inboxes[dst_i]
                                box.senders.append(sender)
                                box.payloads.append(payload)
                                cur = next_wake[dst_i]
                                if cur == _NONE or cur > nxt_round:
                                    next_wake[dst_i] = nxt_round
                                    if nxt_bucket is None:
                                        nxt_bucket = buckets[nxt_round] = [dst_i]
                                        heappush(heap, nxt_round)
                                    else:
                                        nxt_bucket.append(dst_i)
                    if bcast_src:
                        bcast_log.extend(bcast_src)
                out_ports.clear()
                out_payloads.clear()
                bcast_src.clear()
                bcast_payloads.clear()
                for port_id in touched:
                    edge_load[port_id] = 0
                touched.clear()
            marks.append((r, len(wake_log), len(port_log), len(bcast_log)))
            if stop_reason is not None:
                break
            if (
                len(marks) >= _MARK_FOLD
                or len(wake_log) + len(port_log) + len(bcast_log) + len(drop_log) >= _LOG_FOLD
            ):
                metrics.record_logs(indexed, width, wake_log, port_log, bcast_log,
                                    drop_log, marks)
                for log in (wake_log, port_log, bcast_log, drop_log, marks):
                    log.clear()

        if marks:
            # Counting happens in C over the integer columns, and label
            # pairs are built once per distinct port or sender, not per
            # message.
            metrics.record_logs(indexed, width, wake_log, port_log, bcast_log,
                                drop_log, marks)
        final_time = (last_round + 1) * width
        metrics.record_rounds(final_time)
        if indexed._engine_pool is None:
            # Park the state for the next runner over this view.  Drop the
            # backreferences first: the pool outlives this runner (it hangs
            # off the cached IndexedGraph), and a live ctx._runner would pin
            # the whole finished runner — algorithms, metrics and all — for
            # the graph's lifetime.  Checkout re-points _runner anyway.
            for ctx in contexts:
                ctx._runner = None
            indexed._engine_pool = (contexts, inboxes, self._edge_load)
        return stop_reason, final_time
