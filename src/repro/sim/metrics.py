"""Complexity metrics for simulated distributed executions.

The paper's claims are stated in four currencies (Sections 1.1 and 1.2):

* **time** — number of lock-step rounds until all nodes have their outputs;
* **message complexity** — total messages sent network-wide;
* **congestion** — the maximum, over directed edges, of messages sent
  through that edge during the whole execution;
* **energy** — the maximum, over nodes, of rounds in which the node is awake.

:class:`Metrics` records all four, plus per-node subproblem participation
(to validate Lemma 2.4) and lost-message counts (sleeping model).  Metrics
objects merge, so a recursive algorithm's totals are honest sums over its
phases.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["Metrics"]


class Metrics:
    """Mutable accumulator of execution costs.

    Directed edge counts are keyed ``(src, dst)``; the undirected per-edge
    congestion used in the paper's statements is exposed via
    :meth:`edge_congestion` / :attr:`max_congestion` (max over directions —
    the sleeping-model definition "at most T messages through it in each
    direction" makes per-direction the faithful reading).
    """

    def __init__(self) -> None:
        self.rounds: int = 0
        self.total_messages: int = 0
        self.lost_messages: int = 0
        self.edge_messages: Counter = Counter()
        self.awake_rounds: Counter = Counter()
        self.subproblem_participation: Counter = Counter()
        # Fault-plane meters (repro.sim.faults): all stay zero on fault-free
        # runs, and to_dict() omits them when zero, so serialized metrics
        # remain byte-identical to pre-fault stores.  A dropped message was
        # sent, so it is in the message and congestion totals, but not in
        # the sleeping model's lost_messages; a duplicate is in no total.
        self.messages_dropped: int = 0
        self.messages_duplicated: int = 0
        self.nodes_crashed: int = 0
        self.recoveries: int = 0
        # Last active real round of the latest run (megaround index times
        # round_width).  The time-resolved subclasses stamp it when they
        # fold; plain Metrics keep 0.  Serialized for store compatibility.
        self.current_round: int = 0

    # ------------------------------------------------------------------
    # recording (the per-event hooks serve ReferenceRunner and hand-built
    # accumulators; Runner and EventRunner fold through record_logs)
    # ------------------------------------------------------------------
    def record_send(self, src: object, dst: object, delivered: bool) -> None:
        """Count one message on directed edge ``src -> dst``."""
        self.total_messages += 1
        self.edge_messages[(src, dst)] += 1
        if not delivered:
            self.lost_messages += 1

    def record_awake(self, node: object, rounds: int = 1) -> None:
        """Credit ``rounds`` awake rounds to ``node``."""
        self.awake_rounds[node] += rounds

    def record_rounds(self, rounds: int) -> None:
        """Extend the global round clock by ``rounds``."""
        self.rounds += rounds

    def record_participation(self, node: object) -> None:
        """Note that ``node`` took part in one (sub)problem (Lemma 2.4)."""
        self.subproblem_participation[node] += 1

    def record_logs(self, indexed, width: int, wakes: list, ports: list,
                    bcasts: list, drops: list, marks: list) -> None:
        """Fold one batch of a runner's integer meter logs into the counters.

        The engines call this once per run (and whenever the logs reach
        their size bounds) instead of one ``record_send``/``record_awake``
        per event; message
        totals and the lost/dropped/duplicated counters are already updated
        as integers.  Over ``indexed`` (the run's
        :class:`~repro.graphs.IndexedGraph`): ``wakes`` holds one node
        index per awake (mega)round, each worth ``width`` rounds; ``ports``
        one port id per sent message; ``bcasts`` one sender index per
        broadcast, which sends over every port of that node; ``drops`` one
        port id per message the fault plane destroyed at the link, which
        still counts toward congestion.  ``marks`` closes each active round
        as ``(round, len(wakes), len(ports), len(bcasts))`` so subclasses
        can place every wake and send in time (see
        :class:`~repro.sim.TracingMetrics`); this base fold ignores it.
        """
        labels = indexed.labels
        awake = self.awake_rounds
        for i, count in Counter(wakes).items():
            awake[labels[i]] += count * width
        nbr = indexed.nbr
        port_src = indexed.port_src_labels()
        edges = self.edge_messages
        counts = Counter(ports)
        counts.update(drops)
        for port_id, count in counts.items():
            edges[(port_src[port_id], labels[nbr[port_id]])] += count
        indptr = indexed.indptr
        for src_i, count in Counter(bcasts).items():
            sender = labels[src_i]
            for port_id in range(indptr[src_i], indptr[src_i + 1]):
                edges[(sender, labels[nbr[port_id]])] += count

    # ------------------------------------------------------------------
    # derived quantities (the paper's four complexity measures)
    # ------------------------------------------------------------------
    @property
    def max_congestion(self) -> int:
        """Max messages through any directed edge — the congestion measure."""
        if not self.edge_messages:
            return 0
        return max(self.edge_messages.values())

    @property
    def max_energy(self) -> int:
        """Max awake rounds over nodes — the energy complexity measure."""
        if not self.awake_rounds:
            return 0
        return max(self.awake_rounds.values())

    @property
    def max_participation(self) -> int:
        """Max number of subproblems any node appeared in (Lemma 2.4)."""
        if not self.subproblem_participation:
            return 0
        return max(self.subproblem_participation.values())

    def energy_of(self, node: object) -> int:
        return self.awake_rounds.get(node, 0)

    def congestion_of(self, u: object, v: object) -> int:
        """Messages through the undirected edge ``{u, v}`` (both directions)."""
        return self.edge_messages.get((u, v), 0) + self.edge_messages.get((v, u), 0)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def merge(self, other: "Metrics", *, sequential: bool = True) -> None:
        """Fold ``other`` into this accumulator.

        ``sequential=True`` (phases run back-to-back) adds round counts;
        ``sequential=False`` (phases run concurrently, e.g. independent
        connected components) takes the max of round counts.  Messages,
        congestion, energy and participation always add — they are totals
        regardless of scheduling.
        """
        if sequential:
            self.rounds += other.rounds
        else:
            self.rounds = max(self.rounds, other.rounds)
        self.total_messages += other.total_messages
        self.lost_messages += other.lost_messages
        self.messages_dropped += other.messages_dropped
        self.messages_duplicated += other.messages_duplicated
        self.nodes_crashed += other.nodes_crashed
        self.recoveries += other.recoveries
        self.edge_messages.update(other.edge_messages)
        self.awake_rounds.update(other.awake_rounds)
        self.subproblem_participation.update(other.subproblem_participation)

    def copy(self) -> "Metrics":
        """An independent :class:`Metrics` with the same :meth:`to_dict`."""
        out = Metrics()
        out.merge(self)
        out.current_round = self.current_round
        return out

    # ------------------------------------------------------------------
    # (de)serialization — the JSONL ResultSet row format
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless, JSON-ready form of the full accumulator state.

        Counter entries are emitted as sorted ``[key..., count]`` triples /
        pairs (sorted by key repr so the output is byte-stable regardless
        of insertion order).  ``from_dict(to_dict())`` reproduces every
        recorded quantity exactly — including the per-edge and per-node
        breakdowns behind the four headline currencies — for the integer
        node labels the graph substrate uses.

        Fault meters are emitted under a ``"faults"`` sub-dict **only
        when any of them is nonzero**: a fault-free run serializes to the
        exact pre-fault byte layout, so existing stores and differential
        baselines are untouched.
        """
        out = {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "lost_messages": self.lost_messages,
            "current_round": self.current_round,
            "edge_messages": [
                [src, dst, count]
                for (src, dst), count in sorted(
                    self.edge_messages.items(), key=lambda item: repr(item[0])
                )
            ],
            "awake_rounds": [
                [node, count]
                for node, count in sorted(
                    self.awake_rounds.items(), key=lambda item: repr(item[0])
                )
            ],
            "subproblem_participation": [
                [node, count]
                for node, count in sorted(
                    self.subproblem_participation.items(), key=lambda item: repr(item[0])
                )
            ],
        }
        if (
            self.messages_dropped
            or self.messages_duplicated
            or self.nodes_crashed
            or self.recoveries
        ):
            out["faults"] = {
                "messages_dropped": self.messages_dropped,
                "messages_duplicated": self.messages_duplicated,
                "nodes_crashed": self.nodes_crashed,
                "recoveries": self.recoveries,
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Metrics":
        """Rebuild a :class:`Metrics` from :meth:`to_dict` output."""
        out = cls()
        out.rounds = int(data["rounds"])
        out.total_messages = int(data["total_messages"])
        out.lost_messages = int(data["lost_messages"])
        out.current_round = int(data.get("current_round", 0))
        faults = data.get("faults")
        if faults:
            out.messages_dropped = int(faults.get("messages_dropped", 0))
            out.messages_duplicated = int(faults.get("messages_duplicated", 0))
            out.nodes_crashed = int(faults.get("nodes_crashed", 0))
            out.recoveries = int(faults.get("recoveries", 0))
        for src, dst, count in data["edge_messages"]:
            out.edge_messages[(src, dst)] = count
        for node, count in data["awake_rounds"]:
            out.awake_rounds[node] = count
        for node, count in data["subproblem_participation"]:
            out.subproblem_participation[node] = count
        return out

    def summary(self) -> dict[str, int]:
        """The headline numbers as a plain dict (for tables and logs)."""
        return {
            "rounds": self.rounds,
            "messages": self.total_messages,
            "lost_messages": self.lost_messages,
            "congestion": self.max_congestion,
            "energy": self.max_energy,
            "max_participation": self.max_participation,
        }

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"Metrics(rounds={s['rounds']}, messages={s['messages']}, "
            f"congestion={s['congestion']}, energy={s['energy']})"
        )
