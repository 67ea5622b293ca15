"""Execution tracing: per-round load profiles and awake timelines.

:class:`TracingMetrics` is a drop-in :class:`~repro.sim.Metrics` that
additionally records *when* things happened: messages per round, awake
nodes per round, and per-edge time series.  Useful for debugging schedule
bugs in sleeping-model protocols (e.g. "who was awake when this offer was
sent?") and for the congestion-profile example.

The engines never call a per-event hook: the timelines are built in bulk
when a run folds its integer wake and send logs
(:meth:`~repro.sim.Metrics.record_logs`), placing each log segment at the
real round its mark names.  Sends the fault plane drops at the link count
toward congestion but stay out of the timelines; sleeping-model losses
(sent to a sleeping node) are in them.

Costs: memory linear in (active rounds + messages); use on experiment-
sized runs, not the biggest sweeps.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat

from .metrics import Metrics

__all__ = ["TracingMetrics"]


def fold_send_timeline(timeline: Counter, indexed, start: int, width: int,
                       ports: list, bcasts: list, marks: list,
                       by_round: Counter | None = None) -> None:
    """Count each logged send into ``timeline[((src, dst), round)]``.

    A send logged before the mark of active round ``r`` happened at real
    round ``start + r * width``.  The sends are laid out as one port column
    with a parallel round column and counted by a single ``Counter.update``
    (in C), not one ``+= 1`` per message.  ``by_round`` also gets each
    round's message total.
    """
    indptr = indexed.indptr
    sends: list[int] = []
    when: list[int] = []
    p0 = b0 = 0
    for r, _, p1, b1 in marks:
        before = len(sends)
        sends.extend(ports[p0:p1])
        for src_i in bcasts[b0:b1]:
            sends.extend(range(indptr[src_i], indptr[src_i + 1]))
        sent = len(sends) - before
        if sent:
            now = start + r * width
            when.extend(repeat(now, sent))
            if by_round is not None:
                by_round[now] += sent
        p0, b0 = p1, b1
    timeline.update(zip(map(indexed.port_pairs().__getitem__, sends), when))


class TracingMetrics(Metrics):
    """Metrics plus time-resolved message and wake records."""

    def __init__(self) -> None:
        super().__init__()
        #: round -> number of messages sent in that round (phase-absolute).
        self.messages_by_round: Counter = Counter()
        #: round -> number of awake nodes.
        self.awake_by_round: Counter = Counter()
        #: (edge, round) -> messages, for per-edge congestion timelines.
        self.edge_timeline: Counter = Counter()

    def record_logs(self, indexed, width, wakes, ports, bcasts, drops, marks) -> None:
        super().record_logs(indexed, width, wakes, ports, bcasts, drops, marks)
        # ``rounds`` still holds the completed phases: the engine books this
        # run's rounds after its last fold.
        start = self.rounds
        fold_send_timeline(self.edge_timeline, indexed, start, width, ports, bcasts,
                           marks, self.messages_by_round)
        # A megaround books ``width`` real rounds of energy; each lands in
        # the timeline, so the profile sums to ``awake_rounds``.
        awake = self.awake_by_round
        w0 = 0
        for r, w1, _, _ in marks:
            now = start + r * width
            for t in range(now, now + width):
                awake[t] += w1 - w0
            w0 = w1
        if marks:
            self.current_round = marks[-1][0] * width

    # -- analysis helpers -------------------------------------------------
    def peak_round_load(self) -> tuple[int, int]:
        """``(round, messages)`` of the busiest round (0, 0 when silent)."""
        if not self.messages_by_round:
            return (0, 0)
        busiest = max(self.messages_by_round, key=lambda r: self.messages_by_round[r])
        return busiest, self.messages_by_round[busiest]

    def awake_fraction_profile(self, num_nodes: int, buckets: int = 10) -> list[float]:
        """Average awake fraction per time bucket across the execution.

        Every round lands in exactly one bucket: the last bucket extends to
        the horizon, so the ``horizon % buckets`` tail rounds are averaged
        into it rather than silently dropped (e.g. horizon 25 over 10
        buckets gives nine 2-round buckets and one 7-round tail bucket —
        rounds 18..24 all counted).
        """
        if not self.awake_by_round or num_nodes == 0:
            return [0.0] * buckets
        horizon = max(self.awake_by_round) + 1
        width = max(1, horizon // buckets)
        out = []
        for b in range(buckets):
            lo = b * width
            hi = horizon if b == buckets - 1 else min((b + 1) * width, horizon)
            if lo >= hi:
                out.append(0.0)
                continue
            total = sum(self.awake_by_round.get(r, 0) for r in range(lo, hi))
            out.append(total / ((hi - lo) * num_nodes))
        return out

    def edge_profile(self, u: object, v: object) -> dict[int, int]:
        """Round -> messages for the undirected edge ``{u, v}``."""
        out: dict[int, int] = {}
        for (edge, r), count in self.edge_timeline.items():
            if edge in ((u, v), (v, u)):
                out[r] = out.get(r, 0) + count
        return out
