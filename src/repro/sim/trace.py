"""Execution tracing: per-round load profiles and awake timelines.

:class:`TracingMetrics` is a drop-in :class:`~repro.sim.Metrics` that
additionally records *when* things happened: messages per round, awake
nodes per round, and per-edge time series.  Useful for debugging schedule
bugs in sleeping-model protocols (e.g. "who was awake when this offer was
sent?") and for the congestion-profile example.

Costs: memory linear in (active rounds + messages); use on experiment-
sized runs, not the biggest sweeps.
"""

from __future__ import annotations

from collections import Counter

from .metrics import Metrics

__all__ = ["TracingMetrics"]


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

    def _now(self) -> int:
        # Both terms count real rounds: the engines stamp ``current_round``
        # as the megaround index times ``round_width``.
        return self.rounds + self.current_round

    def record_send(self, src: object, dst: object, delivered: bool) -> None:
        super().record_send(src, dst, delivered)
        now = self._now()
        self.messages_by_round[now] += 1
        self.edge_timeline[((src, dst), now)] += 1

    def record_awake(self, node: object, rounds: int = 1) -> None:
        super().record_awake(node, rounds)
        # A megaround books ``rounds`` real rounds of energy; each lands in
        # the timeline, so the profile sums to ``awake_rounds``.
        now = self._now()
        for r in range(now, now + rounds):
            self.awake_by_round[r] += 1

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
