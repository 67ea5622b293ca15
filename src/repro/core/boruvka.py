"""Distributed Boruvka: maximal spanning forest in ``O(n log n)`` rounds.

Theorem 2.2 (classic, [Bor26, GHS83]): a deterministic distributed algorithm
computing a maximal spanning forest with ``O(n log n)`` time and polylog
congestion.  The CSSP recursion uses it in step 2 to get per-component
rooted spanning trees for the convergecast coordination.

Structure (all nodes know ``n``, so the schedule is globally agreed):

* ``ceil(log2 n) + 1`` *phases*; fragment count per component at least
  halves each phase, so by the last phase every fragment spans its whole
  component and detects completion.
* Each phase has five fixed-budget *segments* of ``n + 2`` rounds each:

  1. **refresh** — the fragment root floods (fragment id, depth) down the
     current tree, repairing labels left stale by the previous merge;
  2. **hello** — every node tells each neighbor its fragment id (the only
     all-edges traffic: 1 message per direction per phase);
  3. **convergecast** — fold the minimum outgoing edge candidate
     ``(target fragment key, edge key)`` up to the root; choosing the
     *minimum* target fragment makes the fragment pointer graph have only
     2-cycles, and the shared edge-key tiebreak makes both sides of a
     2-cycle pick the same physical edge (so merges never create cycles);
  4. **decision** — the root floods the chosen edge (or "complete" when no
     outgoing edge exists — the fragment then spans its component and
     halts at phase end);
  5. **merge** — chosen endpoints fire a ``join`` across the chosen edge;
     core edges (both fragments chose the same edge) elect the endpoint in
     the larger-keyed fragment as the new root; every fragment re-roots by
     flipping parent pointers along the path from its join point to its old
     root (a ``flip`` walk of at most ``n`` rounds).

Costs: time ``5 (n + 2) (log2 n + 2) = O(n log n)``; per-edge congestion
``O(log n)`` (hellos dominate); messages ``O((n + m) log n)``.  Because the
implementation is event-driven, each node is *awake* for only ``O(log n)``
scheduled rounds plus its message arrivals — the low-energy adaptation of
[AMJP22] (Theorem 3.1) is obtained by running this same protocol under the
sleeping-model accounting with buffered wake-ups standing in for AMJP22's
wake-up machinery (see DESIGN.md, decision 2).
"""

from __future__ import annotations

import math

from ..graphs import Graph
from ..sim import Context, Metrics, Mode, NodeAlgorithm, SimulationError, make_runner
from .trees import RootedForest

__all__ = ["BoruvkaNode", "build_maximal_forest", "boruvka_phase_count", "boruvka_round_bound"]


def boruvka_phase_count(n: int) -> int:
    """Phases needed: fragment counts halve, plus one detection phase."""
    return max(1, math.ceil(math.log2(max(2, n)))) + 1


def boruvka_round_bound(n: int) -> int:
    """Upper bound on total rounds, for schedule-aware callers."""
    segment = n + 2
    return 5 * segment * boruvka_phase_count(n)


def _fragment_key(frag: object) -> str:
    return repr(frag)


def _edge_key(u: object, v: object) -> tuple[str, str]:
    a, b = repr(u), repr(v)
    return (a, b) if a <= b else (b, a)


class BoruvkaNode(NodeAlgorithm):
    """One node's role in the phase-scheduled Boruvka protocol."""

    def __init__(self, node: object, n: int) -> None:
        self.node = node
        self.n = n
        self.segment = n + 2
        self.phase_len = 5 * self.segment
        self.total_phases = boruvka_phase_count(n)
        # Tree state (the algorithm's real output).
        self.parent: object = None
        self.children: set = set()
        self.fragment: object = node
        self.depth: int = 0
        self.complete = False
        # Per-phase scratch state.
        self._neighbor_fragment: dict = {}
        self._reports: list = []
        self._report_count = 0
        self._sent_report = False
        self._decision: object = "pending"  # "pending" | None | (cu, cv)
        self._sent_join_to: object = None
        # repr-sorted children, rebuilt only when the child set changes.
        self._kids_cache: list | None = []
        # Lazily built per-run repr tables (repr is the hottest string work
        # in the protocol: fragment and edge keys are all repr-based).
        self._edge_key_of: dict | None = None

    def _kids(self) -> list:
        kids = self._kids_cache
        if kids is None:
            kids = self._kids_cache = sorted(self.children, key=repr)
        return kids

    # -- helpers ---------------------------------------------------------
    def _my_candidate(self) -> tuple | None:
        """Minimum outgoing edge at this node: (frag key, edge key, u, v)."""
        best: tuple | None = None
        fragment = self.fragment
        edge_key_of = self._edge_key_of
        node = self.node
        for v, (frag_v, frag_key) in self._neighbor_fragment.items():
            if frag_v == fragment:
                continue
            cand = (frag_key, edge_key_of[v], node, v)
            if best is None or cand[:2] < best[:2]:
                best = cand
        return best

    def _reset_phase_state(self) -> None:
        self._neighbor_fragment = {}
        self._reports = []
        self._report_count = 0
        self._sent_report = False
        self._decision = "pending"
        self._sent_join_to = None

    def _try_send_report(self, ctx: Context) -> None:
        """Convergecast step: fold and forward once all children reported."""
        if self._sent_report or self._report_count < len(self.children):
            return
        candidates = [c for c in self._reports if c is not None]
        own = self._my_candidate()
        if own is not None:
            candidates.append(own)
        best = min(candidates, key=lambda c: c[:2]) if candidates else None
        self._sent_report = True
        if self.parent is None:
            self._decision = None if best is None else (best[2], best[3])
        else:
            ctx.send(self.parent, ("report", best))

    def _broadcast_decision(self, ctx: Context) -> None:
        for child in self._kids():
            ctx.send(child, ("decision", self._decision))

    def _start_flip_walk(self, ctx: Context, new_parent: object) -> None:
        """Re-root my old tree at me; hang me under ``new_parent``.

        ``new_parent`` is None when I become the merged fragment's root.
        """
        old_parent = self.parent
        self.parent = new_parent
        if old_parent is not None:
            self.children.add(old_parent)
            self._kids_cache = None
            ctx.send(old_parent, ("flip",))

    # -- main dispatch -----------------------------------------------------
    def on_round(self, ctx: Context, inbox: list[tuple[object, object]]) -> None:
        r = ctx.round
        phase, offset = divmod(r, self.phase_len)
        seg = self.segment

        if offset == 0:
            self._reset_phase_state()
            if phase >= self.total_phases:
                raise SimulationError(
                    f"Boruvka did not converge in {self.total_phases} phases at {self.node!r}"
                )
            if self.parent is None:
                self.fragment = self.node
                self.depth = 0
                for child in self._kids():
                    ctx.send(child, ("refresh", self.fragment, 1))

        for sender, payload in zip(inbox.senders, inbox.payloads) if inbox.senders else ():
            kind = payload[0]
            if kind == "refresh":
                _, frag, depth = payload
                self.fragment = frag
                self.depth = depth
                for child in self._kids():
                    ctx.send(child, ("refresh", frag, depth + 1))
            elif kind == "hello":
                self._neighbor_fragment[sender] = (payload[1], payload[2])
            elif kind == "report":
                self._reports.append(payload[1])
                self._report_count += 1
            elif kind == "decision":
                self._decision = payload[1]
                self._broadcast_decision(ctx)
            elif kind == "join":
                self._handle_join(ctx, sender, payload[1])
            elif kind == "flip":
                # Continue the re-rooting walk: sender is my new parent.
                old_parent = self.parent
                self.parent = sender
                self.children.discard(sender)
                self._kids_cache = None
                if old_parent is not None:
                    self.children.add(old_parent)
                    ctx.send(old_parent, ("flip",))

        phase_start = phase * self.phase_len
        if offset == seg:
            # The only all-edges traffic — one columnar broadcast record
            # instead of ``degree`` individual sends.  The fragment key rides
            # along so each receiver skips recomputing the repr.
            if self._edge_key_of is None:
                node = self.node
                self._edge_key_of = {v: _edge_key(node, v) for v in ctx.neighbors}
            ctx.broadcast(("hello", self.fragment, _fragment_key(self.fragment)))
        elif 2 * seg <= offset < 3 * seg:
            self._try_send_report(ctx)
        elif offset == 3 * seg and self.parent is None:
            if self._decision is None:
                self.complete = True
            self._broadcast_decision(ctx)
        elif offset == 4 * seg:
            if self._decision is None:
                self.complete = True
            if (
                self._decision not in ("pending", None)
                and self._decision[0] == self.node
            ):
                cu, cv = self._decision
                self._sent_join_to = cv
                ctx.send(cv, ("join", self.fragment))
        elif offset == 4 * seg + 1 and self._sent_join_to is not None:
            # No reciprocal join arrived over the chosen edge, so this is
            # not a core edge: my fragment hangs under the target fragment.
            target = self._sent_join_to
            self._sent_join_to = None
            self._start_flip_walk(ctx, new_parent=target)

        # Completion: fragments with no outgoing edge span their whole
        # component; their nodes stop at the end of the detection phase.
        if self.complete and offset == 4 * seg + 2:
            ctx.halt()
            return

        # Next wake: the next segment boundary this node acts on (messages
        # wake it too).  Inlined from the former _schedule_next helper —
        # this runs once per awake round.
        if self.complete:
            ctx.wake_at(phase_start + 4 * seg + 2)
            return
        nxt = phase_start + self.phase_len  # next phase's offset 0; always > r
        for b in (
            phase_start + seg,
            phase_start + 2 * seg,
            phase_start + 4 * seg,
        ):
            if r < b < nxt:
                nxt = b
        if self.parent is None:
            b = phase_start + 3 * seg
            if r < b < nxt:
                nxt = b
        if self._sent_join_to is not None:
            b = phase_start + 4 * seg + 1
            if r < b < nxt:
                nxt = b
        ctx.wake_at(nxt)

    def _handle_join(self, ctx: Context, sender: object, sender_fragment: object) -> None:
        my_edge = None if self._decision in ("pending", None) else self._decision
        is_core = (
            my_edge is not None
            and my_edge[0] == self.node
            and my_edge[1] == sender
        )
        if is_core:
            # Both fragments chose this same physical edge.  The endpoint in
            # the larger-keyed fragment becomes the merged fragment's root.
            self._sent_join_to = None
            i_win = _fragment_key(self.fragment) > _fragment_key(sender_fragment)
            if i_win:
                self.children.add(sender)
                self._kids_cache = None
                self._start_flip_walk(ctx, new_parent=None)
            else:
                self.children.discard(sender)
                self._kids_cache = None
                self._start_flip_walk(ctx, new_parent=sender)
        else:
            # A foreign fragment hangs its tree under me via this edge.
            self.children.add(sender)
            self._kids_cache = None

    # Non-core endpoint: after sending a join at 4*seg we must learn by
    # 4*seg + 1 whether the partner fragment chose the same edge (its join
    # would arrive then); if not, we hang under it.  Handled in on_round via
    # the message wake plus the explicit ``4 * seg + 1`` boundary.


def build_maximal_forest(graph: Graph, *, metrics: Metrics | None = None) -> RootedForest:
    """Run distributed Boruvka over ``graph`` and return the rooted forest.

    The returned forest is validated structurally (parent pointers acyclic);
    ``RootedForest.validate_against`` offers the full spanning check for
    tests.  Costs accrue into ``metrics``.
    """
    n = graph.num_nodes
    if n == 0:
        return RootedForest({})
    algorithms = {u: BoruvkaNode(u, n) for u in graph.nodes()}
    runner = make_runner(graph, algorithms, Mode.CONGEST, metrics=metrics)
    runner.run()
    parent = {u: algorithms[u].parent for u in graph.nodes()}
    return RootedForest(parent)
