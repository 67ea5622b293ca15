"""Frozen, index-addressed view of a :class:`Graph` (CSR adjacency).

Everything in :mod:`repro` speaks in arbitrary hashable node labels — small
ints mostly, but the CSSP recursion also manufactures tuple-labelled
imaginary nodes.  That flexibility costs the simulator dearly: dict-of-dict
adjacency, per-message dict lookups, and ``repr``-keyed sorting in the hot
loop.  :class:`IndexedGraph` is the bridge between the two worlds: it maps
the labels once to contiguous integer indices ``0..n-1`` and lays the
adjacency out in CSR form (``indptr`` / ``nbr`` / ``wt`` flat lists), so the
runner can do all per-round work on plain integer arrays while algorithms
keep their labels.

The view is *frozen*: it never mutates, and :class:`Graph` invalidates its
cached view on every ``add_node`` / ``add_edge``, so ``IndexedGraph.of(g)``
is safe to call repeatedly — recursive algorithms that run many phases over
one graph pay the O(n + m) build exactly once.

Directed-edge numbering: the CSR slot of neighbor ``v`` in ``u``'s adjacency
run is the *port id* of the directed edge ``u -> v``.  Port ids are what the
runner uses for O(1) per-round edge-capacity accounting.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat

__all__ = ["IndexedGraph"]


class IndexedGraph:
    """CSR snapshot of a :class:`Graph` with a stable label <-> index map.

    Attributes
    ----------
    labels:
        ``labels[i]`` is the original node label of index ``i`` (graph
        insertion order, so deterministic for a given construction).
    index_of:
        Inverse map ``label -> index``.
    indptr / nbr / wt:
        Standard CSR: the neighbors of index ``i`` are
        ``nbr[indptr[i]:indptr[i + 1]]`` with matching weights in ``wt``.
    """

    __slots__ = (
        "labels",
        "index_of",
        "indptr",
        "nbr",
        "wt",
        "num_nodes",
        "num_edges",
        "_node_views",
        "_port_pairs",
        "_port_src_labels",
        "_broadcast_views",
        "_engine_pool",
    )

    def __init__(self, graph) -> None:
        labels = list(graph.nodes())
        index_of = {u: i for i, u in enumerate(labels)}
        indptr = [0]
        nbr: list[int] = []
        wt: list[int] = []
        adj = getattr(graph, "_adj", None)
        if adj is not None:
            # Fast path for the standard Graph: bulk-copy each adjacency row
            # (keys mapped through index_of, values verbatim) instead of one
            # weight lookup per directed edge.
            index_lookup = index_of.__getitem__
            for u in labels:
                row = adj[u]
                nbr.extend(map(index_lookup, row))
                wt.extend(row.values())
                indptr.append(len(nbr))
        else:
            for u in labels:
                for v in graph.neighbors(u):
                    nbr.append(index_of[v])
                    wt.append(graph.weight(u, v))
                indptr.append(len(nbr))
        self.labels = labels
        self.index_of = index_of
        self.indptr = indptr
        self.nbr = nbr
        self.wt = wt
        self.num_nodes = len(labels)
        self.num_edges = len(nbr) // 2
        self._node_views: list[tuple] | None = None
        self._port_pairs: list[tuple] | None = None
        self._port_src_labels: list | None = None
        self._broadcast_views: list[list] | None = None
        # Single-slot pool of runner engine state (contexts, inboxes, port
        # loads) — checked out by Runner.__init__, returned by a clean run().
        self._engine_pool: tuple | None = None

    # ------------------------------------------------------------------
    @classmethod
    def of(cls, graph) -> "IndexedGraph":
        """The cached indexed view of ``graph`` (built on first use).

        The cache lives on the :class:`Graph` instance and is dropped by its
        mutators, so a stale view is never returned.
        """
        view = getattr(graph, "_indexed_view", None)
        if view is None:
            view = cls(graph)
            graph._indexed_view = view
        return view

    # ------------------------------------------------------------------
    # index-space queries (what the runner uses)
    # ------------------------------------------------------------------
    def degree(self, i: int) -> int:
        return self.indptr[i + 1] - self.indptr[i]

    def neighbor_indices(self, i: int) -> list[int]:
        return self.nbr[self.indptr[i] : self.indptr[i + 1]]

    def neighbor_weights(self, i: int) -> list[int]:
        return self.wt[self.indptr[i] : self.indptr[i + 1]]

    def node_views(self) -> list[tuple]:
        """Per-node ``(neighbor_labels, weights, port_by_label, lo, hi)``.

        ``weights`` is a tuple aligned with ``neighbor_labels`` (the bulk
        weight accessor); ``port_by_label[v] = (port_id, v_index, weight)``
        — everything a node-local send needs in one dict hit; ``lo:hi`` is
        the node's CSR port slice (the broadcast fast path meters it as one
        block).  Built lazily once and shared by every
        :class:`~repro.sim.Runner` over this view, which is the big win for
        recursive algorithms that spin up many runners per graph.
        """
        views = self._node_views
        if views is None:
            labels = self.labels
            views = []
            for i in range(self.num_nodes):
                lo, hi = self.indptr[i], self.indptr[i + 1]
                nbr_labels = tuple(labels[j] for j in self.nbr[lo:hi])
                ports = {
                    v: (lo + k, self.nbr[lo + k], self.wt[lo + k])
                    for k, v in enumerate(nbr_labels)
                }
                views.append((nbr_labels, tuple(self.wt[lo:hi]), ports, lo, hi))
            self._node_views = views
        return views

    def port_pairs(self) -> list[tuple]:
        """Flat per-port ``(src_label, dst_label)`` table (parallel to ``nbr``).

        Used by the time-resolved metering folds (:mod:`repro.sim.trace`);
        the base fold counts ports through :meth:`port_src_labels` instead.
        Built lazily once per view.
        """
        pairs = self._port_pairs
        if pairs is None:
            labels = self.labels
            indptr = self.indptr
            nbr = self.nbr
            pairs = []
            for i in range(self.num_nodes):
                src = labels[i]
                pairs.extend((src, labels[j]) for j in nbr[indptr[i] : indptr[i + 1]])
            self._port_pairs = pairs
        return pairs

    def port_src_labels(self) -> list:
        """Flat per-port sender-label column (parallel to ``nbr``).

        ``port_src_labels()[p]`` is the label of the node that owns port
        ``p`` — what delivery writes into the inbox ``senders`` column
        without building a label pair per message.  Built lazily once per
        view with bulk ``repeat`` extends (no per-port Python work).
        """
        out = self._port_src_labels
        if out is None:
            indptr = self.indptr
            out = []
            for i, label in enumerate(self.labels):
                out.extend(repeat(label, indptr[i + 1] - indptr[i]))
            self._port_src_labels = out
        return out

    def broadcast_views(self) -> list[list]:
        """Per-node neighbor-index runs (``nbr`` slices) for broadcast expansion.

        The delivery phase expands one broadcast record by walking this
        list instead of re-slicing the CSR arrays per record.  Built lazily
        on the first broadcast over this view.
        """
        views = self._broadcast_views
        if views is None:
            indptr = self.indptr
            nbr = self.nbr
            views = [
                nbr[indptr[i] : indptr[i + 1]] for i in range(self.num_nodes)
            ]
            self._broadcast_views = views
        return views

    # ------------------------------------------------------------------
    # label-space round-trip
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[tuple[object, object, int]]:
        """Each undirected edge once as ``(u_label, v_label, w)``."""
        labels = self.labels
        for i in range(self.num_nodes):
            for k in range(self.indptr[i], self.indptr[i + 1]):
                j = self.nbr[k]
                if i < j:
                    yield labels[i], labels[j], self.wt[k]

    def to_graph(self):
        """Rebuild an equivalent :class:`Graph` (same labels, edges, weights)."""
        from .weighted_graph import Graph

        out = Graph()
        for u in self.labels:
            out.add_node(u)
        for u, v, w in self.edges():
            out.add_edge(u, v, w)
        return out

    def __repr__(self) -> str:
        return f"IndexedGraph(n={self.num_nodes}, m={self.num_edges})"
