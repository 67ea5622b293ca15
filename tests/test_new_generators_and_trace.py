"""Hypercube/geometric/circulant generators, tracing metrics, validators."""

import pytest

from repro import graphs, sssp
from repro.energy import (
    build_decomposition,
    build_layered_cover,
    build_sparse_cover,
    validate_decomposition,
    validate_layered_cover,
    validate_sparse_cover,
    ValidationError,
)
from repro.graphs import (
    Graph,
    circulant_graph,
    hypercube_graph,
    random_geometric_graph,
)
from repro.sim import EventRunner, Mode, NodeAlgorithm, Runner, TracingMetrics
from repro.core.bfs import run_bfs


class TestHypercube:
    def test_structure(self):
        g = hypercube_graph(4)
        assert g.num_nodes == 16
        assert all(g.degree(u) == 4 for u in g.nodes())
        assert g.hop_diameter() == 4

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            hypercube_graph(0)

    def test_bfs_distance_is_hamming(self):
        g = hypercube_graph(4)
        d = run_bfs(g, [0])
        for u in g.nodes():
            assert d[u] == bin(u).count("1")


class TestGeometric:
    def test_connectivity_at_large_radius(self):
        g = random_geometric_graph(30, 2.0, seed=1)
        assert g.is_connected()

    def test_sparse_at_small_radius(self):
        g = random_geometric_graph(30, 0.01, seed=1)
        assert g.num_edges < 30

    def test_deterministic(self):
        a = random_geometric_graph(20, 0.4, seed=9)
        b = random_geometric_graph(20, 0.4, seed=9)
        assert sorted(map(repr, a.edges())) == sorted(map(repr, b.edges()))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            random_geometric_graph(5, 0)

    def test_weights_positive(self):
        g = random_geometric_graph(25, 0.5, seed=2)
        assert all(w >= 1 for _, _, w in g.edges())

    def test_sssp_works_on_geometric(self):
        g = random_geometric_graph(24, 0.6, seed=3)
        if not g.is_connected():
            pytest.skip("sampled graph disconnected")
        assert sssp(g, 0).distances == g.dijkstra([0])


class TestCirculant:
    def test_ring_plus_chords(self):
        g = circulant_graph(10, (1, 3))
        assert g.num_nodes == 10
        assert g.has_edge(0, 1) and g.has_edge(0, 3)

    def test_diameter_shrinks_with_jumps(self):
        ring = circulant_graph(24, (1,))
        chord = circulant_graph(24, (1, 5))
        assert chord.hop_diameter() < ring.hop_diameter()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            circulant_graph(2)


class TestTracingMetrics:
    def test_message_timeline(self):
        g = graphs.path_graph(6)
        t = TracingMetrics()
        run_bfs(g, [0], metrics=t)
        # BFS sends a wave: messages in consecutive early rounds.
        assert t.messages_by_round[0] >= 1
        assert sum(t.messages_by_round.values()) == t.total_messages

    def test_peak_round_load(self):
        g = graphs.star_graph(8)
        t = TracingMetrics()
        run_bfs(g, [0], metrics=t)
        r, load = t.peak_round_load()
        assert load == 7  # the center fans out to all leaves at once

    def test_awake_profile_buckets(self):
        g = graphs.path_graph(10)
        t = TracingMetrics()
        run_bfs(g, [0], metrics=t)
        profile = t.awake_fraction_profile(g.num_nodes, buckets=5)
        assert len(profile) == 5
        assert all(0 <= x <= 1 for x in profile)

    def test_awake_profile_last_bucket_extends_to_horizon(self):
        # Horizon 25 over 10 buckets: width 2, so rounds 20..24 used to
        # land in NO bucket and activity there silently vanished from the
        # profile.  The last bucket must extend to the horizon.
        t = TracingMetrics()
        t.awake_by_round[24] = 3  # all the activity in the dropped tail
        profile = t.awake_fraction_profile(num_nodes=3, buckets=10)
        assert len(profile) == 10
        # Last bucket covers rounds 18..24 (7 rounds): 3 awake / (7 * 3).
        assert profile[9] == pytest.approx(3 / (7 * 3))
        assert sum(profile) > 0  # the tail is no longer dropped

    def test_awake_profile_conserves_total_awake_rounds(self):
        # Every round lands in exactly one bucket: reconstructing the
        # total from per-bucket averages must give back the exact count,
        # for horizons that do and do not divide evenly.
        for horizon, buckets in ((25, 10), (20, 10), (7, 10), (30, 4)):
            t = TracingMetrics()
            for r in range(horizon):
                t.awake_by_round[r] = 1 + (r % 3)
            profile = t.awake_fraction_profile(num_nodes=5, buckets=buckets)
            width = max(1, horizon // buckets)
            total = 0.0
            for b, fraction in enumerate(profile):
                lo = b * width
                hi = horizon if b == buckets - 1 else min((b + 1) * width, horizon)
                if lo < hi:
                    total += fraction * (hi - lo) * 5
            assert total == pytest.approx(sum(t.awake_by_round.values()))

    def test_edge_profile(self):
        g = graphs.path_graph(4)
        t = TracingMetrics()
        run_bfs(g, [0], metrics=t)
        profile = t.edge_profile(0, 1)
        assert sum(profile.values()) == t.congestion_of(0, 1)

    def test_empty_trace(self):
        t = TracingMetrics()
        assert t.peak_round_load() == (0, 0)
        assert t.awake_fraction_profile(10) == [0.0] * 10

    @pytest.mark.parametrize("mode", [Mode.CONGEST, Mode.SLEEPING])
    @pytest.mark.parametrize("engine", [Runner, EventRunner])
    def test_megaround_timeline_is_in_real_rounds(self, engine, mode):
        # Two phases of 3 megarounds at width 3 share one tracer.  Each
        # phase broadcasts in its first two megarounds, so its messages sit
        # at real rounds 0 and 3 of the phase; the second phase starts
        # after the first one's 9 real rounds.
        class TwoWaves(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round < 2:
                    ctx.broadcast(ctx.round)
                else:
                    ctx.halt()

        g = graphs.path_graph(3)
        t = TracingMetrics()
        for _ in range(2):
            engine(g, {u: TwoWaves() for u in g.nodes()}, mode,
                   round_width=3, edge_capacity=3, metrics=t).run()
        assert t.rounds == 18
        assert sorted(t.messages_by_round) == [0, 3, 9, 12]
        # Every node is awake for every real round of both phases.
        assert t.awake_by_round == {r: 3 for r in range(18)}
        assert sum(t.awake_by_round.values()) == sum(t.awake_rounds.values())


class TestValidators:
    def test_decomposition_validator_accepts(self):
        g = graphs.grid_graph(5, 5)
        validate_decomposition(g, build_decomposition(g, 3))

    def test_decomposition_validator_rejects_overlap(self):
        # The radius cap guarantees multiple clusters on a long path.
        g = graphs.path_graph(40)
        deco = build_decomposition(g, 2, radius_cap=6)
        assert len(deco.clusters) >= 2
        victim = next(iter(deco.clusters[0].members))
        deco.clusters[1].members.add(victim)
        with pytest.raises(ValidationError):
            validate_decomposition(g, deco)

    def test_sparse_cover_validator_accepts(self):
        g = graphs.cycle_graph(16)
        validate_sparse_cover(g, build_sparse_cover(g, 2, stretch=3))

    def test_sparse_cover_validator_rejects_shrunk_home(self):
        g = graphs.path_graph(12)
        cover = build_sparse_cover(g, 2, stretch=3)
        home = cover.home[5]
        victim = next(u for u in home.members if u != 5)
        home.members.discard(victim)
        with pytest.raises(ValidationError):
            validate_sparse_cover(g, cover)

    def test_layered_validator_accepts(self):
        g = graphs.path_graph(30)
        validate_layered_cover(g, build_layered_cover(g, 29, base=4, stretch=3))

    def test_layered_validator_rejects_broken_parent(self):
        g = graphs.path_graph(30)
        layered = build_layered_cover(g, 29, base=4, stretch=3)
        if len(layered.levels) < 2:
            pytest.skip("single level")
        victim = layered.levels[0].clusters[0]
        del layered.parent_of[victim.cid]
        with pytest.raises(ValidationError):
            validate_layered_cover(g, layered)
