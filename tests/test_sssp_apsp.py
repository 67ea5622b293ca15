"""SSSP public API and the random-delay APSP scheduler."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.testing import assert_distances_equal, small_weighted_graph
from repro import graphs
from repro.core.apsp import apsp, schedule_with_random_delays
from repro.core.sssp import sssp, sssp_distances
from repro.graphs import INFINITY
from collections import Counter


class TestSSSP:
    def test_distances_match_oracle(self):
        g = small_weighted_graph(22, 1)
        result = sssp(g, 0)
        assert_distances_equal(result.distances, g.dijkstra([0]), "sssp")

    def test_result_accessors(self):
        g = graphs.path_graph(5)
        result = sssp(g, 0)
        assert result.source == 0
        assert result.distance(4) == 4
        assert result.reachable() == set(range(5))
        assert result.rounds > 0
        assert result.messages > 0
        assert result.congestion >= 1

    def test_unreachable_excluded_from_reachable(self):
        from repro.graphs import Graph

        g = Graph.from_edges([(0, 1, 2)], nodes=[5])
        result = sssp(g, 0)
        assert 5 not in result.reachable()
        assert result.distance(5) == INFINITY

    def test_distances_only_helper(self):
        g = graphs.path_graph(4)
        assert sssp_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_deterministic(self):
        g = small_weighted_graph(15, 2)
        a = sssp(g, 0)
        b = sssp(g, 0)
        assert a.distances == b.distances
        assert a.metrics.summary() == b.metrics.summary()


class TestAPSP:
    def test_all_pairs_exact(self):
        g = small_weighted_graph(12, 3)
        result = apsp(g, seed=1)
        for s in g.nodes():
            truth = g.dijkstra([s])
            for v in g.nodes():
                assert result.distance(s, v) == truth[v]

    def test_symmetry(self):
        g = small_weighted_graph(10, 4)
        result = apsp(g, seed=2)
        for u in g.nodes():
            for v in g.nodes():
                assert result.distance(u, v) == result.distance(v, u)

    def test_per_source_results_present(self):
        g = graphs.path_graph(6)
        result = apsp(g, seed=3)
        assert set(result.per_source) == set(g.nodes())

    def test_schedule_feasible_at_log_capacity(self):
        g = small_weighted_graph(16, 5)
        result = apsp(g, seed=4)
        assert result.schedule.feasible, (
            result.schedule.max_slot_load, result.schedule.capacity,
        )

    def test_makespan_at_most_delay_window_plus_duration(self):
        g = small_weighted_graph(10, 6)
        result = apsp(g, seed=5)
        longest = max(r.rounds for r in result.per_source.values())
        assert result.schedule.makespan <= 2 * longest

    def test_concurrent_makespan_beats_sequential(self):
        g = small_weighted_graph(14, 7)
        result = apsp(g, seed=6)
        sequential = sum(r.rounds for r in result.per_source.values())
        assert result.schedule.makespan < sequential / 2


class TestScheduler:
    def test_single_instance(self):
        traces = {0: Counter({(("a", "b"), 5): 1})}
        report = schedule_with_random_delays(traces, {0: 10}, window=1, capacity=1, seed=0)
        assert report.makespan == 10
        assert report.max_slot_load == 1
        assert report.feasible

    def test_collision_detection(self):
        trace = Counter({(("a", "b"), 0): 1})
        traces = {i: trace for i in range(5)}
        report = schedule_with_random_delays(
            traces, {i: 1 for i in range(5)}, window=1, capacity=1, seed=0
        )
        # window=1 forces all delays to 0: five messages share one slot.
        assert report.max_slot_load == 5
        assert not report.feasible

    def test_spreading_with_window(self):
        trace = Counter({(("a", "b"), 0): 1})
        traces = {i: trace for i in range(20)}
        report = schedule_with_random_delays(
            traces, {i: 1 for i in range(20)}, window=100, capacity=3, seed=1
        )
        assert report.max_slot_load <= 3

    def test_empty(self):
        report = schedule_with_random_delays({}, {}, window=5, capacity=1, seed=0)
        assert report.makespan == 0
        assert report.feasible

    def test_delays_within_window(self):
        traces = {i: Counter() for i in range(10)}
        report = schedule_with_random_delays(
            traces, {i: 0 for i in range(10)}, window=7, capacity=1, seed=2
        )
        assert all(0 <= d < 7 for d in report.delays.values())


def naive_schedule(traces, durations, window, seed):
    """The superposition spelled out: one ``Counter`` increment per key."""
    rng = random.Random(seed)
    delays = {i: rng.randrange(max(1, window)) for i in traces}
    load = Counter()
    for i, trace in traces.items():
        for (edge, round_number), count in trace.items():
            load[(edge, round_number + delays[i])] += count
    makespan = max((delays[i] + durations[i] for i in traces), default=0)
    return makespan, max(load.values(), default=0), delays


_edges = st.sampled_from([("a", "b"), ("b", "a"), ("b", "c"), (0, 1), (1, 0)])
_traces = st.dictionaries(
    st.integers(0, 12),
    st.dictionaries(st.tuples(_edges, st.integers(0, 20)), st.integers(1, 4), max_size=12),
    max_size=8,
)


@settings(max_examples=120, deadline=None)
@given(traces=_traces, window=st.integers(0, 15), seed=st.integers(0, 1000),
       extra=st.integers(0, 30))
def test_schedule_matches_naive_superposition(traces, window, seed, extra):
    traces = {i: Counter(trace) for i, trace in traces.items()}
    durations = {i: extra + i for i in traces}
    report = schedule_with_random_delays(
        traces, durations, window=window, capacity=2, seed=seed
    )
    assert (report.makespan, report.max_slot_load, report.delays) == naive_schedule(
        traces, durations, window, seed
    )
