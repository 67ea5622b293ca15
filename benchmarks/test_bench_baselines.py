"""E8 — head-to-head: the paper's SSSP vs Bellman-Ford vs naive Dijkstra.

One table per size with all four currencies.  Shape claims: Dijkstra's
time is worst (O(nD)); Bellman-Ford's congestion is worst (Theta(n));
the recursion's congestion wins on dense graphs while staying ~O(n) time.
"""

from _bench import record_table, run_once
from repro import graphs, run_bellman_ford, run_distributed_dijkstra, sssp
from repro.sim import Metrics

SIZES = [16, 24, 32, 48]


def run_sweep():
    rows = []
    summary = []
    for n in SIZES:
        g = graphs.random_weights(
            graphs.random_connected_graph(n, extra_edge_prob=4.0 / n, seed=n), 9, seed=n
        )
        res = sssp(g, 0)
        m_bf, m_dij = Metrics(), Metrics()
        run_bellman_ford(g, 0, metrics=m_bf)
        run_distributed_dijkstra(g, 0, metrics=m_dij)
        for name, m in (
            ("cssp-sssp", res.metrics), ("bellman-ford", m_bf), ("dijkstra", m_dij)
        ):
            rows.append([n, name, m.rounds, m.total_messages, m.max_congestion])
        summary.append((n, res.metrics, m_bf, m_dij))
    return rows, summary


def test_e8_baseline_comparison(benchmark):
    rows, summary = run_once(benchmark, run_sweep)
    record_table(
        "E8_baselines",
        "E8: SSSP implementations head-to-head",
        ["n", "algorithm", "rounds", "messages", "congestion"],
        rows,
    )
    for n, ours, bf, dij in summary:
        # Bellman-Ford congestion ~ Theta(n) is the worst of the three.
        assert bf.max_congestion >= max(8, n // 3), (n, bf.max_congestion)
        # Dijkstra burns the most rounds once n is non-trivial.
        assert dij.rounds > bf.rounds, (n, dij.rounds, bf.rounds)
    # At the largest size, our congestion beats Bellman-Ford's relative to n:
    n, ours, bf, _ = summary[-1]
    assert ours.max_congestion / n < bf.max_congestion / (n / 4), (
        ours.max_congestion, bf.max_congestion,
    )
