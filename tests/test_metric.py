"""Tests for spanners and approximate metrics (Section 6)."""

import numpy as np
import pytest

from repro.api import HopsetConfig, Pipeline, PipelineConfig
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances
from repro.hopsets.verify import count_triangle_violations
from repro.metric import approximate_metric_spanner, baswana_sen_spanner


def _metric(g, *, eps=0.25, d0=None, rng=None):
    """Theorem 6.1 through the pipeline: the metric of a hub hop set."""
    config = PipelineConfig(hopset=HopsetConfig(eps=eps, d0=d0))
    return Pipeline(g, config, rng=rng).embed_metric()


class TestBaswanaSenSpanner:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stretch_bound_deterministic(self, k):
        # The 2k-1 stretch holds with certainty; exhaustive check.
        for seed in range(4):
            g = gen.random_graph(30, 120, rng=seed)
            sp = baswana_sen_spanner(g, k, rng=seed + 100)
            DG = dijkstra_distances(g)
            DS = dijkstra_distances(sp)
            off = ~np.eye(g.n, dtype=bool)
            assert np.all(DS[off] >= DG[off] - 1e-9)  # subgraph: no shortcuts
            assert np.all(DS[off] <= (2 * k - 1) * DG[off] + 1e-9)

    def test_k1_returns_graph_itself(self):
        g = gen.random_graph(12, 30, rng=0)
        sp = baswana_sen_spanner(g, 1, rng=1)
        assert sp == g

    def test_spanner_is_subgraph(self):
        g = gen.random_graph(25, 100, rng=2)
        sp = baswana_sen_spanner(g, 3, rng=3)
        A = g.adjacency()
        for (u, v), w in zip(sp.edges, sp.weights):
            assert A[u, v] == pytest.approx(w)

    def test_sparsification_on_dense_graph(self):
        n = 64
        g = gen.complete_graph(n, rng=4)
        sizes = [baswana_sen_spanner(g, 3, rng=s).m for s in range(5)]
        # k=3: expected O(k n^{1+1/3}) ≈ 3·n^{4/3} ≈ 770 ≪ 2016 = m.
        assert np.mean(sizes) < g.m / 2

    def test_spanner_connected(self):
        for seed in range(3):
            g = gen.random_graph(30, 90, rng=seed)
            sp = baswana_sen_spanner(g, 2, rng=seed)
            assert sp.is_connected()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            baswana_sen_spanner(gen.cycle(5), 0)

    def test_deterministic_given_seed(self):
        g = gen.random_graph(20, 60, rng=5)
        a = baswana_sen_spanner(g, 2, rng=7)
        b = baswana_sen_spanner(g, 2, rng=7)
        assert a == b


class TestApproximateMetric:
    def test_is_metric_and_approximates(self):
        g = gen.cycle(24, wmin=1, wmax=3, rng=0)
        res = _metric(g, eps=0.25, d0=4, rng=1)
        D = dijkstra_distances(g)
        off = ~np.eye(g.n, dtype=bool)
        # dominance and claimed stretch
        assert np.all(res.matrix[off] >= D[off] - 1e-9)
        assert np.all(res.matrix[off] <= res.stretch_bound * D[off] + 1e-9)
        # a true metric: zero triangle violations (unlike raw d-hop dists)
        assert count_triangle_violations(res.matrix) == 0

    def test_small_eps_near_exact(self):
        g = gen.grid(4, 5, rng=2)
        res = _metric(g, eps=0.01, d0=3, rng=3)
        D = dijkstra_distances(g)
        off = ~np.eye(g.n, dtype=bool)
        assert np.all(res.matrix[off] <= 1.25 * D[off])

    def test_eps_zero_exact(self):
        g = gen.cycle(16, rng=4)
        res = _metric(g, eps=0.0, d0=3, rng=5)
        assert res.matrix == pytest.approx(dijkstra_distances(g))
        assert res.iterations == 1

    def test_iterations_polylog(self):
        g = gen.cycle(48, rng=6)
        res = _metric(g, eps=0.25, d0=5, rng=7)
        assert res.iterations <= int(np.log2(g.n) ** 2)

    def test_query_interface(self):
        g = gen.path_graph(6)
        res = _metric(g, eps=0.0, d0=2, rng=8)
        assert res.query(0, 5) == pytest.approx(5.0)
        assert res.n == 6

    def test_symmetry(self):
        g = gen.random_graph(20, 50, rng=9)
        res = _metric(g, eps=0.25, d0=4, rng=10)
        assert np.allclose(res.matrix, res.matrix.T)

    def test_disconnected_rejected(self):
        from repro.graph.core import Graph

        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="pipeline requires a connected graph"):
            _metric(g)


class TestApproximateMetricSpanner:
    def test_combined_guarantee(self):
        g = gen.complete_graph(32, rng=0)
        k = 2
        res = approximate_metric_spanner(g, k, eps=0.1, d0=4, rng=1)
        D = dijkstra_distances(g)
        off = ~np.eye(g.n, dtype=bool)
        assert np.all(res.matrix[off] >= D[off] - 1e-9)
        assert np.all(res.matrix[off] <= res.stretch_bound * D[off] + 1e-9)

    def test_meta_records_sparsification(self):
        g = gen.complete_graph(40, rng=2)
        res = approximate_metric_spanner(g, 3, eps=0.1, d0=4, rng=3)
        assert res.meta["spanner_k"] == 3
        assert res.meta["spanner_edges"] < res.meta["original_edges"]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            approximate_metric_spanner(gen.cycle(6), 0)

    def test_negative_eps_rejected(self):
        # The spanner's metric comes from the pipeline, whose HopsetConfig
        # rejects a negative eps.
        with pytest.raises(ValueError, match="eps must be non-negative"):
            approximate_metric_spanner(gen.cycle(6, rng=0), 2, eps=-0.1)
