"""Tests for the Graph data structure."""

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.core import Graph
from tests.conftest import triangle_graph


class TestConstruction:
    def test_basic(self):
        g = triangle_graph()
        assert g.n == 3
        assert g.m == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)], [1.0])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError, match="parallel"):
            Graph(3, [(0, 1), (1, 0)], [1.0, 2.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weights"):
            Graph(2, [(0, 1)], [0.0])
        with pytest.raises(ValueError, match="weights"):
            Graph(2, [(0, 1)], [-1.0])

    def test_rejects_infinite_weight(self):
        with pytest.raises(ValueError, match="weights"):
            Graph(2, [(0, 1)], [np.inf])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 5)], [1.0])

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Graph(3, [(0, 1)], [1.0, 2.0])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            Graph(0, np.empty((0, 2), dtype=np.int64), [])

    def test_edgeless_graph_allowed(self):
        g = Graph(3, np.empty((0, 2), dtype=np.int64), [])
        assert g.m == 0
        assert not g.is_connected()

    def test_from_edge_list(self):
        g = Graph.from_edge_list(4, [(0, 1, 2.0), (2, 3, 1.5)])
        assert g.m == 2
        assert g.weights.tolist() == [2.0, 1.5]

    def test_from_edge_list_empty(self):
        g = Graph.from_edge_list(2, [])
        assert g.m == 0


class TestAccessors:
    def test_adjacency_symmetric(self):
        g = triangle_graph()
        A = g.adjacency().toarray()
        assert np.array_equal(A, A.T)
        assert A[0, 1] == 1.0 and A[1, 2] == 2.0 and A[0, 2] == 4.0

    def test_neighbors(self):
        g = triangle_graph()
        ids, w = g.neighbors(1)
        assert sorted(ids.tolist()) == [0, 2]
        assert sorted(w.tolist()) == [1.0, 2.0]

    def test_degrees(self):
        g = Graph.from_edge_list(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        assert g.degrees().tolist() == [3, 1, 1, 1]

    def test_directed_edges_both_orientations(self):
        g = triangle_graph()
        src, dst, w = g.directed_edges()
        assert src.size == 2 * g.m
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_directed_edges_grouped_by_target(self):
        g = generators.random_graph(30, 70, wmin=1.0, wmax=5.0, rng=5)
        src, dst, w = g.directed_edges()
        assert np.all(np.diff(dst) >= 0)
        # Both orientations of every edge, each with the edge's weight.
        u, v = g.edges[:, 0], g.edges[:, 1]
        raw_src, raw_dst = np.concatenate([u, v]), np.concatenate([v, u])
        raw_w = np.concatenate([g.weights, g.weights])
        assert sorted(zip(src.tolist(), dst.tolist(), w.tolist())) == sorted(
            zip(raw_src.tolist(), raw_dst.tolist(), raw_w.tolist())
        )
        # Stable: within a target, the u -> v orientations in storage
        # order, then the v -> u ones.
        for t in range(g.n):
            assert src[dst == t].tolist() == raw_src[raw_dst == t].tolist()
            assert w[dst == t].tolist() == raw_w[raw_dst == t].tolist()

    def test_weight_bounds(self):
        g = triangle_graph()
        assert g.weight_bounds() == (1.0, 4.0)

    def test_is_connected(self):
        assert triangle_graph().is_connected()
        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not g.is_connected()

    def test_single_vertex_connected(self):
        g = Graph(1, np.empty((0, 2), dtype=np.int64), [])
        assert g.is_connected()

    def test_has_edge(self):
        g = triangle_graph()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        g2 = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not g2.has_edge(0, 3)


class TestNetworkxRoundTrip:
    def test_round_trip(self):
        g = triangle_graph()
        g2 = Graph.from_networkx(g.to_networkx())
        assert g == g2

    def test_default_weight(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(range(2))
        nxg.add_edge(0, 1)
        g = Graph.from_networkx(nxg)
        assert g.weights[0] == 1.0


class TestWithExtraEdges:
    def test_adds_new_edges(self):
        g = Graph.from_edge_list(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        g2 = g.with_extra_edges(np.array([[0, 3]]), np.array([2.5]))
        assert g2.m == 4
        assert g2.has_edge(0, 3)

    def test_duplicate_keeps_min_weight(self):
        g = Graph.from_edge_list(3, [(0, 1, 5.0), (1, 2, 1.0)])
        g2 = g.with_extra_edges(np.array([[1, 0]]), np.array([2.0]))
        assert g2.m == 2
        A = g2.adjacency()
        assert A[0, 1] == 2.0

    def test_duplicate_does_not_increase_weight(self):
        g = Graph.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
        g2 = g.with_extra_edges(np.array([[0, 1]]), np.array([10.0]))
        assert g2.adjacency()[0, 1] == 1.0

    def test_empty_extra(self):
        g = triangle_graph()
        g2 = g.with_extra_edges(np.empty((0, 2), dtype=np.int64), np.empty(0))
        assert g == g2

    def test_rejects_self_loop_extra(self):
        g = triangle_graph()
        with pytest.raises(ValueError):
            g.with_extra_edges(np.array([[1, 1]]), np.array([1.0]))

    def test_original_untouched(self):
        g = triangle_graph()
        g.with_extra_edges(np.array([[0, 1]]), np.array([0.1]))
        assert g.adjacency()[0, 1] == 1.0

    def test_rejects_invalid_extra_weights(self):
        """Regression: the result is built with ``validate=False``, so a
        buggy hop set could previously inject zero/negative/inf/NaN
        weights silently; extra weights are now validated up front."""
        g = triangle_graph()
        for bad in (0.0, -1.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and > 0"):
                g.with_extra_edges(np.array([[0, 1]]), np.array([bad]))

    def test_rejects_out_of_range_extra_endpoint(self):
        g = triangle_graph()
        with pytest.raises(ValueError, match="out of range"):
            g.with_extra_edges(np.array([[0, 3]]), np.array([1.0]))
        with pytest.raises(ValueError, match="out of range"):
            g.with_extra_edges(np.array([[-1, 1]]), np.array([1.0]))

    def test_rejects_extra_count_mismatch(self):
        g = triangle_graph()
        with pytest.raises(ValueError, match="mismatch"):
            g.with_extra_edges(np.array([[0, 1]]), np.array([1.0, 2.0]))


class TestEquality:
    def test_equal_regardless_of_edge_order(self):
        a = Graph.from_edge_list(3, [(0, 1, 1.0), (1, 2, 2.0)])
        b = Graph.from_edge_list(3, [(2, 1, 2.0), (1, 0, 1.0)])
        assert a == b

    def test_unequal_weights(self):
        a = Graph.from_edge_list(3, [(0, 1, 1.0)])
        b = Graph.from_edge_list(3, [(0, 1, 2.0)])
        assert a != b

    def test_non_graph_comparison(self):
        assert triangle_graph() != 42
