"""Tests for semiring matrix computations (the Section 1.1 baseline)."""

import math

import numpy as np
import pytest

from repro.algebra import BooleanSemiring, MaxMin, MinPlus
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter
from repro.mbf.matrix import (
    distance_matrix_by_squaring,
    min_plus_adjacency,
    semiring_matmul,
    semiring_matrix_power,
)
from repro.pram import CostLedger


class TestMinPlusAdjacency:
    def test_structure(self):
        g = gen.path_graph(4)
        A = min_plus_adjacency(g)
        assert np.all(np.diag(A) == 0)
        assert A[0, 1] == 1.0 and np.isinf(A[0, 2])
        assert np.array_equal(A, A.T)


class TestSquaring:
    def test_matches_dijkstra(self, small_graphs):
        for g in small_graphs:
            D, _ = distance_matrix_by_squaring(g)
            assert np.allclose(D, dijkstra_distances(g))

    def test_squarings_log_of_spd(self, small_graphs):
        # Fixpoint after ceil(log2(SPD)) squarings [15].
        for g in small_graphs:
            spd = shortest_path_diameter(g)
            _, sq = distance_matrix_by_squaring(g)
            assert sq <= max(1, math.ceil(math.log2(max(spd, 1)))) + 1

    def test_path_graph_exact_squarings(self):
        g = gen.path_graph(17)  # SPD = 16
        _, sq = distance_matrix_by_squaring(g)
        assert sq == 4  # 2^4 = 16

    def test_cubic_work_charged(self):
        g = gen.cycle(16, rng=0)
        ledger = CostLedger()
        distance_matrix_by_squaring(g, ledger=ledger)
        n = 16
        # at least one squaring at n^3 work; depth stays logarithmic/squaring
        assert ledger.work >= n**3
        assert ledger.depth <= 20 * math.ceil(math.log2(n))

    def test_work_comparison_vs_le_pipeline(self):
        # The paper's Section 1.1 point: squaring pays Ω(n³) even on sparse
        # graphs, the MBF-like pipeline does not.
        from repro.api import EmbeddingConfig, Pipeline, PipelineConfig

        direct = PipelineConfig(embedding=EmbeddingConfig(method="direct"))

        g = gen.random_graph(128, 3 * 128, rng=1)
        l_sq, l_le = CostLedger(), CostLedger()
        distance_matrix_by_squaring(g, ledger=l_sq)
        Pipeline(g, direct, rng=2).sample(ledger=l_le)
        assert l_le.work < l_sq.work / 4


class TestGenericSemiringMatrices:
    def test_boolean_reachability(self):
        g = gen.path_graph(4)
        B = BooleanSemiring()
        A = [[(i == j) or g.has_edge(i, j) for j in range(4)] for i in range(4)]
        A2 = semiring_matrix_power(B, A, 2)
        assert A2[0][2] is True or A2[0][2] == 1
        assert not A2[0][3]
        A3 = semiring_matrix_power(B, A, 3)
        assert A3[0][3]

    def test_maxmin_widest_paths(self):
        # Widest path on a 3-path with widths 5, 2: width(0,2) = 2.
        from repro.graph.core import Graph

        g = Graph.from_edge_list(3, [(0, 1, 5.0), (1, 2, 2.0)])
        S = MaxMin()
        A = [
            [S.one if i == j else (float(g.adjacency()[i, j]) or S.zero) for j in range(3)]
            for i in range(3)
        ]
        A2 = semiring_matrix_power(S, A, 2)
        assert A2[0][2] == 2.0

    def test_minplus_power_equals_hop_limited(self):
        from repro.graph.shortest_paths import hop_limited_distances

        g = gen.cycle(6, rng=0)
        S = MinPlus()
        A = min_plus_adjacency(g).tolist()
        for h in (1, 2, 3):
            Ah = semiring_matrix_power(S, A, h)
            want = hop_limited_distances(g, h)
            assert np.allclose(np.array(Ah), want)

    def test_dimension_validation(self):
        S = MinPlus()
        with pytest.raises(ValueError):
            semiring_matmul(S, [[0.0, 1.0]], [[0.0, 1.0]])

    def test_power_validation(self):
        S = MinPlus()
        with pytest.raises(ValueError):
            semiring_matrix_power(S, [[0.0]], 0)
