"""Tests for level sampling and the materialized simulated graph H (Sec. 4)."""

import warnings

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter
from repro.hopsets import hub_hopset, identity_hopset, rounded_hopset
from repro.simulated import SimulatedGraph, sample_levels
from repro.simulated.levels import edge_level, level_masks
from repro.simulated.hgraph import minplus_matmul, spd_of_weight_matrix


class TestLevels:
    def test_shapes_and_range(self):
        levels, Lambda = sample_levels(100, rng=0)
        assert levels.shape == (100,)
        assert levels.min() >= 0
        assert Lambda == levels.max()

    def test_reproducible(self):
        a, _ = sample_levels(50, rng=3)
        b, _ = sample_levels(50, rng=3)
        assert np.array_equal(a, b)

    def test_geometric_distribution(self):
        # ~half the nodes at level 0, ~quarter at level 1, ...
        levels, _ = sample_levels(200_000, rng=1)
        frac0 = np.mean(levels == 0)
        frac1 = np.mean(levels == 1)
        assert abs(frac0 - 0.5) < 0.01
        assert abs(frac1 - 0.25) < 0.01

    def test_lambda_logarithmic(self):
        # Lemma 4.1: Λ ∈ O(log n) w.h.p.
        for seed in range(5):
            _, Lambda = sample_levels(4096, rng=seed)
            assert Lambda <= 3 * np.log2(4096)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_levels(0)

    def test_edge_level(self):
        levels = np.array([0, 2, 1])
        assert edge_level(levels, 0, 1) == 0
        assert edge_level(levels, 1, 2) == 1
        assert np.array_equal(
            edge_level(levels, np.array([0, 1]), np.array([1, 2])), [0, 1]
        )

    def test_level_masks(self):
        levels = np.array([0, 2, 1])
        masks = level_masks(levels, 2)
        assert masks[0].all()
        assert masks[1].tolist() == [False, True, True]
        assert masks[2].tolist() == [False, True, False]


class TestMinPlusKernels:
    def test_matmul_identity_like(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        D = minplus_matmul(W, W)
        assert D.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_matmul_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0, 10, (7, 7))
        B = rng.uniform(0, 10, (7, 7))
        got = minplus_matmul(A, B, block=3)
        want = np.min(A[:, :, None] + B[None, :, :], axis=1)
        assert np.allclose(got, want)

    def test_spd_of_cycle_matrix(self):
        g = gen.cycle(12, rng=0)
        W = np.full((12, 12), np.inf)
        for (u, v), w in zip(g.edges, g.weights):
            W[u, v] = W[v, u] = w
        np.fill_diagonal(W, 0.0)
        assert spd_of_weight_matrix(W) == 6

    def test_spd_of_complete_metric_is_one(self):
        g = gen.random_graph(10, 30, rng=1)
        D = dijkstra_distances(g)
        assert spd_of_weight_matrix(D) == 1


class TestSimulatedGraph:
    def _make(self, n=24, eps=0.3, seed=0):
        g = gen.cycle(n, wmin=1, wmax=2, rng=seed)
        base = hub_hopset(g, d0=4, rng=seed + 1)
        hop = rounded_hopset(base, g, eps=eps)
        H = SimulatedGraph.build(hop, rng=seed + 2)
        return g, hop, H

    def test_dominance(self):
        # Eq. (4.14) lower bound: dist_H >= dist_G.
        g, hop, H = self._make()
        lo, hi = H.distortion_vs(g)
        assert lo >= 1.0 - 1e-9

    def test_distortion_upper_bound(self):
        # Eq. (4.15): dist_H <= (1+eps)^(Λ+1) dist_G.
        g, hop, H = self._make(eps=0.3)
        _, hi = H.distortion_vs(g)
        assert hi <= (1.0 + hop.eps) ** (H.Lambda + 1) + 1e-9

    def test_weight_formula(self):
        g, hop, H = self._make()
        from repro.graph.shortest_paths import hop_limited_distances

        Dd = hop_limited_distances(hop.graph, hop.d)
        lam = min(H.levels[3], H.levels[7])
        want = (1.0 + hop.eps) ** (H.Lambda - lam) * Dd[3, 7]
        assert H.edge_weight(3, 7) == pytest.approx(want)

    def test_diagonal_zero(self):
        _, _, H = self._make()
        assert np.all(np.diag(H.weights) == 0)

    def test_spd_small(self):
        # Theorem 4.5: SPD(H) ∈ O(log² n); on n=24 it must be far below
        # SPD(G) = 12 of the cycle.
        g, hop, H = self._make()
        assert H.spd() <= 12

    def test_h_distance_metric(self):
        # dist(·,·,H) is a true metric — triangle inequality restored.
        from repro.hopsets.verify import count_triangle_violations

        g, hop, H = self._make()
        DH = H.distances()
        assert count_triangle_violations(DH) == 0

    def test_exact_hopset_gives_spd_one_with_no_penalty(self):
        # eps = 0: H is the exact metric; SPD(H) = 1 regardless of levels.
        g = gen.cycle(16, rng=4)
        hop = hub_hopset(g, d0=3, rng=5)
        H = SimulatedGraph.build(hop, rng=6)
        assert H.penalty_base == 1.0
        assert H.spd() == 1

    def test_custom_levels_validated(self):
        g = gen.cycle(8, rng=0)
        hop = identity_hopset(g)
        with pytest.raises(ValueError):
            SimulatedGraph.build(hop, levels=np.array([0, 1]))
        with pytest.raises(ValueError):
            SimulatedGraph.build(hop, levels=-np.ones(8, dtype=np.int64))

    def test_penalty_base_validated(self):
        """Refused before any distance is computed: NaN and inf would give
        non-finite level weights."""
        g = gen.cycle(8, rng=0)
        hop = identity_hopset(g)
        for base in (float("nan"), float("inf"), 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="penalty_base must be finite and >= 1"):
                    SimulatedGraph.build(hop, penalty_base=base)

    def test_size_guard(self):
        g = gen.cycle(8, rng=0)
        hop = identity_hopset(g)
        old = SimulatedGraph.MAX_N
        try:
            SimulatedGraph.MAX_N = 4
            with pytest.raises(ValueError):
                SimulatedGraph.build(hop)
        finally:
            SimulatedGraph.MAX_N = old

    def test_to_graph_round_trip(self):
        g, hop, H = self._make(n=12)
        GH = H.to_graph()
        assert GH.n == 12
        assert GH.m == 12 * 11 // 2
        D1 = dijkstra_distances(GH)
        assert np.allclose(D1, H.distances())

    def test_identity_hopset_high_spd_baseline(self):
        # With d=1 (no shortcuts, H = G itself up to infinite non-edges) and
        # no penalties, SPD(H) equals SPD(G) — the E12 ablation control arm.
        g = gen.cycle(16, rng=7)
        hop = identity_hopset(g, d=1)
        H = SimulatedGraph.build(
            hop, levels=np.zeros(16, dtype=np.int64), penalty_base=1.0
        )
        assert H.spd() == shortest_path_diameter(g)

    def test_identity_hopset_full_d_gives_metric(self):
        # With d = SPD(G), dist^d is exact, so H is the metric: SPD(H) = 1.
        g = gen.cycle(16, rng=7)
        hop = identity_hopset(g)
        H = SimulatedGraph.build(
            hop, levels=np.zeros(16, dtype=np.int64), penalty_base=1.0
        )
        assert H.spd() == 1
