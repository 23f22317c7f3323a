"""Tests for the k-median pipeline (Section 9)."""

import itertools

import numpy as np
import pytest

from repro.apps.batched import hst_kmedian_dp_forest
from repro.apps.kmedian import (
    kmedian,
    kmedian_cost,
    kmedian_greedy,
    kmedian_random,
    successive_sampling,
)
from repro.api import EmbeddingConfig, Pipeline, PipelineConfig
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances
from tests import apps_reference
from tests.frt_reference import distance_matrix

DIRECT = PipelineConfig(embedding=EmbeddingConfig(method="direct"))


def hst_kmedian_dp(tree, weights, k, *, allowed=None):
    """The library DP on one tree (a ``k = 1`` forest), checked bit for bit
    against the per-tree reference loop."""
    costs, facs = hst_kmedian_dp_forest(tree, weights, k, allowed=allowed)
    want_cost, want_fac = apps_reference.hst_kmedian_dp(tree, weights, k, allowed=allowed)
    assert costs[0] == want_cost and np.array_equal(facs[0], want_fac)
    return float(costs[0]), facs[0]


def brute_force_kmedian(G, k):
    """Exact optimum by enumeration (tiny n only)."""
    best = (np.inf, None)
    D = dijkstra_distances(G)
    for subset in itertools.combinations(range(G.n), k):
        cost = D[list(subset)].min(axis=0).sum()
        if cost < best[0]:
            best = (cost, np.array(subset))
    return best


class TestKMedianCost:
    def test_single_facility_star(self):
        g = gen.star(6)
        assert kmedian_cost(g, np.array([0])) == 5.0  # center serves all

    def test_all_facilities_zero(self):
        g = gen.cycle(8, rng=0)
        assert kmedian_cost(g, np.arange(8)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kmedian_cost(gen.cycle(5), np.array([], dtype=np.int64))


class TestSuccessiveSampling:
    def test_size_bound(self):
        g = gen.random_graph(200, 500, rng=0)
        Q = successive_sampling(g, 4, rng=1)
        assert Q.size <= 8 * 4 * np.log2(200 / 4) + 40
        assert Q.size >= 4

    def test_candidates_valid(self):
        g = gen.grid(8, 8, rng=1)
        Q = successive_sampling(g, 3, rng=2)
        assert np.all((0 <= Q) & (Q < g.n))
        assert np.unique(Q).size == Q.size

    def test_candidates_contain_good_solution(self):
        # O(1)-approx promise, checked loosely against the true optimum.
        g = gen.random_graph(30, 80, rng=3)
        k = 3
        opt_cost, _ = brute_force_kmedian(g, k)
        ratios = []
        for seed in range(5):
            Q = successive_sampling(g, k, rng=seed)
            best = np.inf
            D = dijkstra_distances(g, Q)
            # greedy over candidates as a cheap evaluator of Q's quality
            cur = np.full(g.n, np.inf)
            for _ in range(k):
                totals = np.minimum(cur[None, :], D).sum(axis=1)
                f = int(np.argmin(totals))
                cur = np.minimum(cur, D[f])
            ratios.append(cur.sum() / opt_cost)
        assert np.mean(ratios) <= 4.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            successive_sampling(gen.cycle(5), 0)


class TestHSTDP:
    def _tree_and_weights(self, n=10, seed=0):
        g = gen.random_graph(n, 2 * n, rng=seed)
        emb = Pipeline(g, DIRECT, rng=seed + 1).sample()
        w = np.random.default_rng(seed).uniform(0.0, 3.0, n)
        return emb.tree, w

    def brute_force_on_tree(self, tree, weights, k, allowed=None):
        n = tree.n
        cand = range(n) if allowed is None else np.flatnonzero(allowed)
        best = (np.inf, None)
        M = distance_matrix(tree)
        for j in range(1, k + 1):
            for subset in itertools.combinations(cand, j):
                cost = float((M[:, list(subset)].min(axis=1) * weights).sum())
                if cost < best[0]:
                    best = (cost, subset)
        return best

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_optimal_vs_bruteforce(self, k):
        tree, w = self._tree_and_weights(n=9, seed=4)
        want_cost, _ = self.brute_force_on_tree(tree, w, k)
        got_cost, fac = hst_kmedian_dp(tree, w, k)
        assert got_cost == pytest.approx(want_cost)
        # facilities actually realize the claimed cost
        M = distance_matrix(tree)
        realized = float((M[:, fac].min(axis=1) * w).sum())
        assert realized == pytest.approx(got_cost)
        assert 1 <= fac.size <= k

    def test_restricted_facilities(self):
        tree, w = self._tree_and_weights(n=8, seed=5)
        allowed = np.zeros(8, dtype=bool)
        allowed[[0, 3, 6]] = True
        want_cost, _ = self.brute_force_on_tree(tree, w, 2, allowed)
        got_cost, fac = hst_kmedian_dp(tree, w, 2, allowed=allowed)
        assert got_cost == pytest.approx(want_cost)
        assert set(fac).issubset({0, 3, 6})

    def test_k_covers_everything(self):
        tree, w = self._tree_and_weights(n=7, seed=6)
        cost, fac = hst_kmedian_dp(tree, w, 7)
        positive = np.flatnonzero(w > 0)
        assert cost == pytest.approx(0.0)
        assert set(positive).issubset(set(fac))

    def test_zero_weights_ignored(self):
        tree, _ = self._tree_and_weights(n=6, seed=7)
        w = np.zeros(6)
        cost, _ = hst_kmedian_dp(tree, w, 1)
        assert cost == 0.0

    def test_validation(self):
        tree, w = self._tree_and_weights(n=6, seed=8)
        with pytest.raises(ValueError):
            hst_kmedian_dp(tree, w[:3], 1)
        with pytest.raises(ValueError):
            hst_kmedian_dp(tree, w, 0)
        with pytest.raises(ValueError):
            hst_kmedian_dp(tree, w, 1, allowed=np.zeros(6, dtype=bool))

    # -- edge cases that anchor the batched-forest parity suite ------------

    def test_all_disallowed_but_one(self):
        tree, w = self._tree_and_weights(n=9, seed=20)
        only = 4
        allowed = np.zeros(9, dtype=bool)
        allowed[only] = True
        for k in (1, 3):
            cost, fac = hst_kmedian_dp(tree, w, k, allowed=allowed)
            assert np.array_equal(fac, [only])
            M = distance_matrix(tree)
            assert cost == pytest.approx(float((M[:, only] * w).sum()))

    def test_zero_weight_clients_do_not_pay(self):
        tree, w = self._tree_and_weights(n=8, seed=21)
        w[[1, 5, 6]] = 0.0
        cost, fac = hst_kmedian_dp(tree, w, 2)
        M = distance_matrix(tree)
        realized = float((M[:, fac].min(axis=1) * w).sum())
        assert cost == pytest.approx(realized)
        want_cost, _ = self.brute_force_on_tree(tree, w, 2)
        assert cost == pytest.approx(want_cost)

    def test_k_at_least_allowed_leaves(self):
        # More facilities than allowed sites: the DP opens every allowed
        # site whose subtree carries weight; cost equals the 2-site optimum.
        tree, w = self._tree_and_weights(n=8, seed=22)
        allowed = np.zeros(8, dtype=bool)
        allowed[[2, 7]] = True
        cost, fac = hst_kmedian_dp(tree, w, 5, allowed=allowed)
        assert set(fac).issubset({2, 7})
        want_cost, _ = self.brute_force_on_tree(tree, w, 2, allowed)
        assert cost == pytest.approx(want_cost)

    def test_single_vertex_graph(self):
        from tests.frt_reference import build_frt_tree
        from repro.frt.lelists import compute_le_lists_batch
        from repro.graph.core import Graph

        g = Graph.from_edge_list(1, [])
        ranks = np.zeros((1, 1), dtype=np.int64)
        lists, _ = compute_le_lists_batch(g, ranks)
        tree = build_frt_tree(
            lists.sample_states(0), ranks[0], 1.5, g.weight_bounds()[0]
        )
        cost, fac = hst_kmedian_dp(tree, np.array([3.0]), 1)
        assert cost == 0.0
        assert np.array_equal(fac, [0])


class TestKMedianPipeline:
    def test_approximation_vs_optimum(self):
        g = gen.random_graph(24, 60, rng=9)
        k = 3
        opt_cost, _ = brute_force_kmedian(g, k)
        res = kmedian(g, k, trees=4, rng=10)
        assert res.facilities.size <= k
        assert res.cost == pytest.approx(kmedian_cost(g, res.facilities))
        # Expected O(log k); on these sizes a small constant is typical.
        assert res.cost <= 3.0 * opt_cost

    def test_beats_random_baseline_on_average(self):
        g = gen.grid(6, 6, rng=11)
        k = 4
        ours, rand = [], []
        for seed in range(5):
            ours.append(kmedian(g, k, trees=3, rng=seed).cost)
            rand.append(kmedian_random(g, k, rng=seed).cost)
        assert np.mean(ours) <= np.mean(rand)

    def test_comparable_to_greedy(self):
        g = gen.random_graph(40, 100, rng=12)
        k = 5
        greedy = kmedian_greedy(g, k)
        res = kmedian(g, k, trees=5, rng=13)
        assert res.cost <= 2.0 * greedy.cost

    def test_explicit_candidates(self):
        g = gen.cycle(20, rng=14)
        Q = np.arange(0, 20, 2)
        res = kmedian(g, 2, candidates=Q, rng=15)
        assert set(res.facilities).issubset(set(Q.tolist()))

    def test_candidates_fewer_than_k(self):
        g = gen.cycle(10, rng=16)
        res = kmedian(g, 5, candidates=np.array([1, 2]), rng=17)
        assert np.array_equal(res.facilities, [1, 2])

    def test_barbell_picks_both_sides(self):
        g = gen.barbell(6, bridge_len=8)
        res = kmedian(g, 2, trees=5, rng=18)
        left = set(range(6))
        right = set(range(6, 12))
        fac = set(res.facilities.tolist())
        assert fac & left and fac & right

    def test_validation(self):
        with pytest.raises(ValueError):
            kmedian(gen.cycle(5), 0)
        from repro.graph.core import Graph

        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            kmedian(g, 1)


    @pytest.mark.parametrize("trees", [0, -1])
    def test_tree_count_must_be_positive(self, trees):
        # Rejected, not clamped to one tree and recorded as given.
        with pytest.raises(ValueError, match="trees must be >= 1"):
            kmedian(gen.random_graph(12, 30, rng=3), 2, trees=trees)


class TestCliqueConstructionMemory:
    """The candidate clique is built via exact triangular unranking.

    ``np.triu_indices`` materializes an (m, m) boolean mask (plus its
    inversion) on top of the O(m²)-entries output; the unranking path's
    transient scratch must stay bounded by the block size regardless of m.
    """

    def test_clique_edges_peak_memory(self):
        import tracemalloc

        from repro.frt.stretch import all_pairs

        m = 3000  # total = 4_498_500 pairs; output = 2 * total * 8 bytes
        total = m * (m - 1) // 2
        output_bytes = 2 * total * 8
        tracemalloc.start()
        try:
            iu, ju = all_pairs(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iu.size == ju.size == total
        # Transient overhead beyond the returned arrays stays at the
        # (constant) unranking block scratch — far below the ~9 MB mask
        # pair triu_indices would add at this size, and flat in m.
        assert peak - output_bytes < 48 * (1 << 20), (peak, output_bytes)

    def test_clique_edges_match_triu(self):
        from repro.frt.stretch import all_pairs

        for m in (2, 3, 17, 64):
            iu, ju = all_pairs(m)
            wi, wj = np.triu_indices(m, k=1)
            assert np.array_equal(iu, wi)
            assert np.array_equal(ju, wj)


class TestOracleBackedSampling:
    """Section 9 as written: distance queries answered on H via the oracle."""

    def _oracle(self, g, seed):
        from repro.hopsets import hub_hopset, rounded_hopset
        from repro.oracle import HOracle

        hop = rounded_hopset(hub_hopset(g, d0=4, rng=seed), g, 0.2)
        return HOracle(hop, rng=seed + 1)

    def test_distance_to_set_dominates_and_approximates(self):
        from repro.apps.kmedian import distance_to_set_via_oracle

        g = gen.cycle(24, wmin=1, wmax=2, rng=30)
        oracle = self._oracle(g, 31)
        S = np.array([0, 8, 16])
        got = distance_to_set_via_oracle(oracle, S)
        want = dijkstra_distances(g, S).min(axis=0)
        bound = oracle.penalty_base ** (oracle.Lambda + 1)
        assert np.all(got >= want - 1e-9)
        assert np.all(got <= bound * want + 1e-9)
        assert np.all(got[S] == 0.0)

    def test_sampling_with_oracle_produces_valid_candidates(self):
        from repro.apps.kmedian import successive_sampling

        g = gen.random_graph(40, 100, rng=32)
        oracle = self._oracle(g, 33)
        Q = successive_sampling(g, 3, rng=34, oracle=oracle)
        assert np.unique(Q).size == Q.size
        assert np.all((0 <= Q) & (Q < g.n))
        assert Q.size >= 3

    def test_full_pipeline_with_oracle_quality(self):
        g = gen.random_graph(24, 60, rng=35)
        oracle = self._oracle(g, 36)
        k = 3
        opt_cost, _ = brute_force_kmedian(g, k)
        res = kmedian(g, k, trees=4, rng=37, oracle=oracle)
        assert res.cost <= 3.0 * opt_cost
