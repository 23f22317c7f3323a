"""Tests for the Congest-model algorithms (Section 8)."""

import numpy as np
import pytest

from repro.congest import RoundLedger, khan_le_lists, skeleton_frt
from repro.frt import build_frt_tree, compute_le_lists_batch
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter


class TestRoundLedger:
    def test_charge_accumulates(self):
        led = RoundLedger()
        led.charge(5, "a")
        led.charge(3, "a")
        led.charge(2, "b")
        assert led.rounds == 10
        assert led.breakdown() == {"a": 8, "b": 2}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().charge(-1, "x")

    def test_broadcast_pipelined(self):
        led = RoundLedger()
        led.broadcast(100, 7)
        assert led.rounds == 107

    def test_bfs(self):
        led = RoundLedger()
        led.bfs(5)
        assert led.rounds == 10

    def test_local_exchange_minimum_one(self):
        led = RoundLedger()
        led.local_exchange(0)
        assert led.rounds == 1


class TestKhan:
    def test_lists_match_reference(self, small_graphs):
        for g in small_graphs:
            rank = np.random.default_rng(0).permutation(g.n)
            lists, iters, _ = khan_le_lists(g, rank)
            want = compute_le_lists_batch(g, rank[None, :])[0].sample_states(0)
            assert lists.equals(want)

    def test_iterations_at_most_spd_plus_one(self):
        # The filtered fixpoint can arrive *before* SPD (entries that would
        # still change are filtered away); SPD + 1 is the hard ceiling
        # (one confirming iteration for termination detection).
        g = gen.path_graph(12)
        rank = np.random.default_rng(1).permutation(12)
        _, iters, _ = khan_le_lists(g, rank)
        assert 1 <= iters <= shortest_path_diameter(g) + 1

    def test_round_bound_spd_log_n(self):
        for seed in range(3):
            g = gen.cycle(40, rng=seed)
            rank = np.random.default_rng(seed).permutation(g.n)
            _, _, led = khan_le_lists(g, rank)
            spd = shortest_path_diameter(g)
            assert led.rounds <= 4 * (spd + 1) * np.log2(g.n)

    def test_rounds_scale_with_spd(self):
        rank32 = np.random.default_rng(0).permutation(32)
        _, _, led_cycle = khan_le_lists(gen.cycle(32, rng=0), rank32)
        _, _, led_star = khan_le_lists(gen.star(32, rng=0), rank32)
        assert led_star.rounds < led_cycle.rounds


class TestSkeletonFRT:
    def test_tree_dominates_g(self):
        g = gen.cycle(48, rng=0)
        res = skeleton_frt(g, eps=0.1, rng=1)
        DG = dijkstra_distances(g)
        MT = res.tree.distance_matrix()
        assert np.all(MT >= DG - 1e-9)

    def test_stretch_sane(self):
        g = gen.cycle(48, rng=0)
        DG = dijkstra_distances(g)
        ratios = []
        for seed in range(5):
            res = skeleton_frt(g, eps=0.05, rng=seed)
            MT = res.tree.distance_matrix()
            off = ~np.eye(g.n, dtype=bool)
            ratios.append((MT[off] / DG[off]).mean())
        # Average stretch O(alpha · log n) with a small constant.
        assert np.mean(ratios) <= 8 * res.meta["alpha"] * np.log2(g.n)

    def test_round_breakdown_phases(self):
        g = gen.cycle(48, rng=2)
        res = skeleton_frt(g, eps=0.1, rng=3)
        phases = res.ledger.breakdown()
        for key in (
            "bfs-setup",
            "partial-distance-estimation",
            "skeleton-list-broadcast",
            "local-le-iteration",
        ):
            assert key in phases

    def test_beats_khan_on_high_spd_low_diameter(self):
        # E8's crossover: the skeleton algorithm targets D(G) ≪ SPD(G)
        # (on plain cycles both algorithms pay Θ(n)).  cycle_with_hub has
        # D = 2 and SPD = n/2: Khan pays Θ(n log n) rounds, the skeleton
        # algorithm ~ sqrt(n)·polylog.
        n = 512
        g = gen.cycle_with_hub(n)
        rank = np.random.default_rng(5).permutation(g.n)
        _, _, khan_led = khan_le_lists(g, rank)
        # eps=0: the hub hop set is exact at this scale, so H_S is the
        # skeleton metric and its LE lists converge in one iteration.
        res = skeleton_frt(g, eps=0.0, c=0.5, rng=6)
        assert res.ledger.rounds < khan_led.rounds

    def test_khan_wins_on_low_spd(self):
        # On a star (SPD = 2) Khan needs ~2 iterations; skeleton overhead
        # dominates.
        n = 128
        g = gen.star(n, rng=7)
        rank = np.random.default_rng(8).permutation(n)
        _, _, khan_led = khan_le_lists(g, rank)
        res = skeleton_frt(g, eps=0.1, rng=9)
        assert khan_led.rounds < res.ledger.rounds

    def test_local_phase_within_ell_whp(self):
        g = gen.cycle(64, rng=10)
        res = skeleton_frt(g, eps=0.1, rng=11)
        assert res.meta["local_iterations_within_ell"]

    def test_skeleton_ranks_come_first(self):
        g = gen.cycle(48, rng=12)
        res = skeleton_frt(g, eps=0.1, rng=13)
        k = res.meta["skeleton_size"]
        # the k smallest ranks all belong to skeleton vertices
        skel_ranks = np.sort(res.rank)[:k]
        assert np.array_equal(skel_ranks, np.arange(k))

    def test_disconnected_rejected(self):
        from repro.graph.core import Graph

        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            skeleton_frt(g)


class TestSpannerFRT:
    """Section 8.2 — the spanner-based (Ghaffari-Lenzen) construction."""

    def test_tree_dominates_g(self):
        from repro.congest import spanner_frt

        g = gen.cycle(48, rng=20)
        res = spanner_frt(g, k=2, rng=21)
        DG = dijkstra_distances(g)
        MT = res.tree.distance_matrix()
        assert np.all(MT >= DG - 1e-9)

    def test_round_breakdown(self):
        from repro.congest import spanner_frt

        g = gen.cycle_with_hub(128)
        res = spanner_frt(g, k=2, c=0.5, rng=22)
        phases = res.ledger.breakdown()
        for key in ("spanner-broadcast", "local-le-iteration", "bfs-setup"):
            assert key in phases
        assert res.meta["spanner_k"] == 2
        assert res.meta["spanner_edges"] >= res.meta["skeleton_size"] - 1

    def test_stretch_scales_with_k(self):
        from repro.congest import spanner_frt

        g = gen.cycle(48, rng=23)
        DG = dijkstra_distances(g)
        off = ~np.eye(g.n, dtype=bool)

        def mean_stretch(k, seeds):
            vals = []
            for s in seeds:
                res = spanner_frt(g, k=k, rng=s)
                vals.append((res.tree.distance_matrix()[off] / DG[off]).mean())
            return np.mean(vals)

        s2 = mean_stretch(2, range(4))
        # O(k log n): sane envelope at k=2
        assert s2 <= 10 * 3 * np.log2(g.n)

    def test_beats_khan_on_high_spd_low_diameter(self):
        # k=3 keeps the spanner broadcast small enough at this scale
        # (k=2's n^eps-style overhead is exactly what Section 8.3 fixes).
        from repro.congest import spanner_frt

        n = 512
        g = gen.cycle_with_hub(n)
        rank = np.random.default_rng(24).permutation(g.n)
        _, _, khan_led = khan_le_lists(g, rank)
        res = spanner_frt(g, k=3, c=0.5, rng=25)
        assert res.ledger.rounds < khan_led.rounds

    def test_section_83_improves_on_section_82(self):
        # The paper's motivation for Section 8.3: the hop-set/simulated-
        # graph approach removes the spanner-broadcast overhead.
        from repro.congest import spanner_frt

        g = gen.cycle_with_hub(512)
        sp = spanner_frt(g, k=2, c=0.5, rng=26)
        sk = skeleton_frt(g, eps=0.0, c=0.5, rng=27)
        assert sk.ledger.rounds < sp.ledger.rounds

    def test_k_validation(self):
        from repro.congest import spanner_frt

        with pytest.raises(ValueError):
            spanner_frt(gen.cycle(12, rng=0), k=0)

    def test_disconnected_rejected(self):
        from repro.congest import spanner_frt
        from repro.graph.core import Graph

        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            spanner_frt(g)


class TestCongestTreesMatchReference:
    """The congest layer builds its trees with the batched forest kernel;
    each must equal the serial reference ``build_frt_tree`` on the lists,
    rank and beta the run returns."""

    @staticmethod
    def _assert_reference_tree(g, res):
        wmin, _ = g.weight_bounds()
        want = build_frt_tree(res.le_lists, res.rank, res.beta, wmin)
        got = res.tree
        assert (got.n, got.k, got.beta, got.scale) == (want.n, want.k, want.beta, want.scale)
        for name in ("radii", "edge_weights", "cum_weights", "level_ids",
                     "parent", "node_level", "node_leading"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("seed", [0, 1])
    def test_skeleton_tree(self, seed):
        g = gen.cycle_with_hub(48)
        self._assert_reference_tree(g, skeleton_frt(g, eps=0.0, c=0.5, rng=seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_spanner_tree(self, seed):
        from repro.congest import spanner_frt

        g = gen.random_graph(40, 100, rng=seed)
        self._assert_reference_tree(g, spanner_frt(g, k=2, c=0.5, rng=seed))
