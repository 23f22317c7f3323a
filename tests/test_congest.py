"""Tests for the Congest-model algorithms (Section 8)."""

import hashlib

import numpy as np
import pytest

from repro.congest import RoundLedger, khan_le_lists, skeleton_frt
from repro.frt import compute_le_lists_batch
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter
from tests.frt_reference import assert_forests_equal, build_frt_tree, distance_matrix


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
        MT = distance_matrix(res.tree)
        assert np.all(MT >= DG - 1e-9)

    def test_stretch_sane(self):
        g = gen.cycle(48, rng=0)
        DG = dijkstra_distances(g)
        ratios = []
        for seed in range(5):
            res = skeleton_frt(g, eps=0.05, rng=seed)
            MT = distance_matrix(res.tree)
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

    def test_negative_eps_rejected(self):
        # The H_S hop set is built by the pipeline, whose HopsetConfig
        # rejects a negative eps.
        with pytest.raises(ValueError, match="eps must be non-negative"):
            skeleton_frt(gen.cycle(16, rng=0), eps=-0.1)


class TestSpannerFRT:
    """Section 8.2 — the spanner-based (Ghaffari-Lenzen) construction."""

    def test_tree_dominates_g(self):
        from repro.congest import spanner_frt

        g = gen.cycle(48, rng=20)
        res = spanner_frt(g, k=2, rng=21)
        DG = dijkstra_distances(g)
        MT = distance_matrix(res.tree)
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
                vals.append((distance_matrix(res.tree)[off] / DG[off]).mean())
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
    each must equal the per-vertex reference ``build_frt_tree`` on the lists,
    rank and beta the run returns."""

    @staticmethod
    def _assert_reference_tree(g, res):
        wmin, _ = g.weight_bounds()
        want = build_frt_tree(res.le_lists, res.rank, res.beta, wmin)
        assert_forests_equal(res.tree, want)
        assert res.tree.betas[0] == res.beta

    @pytest.mark.parametrize("seed", [0, 1])
    def test_skeleton_tree(self, seed):
        g = gen.cycle_with_hub(48)
        self._assert_reference_tree(g, skeleton_frt(g, eps=0.0, c=0.5, rng=seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_spanner_tree(self, seed):
        from repro.congest import spanner_frt

        g = gen.random_graph(40, 100, rng=seed)
        self._assert_reference_tree(g, spanner_frt(g, k=2, c=0.5, rng=seed))


def _digest(*arrays) -> str:
    """A short exact fingerprint of arrays: dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


_PIN_GRAPHS = {
    "cycle": lambda: gen.cycle(30, wmin=1.0, wmax=3.0, rng=1),
    "grid": lambda: gen.grid(5, 6, wmin=1.0, wmax=4.0, rng=2),
    "random": lambda: gen.random_graph(40, 100, rng=3),
    "cycle_with_hub": lambda: gen.cycle_with_hub(32, rng=4),
}
_TREE_FIELDS = (
    "radii", "edge_weights", "cum_weights", "level_ids", "parent", "node_level", "node_leading",
)
_ROW_FIELDS = ("radii", "edge_weights", "cum_weights", "level_ids")  # (1, ...) per sample
_ALPHA_S = 3.814697265625  # 1.25 ** 6: the H_S distortion bound at Λ_S = 5
_META_S = {"local_iterations_within_ell": True, "extra_iterations": 0, "Lambda_S": 5}


def _pinned_run(res):
    """``(rounds, meta, beta, lists+rank digest, tree digest)`` of a run.

    The tree digest hashes sample 0's rows of the ``k = 1`` forest —
    ``radii[0]``, ``level_ids[0]`` and so on, with the shapes and bytes the
    per-tree arrays had when the digests were recorded."""
    lists = res.le_lists
    tree = res.tree
    rows = [getattr(tree, f)[0] if f in _ROW_FIELDS else getattr(tree, f) for f in _TREE_FIELDS]
    return (
        res.ledger.rounds,
        res.meta,
        res.beta,
        _digest(lists.offsets, lists.ids, lists.dists, res.rank),
        _digest(*rows),
    )


class TestPinnedOutputs:
    """Khan's lists, iterations and rounds, and the skeleton and spanner
    runs' rounds, meta, lists and tree arrays, exactly.  Recorded while
    these loops still re-emitted every entry each step and compared whole
    states for the fixpoint; stepping semi-naively with the step's
    ``changed`` flags must reproduce them bit for bit.  The ``ell=3`` runs
    take the top-up iteration after the ``ell`` local steps."""

    KHAN = {
        "cycle": (16, 87, "3b53635a3e3c27ac"),
        "grid": (9, 51, "7e2ab6c1bacca4fe"),
        "random": (6, 41, "2817d50abf46cfdd"),
        "cycle_with_hub": (17, 95, "4a0ea7f9d811d920"),
    }
    SKELETON = {
        "cycle": (447, dict(_META_S, skeleton_size=14, ell=6, hop_diameter=15,
                            hs_iterations=5, local_iterations=6, alpha=_ALPHA_S),
                  1.7674444127235307, "7847f59b2135a8a8", "fd76582b5d54b605"),
        "grid": (320, dict(_META_S, skeleton_size=14, ell=6, hop_diameter=9,
                           hs_iterations=4, local_iterations=6, alpha=_ALPHA_S),
                 1.7674444127235307, "41a6c56bc709c841", "1761ff06f3b4c8da"),
        "random": (315, dict(_META_S, skeleton_size=17, ell=7, hop_diameter=4,
                             hs_iterations=4, local_iterations=7, alpha=_ALPHA_S),
                   1.9569553704532239, "8796b7277a1da3bf", "53e7174cec766114"),
        "cycle_with_hub": (272, dict(_META_S, skeleton_size=15, ell=6, hop_diameter=2,
                                     hs_iterations=5, local_iterations=6, alpha=_ALPHA_S),
                           1.6308824662334276, "f9e55113cdd13dbe", "64cf62ff5a4a0778"),
    }
    SPANNER = {
        "cycle": (238, dict(skeleton_size=14, ell=6, spanner_k=2, spanner_edges=39, alpha=3.0,
                            hop_diameter=15, local_iterations=6, extra_iterations=0),
                  1.3230363462582067, "03f1e3ce096a5e26", "0a856b73df4e12bf"),
        "grid": (224, dict(skeleton_size=14, ell=6, spanner_k=2, spanner_edges=63, alpha=3.0,
                           hop_diameter=9, local_iterations=6, extra_iterations=0),
                 1.3230363462582067, "86a806be9d26ff86", "fe9b0d51a675496f"),
        "random": (241, dict(skeleton_size=17, ell=7, spanner_k=2, spanner_edges=85, alpha=3.0,
                             hop_diameter=4, local_iterations=7, extra_iterations=0),
                   1.9678280510488215, "8cf57152ee5fdda4", "1578248795bb495e"),
        "cycle_with_hub": (194, dict(skeleton_size=15, ell=6, spanner_k=2, spanner_edges=84,
                                     alpha=3.0, hop_diameter=2, local_iterations=6,
                                     extra_iterations=0),
                           1.9787478844112216, "c414751efe0e0426", "d58fdb575c00cb46"),
    }
    TOPUP = {
        "skeleton": (378, {"skeleton_size": 14, "ell": 3, "hop_diameter": 15, "hs_iterations": 5,
                           "local_iterations": 3, "extra_iterations": 1,
                           "local_iterations_within_ell": False, "alpha": 2.44140625,
                           "Lambda_S": 3},
                     1.4884985730839695, "21a6c436e3e2cabc", "6f4cbdb1e1cb5cd2"),
        "spanner": (195, {"skeleton_size": 14, "ell": 3, "spanner_k": 2, "spanner_edges": 23,
                          "alpha": 3.0, "hop_diameter": 15, "local_iterations": 3,
                          "extra_iterations": 1},
                    1.8351832046922798, "3e7c813c5bbd3770", "67b29446d26e9a40"),
    }

    @pytest.mark.parametrize("name", sorted(_PIN_GRAPHS))
    def test_khan(self, name):
        g = _PIN_GRAPHS[name]()
        rank = np.random.default_rng(5).permutation(g.n)
        lists, iterations, ledger = khan_le_lists(g, rank)
        got = (iterations, ledger.rounds, _digest(lists.offsets, lists.ids, lists.dists))
        assert got == self.KHAN[name]

    @pytest.mark.parametrize("name", sorted(_PIN_GRAPHS))
    def test_skeleton(self, name):
        res = skeleton_frt(_PIN_GRAPHS[name](), eps=0.25, c=0.5, rng=6)
        assert _pinned_run(res) == self.SKELETON[name]

    @pytest.mark.parametrize("name", sorted(_PIN_GRAPHS))
    def test_spanner(self, name):
        from repro.congest import spanner_frt

        res = spanner_frt(_PIN_GRAPHS[name](), k=2, c=0.5, rng=7)
        assert _pinned_run(res) == self.SPANNER[name]

    def test_topup(self):
        from repro.congest import spanner_frt

        g = _PIN_GRAPHS["cycle"]()
        assert _pinned_run(skeleton_frt(g, eps=0.25, c=0.5, ell=3, rng=2)) == self.TOPUP["skeleton"]
        assert _pinned_run(spanner_frt(g, k=2, c=0.5, ell=3, rng=2)) == self.TOPUP["spanner"]
