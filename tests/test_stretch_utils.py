"""Tests for stretch-evaluation utilities (repro.frt.stretch)."""

import tracemalloc

import numpy as np
import pytest

from repro.api import EmbeddingConfig, Pipeline, PipelineConfig
from repro.frt import evaluate_stretch
from repro.frt.stretch import StretchReport, all_pairs, sample_pairs
from repro.util.pairs import sample_distinct, unrank_pairs
from repro.graph import generators as gen
from repro.graph.core import Graph

DIRECT = PipelineConfig(embedding=EmbeddingConfig(method="direct"))


class TestSamplePairs:
    def test_all_pairs_when_count_none(self):
        us, vs = sample_pairs(6, None)
        assert us.size == 15
        assert np.all(us < vs)

    def test_all_pairs_when_count_large(self):
        us, vs = sample_pairs(5, 100)
        assert us.size == 10

    def test_subset_distinct_valid(self):
        us, vs = sample_pairs(40, 25, rng=0)
        assert us.size == 25
        assert np.all((0 <= us) & (us < 40))
        assert np.all(us < vs) and np.all(vs < 40)
        keys = us * 40 + vs
        assert np.unique(keys).size == keys.size

    def test_reproducible(self):
        a = sample_pairs(30, 10, rng=3)
        b = sample_pairs(30, 10, rng=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_pairs(100, -3)

    def test_unranking_covers_extremes(self):
        # With count == total the unranking path is bypassed; with total-1
        # we exercise it broadly and must stay in range.
        n = 12
        total = n * (n - 1) // 2
        us, vs = sample_pairs(n, total - 1, rng=4)
        assert us.size == total - 1
        assert np.all(us < vs)


class TestAllPairs:
    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_matches_triu_indices(self, n):
        iu, ju = all_pairs(n)
        wi, wj = np.triu_indices(n, k=1)
        assert iu.dtype == ju.dtype == np.int64
        assert np.array_equal(iu, wi)
        assert np.array_equal(ju, wj)

    def test_blocked_unranking_consistent(self, monkeypatch):
        # Shrinking the block size must not change the output: the blocks
        # are a pure memory bound, not a semantic boundary.
        import repro.util.pairs as pairs

        want = all_pairs(40)
        monkeypatch.setattr(pairs, "_ALL_PAIRS_BLOCK", 7)
        got = all_pairs(40)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_degenerate_sizes(self):
        for n in (0, 1):
            iu, ju = all_pairs(n)
            assert iu.size == ju.size == 0


class TestUnrankPairs:
    def test_full_sweep_matches_triu(self):
        # Exactness on every key: unranking 0..total-1 must reproduce
        # np.triu_indices order exactly.
        n = 300
        total = n * (n - 1) // 2
        iu, ju = unrank_pairs(n, np.arange(total))
        eu, ev = np.triu_indices(n, k=1)
        assert np.array_equal(iu, eu)
        assert np.array_equal(ju, ev)

    def test_boundary_keys_large_n(self):
        # Regression: the old float-sqrt closed form can misassign keys at
        # triangular-row boundaries.  Pin the exact integer contract
        # (row_start(i) <= key < row_start(i+1)) on both edges of a spread
        # of rows at a size where n^2-scale radicands stress float64.
        n = 10**6

        def row_start(i):
            return i * (2 * n - i - 1) // 2

        total = n * (n - 1) // 2
        rows = [0, 1, 2, 5, 10**3, n // 2, n - 3, n - 2]
        keys = sorted(
            {
                key
                for i in rows
                for key in (row_start(i), row_start(i + 1) - 1)
                if 0 <= key < total
            }
        )
        iu, ju = unrank_pairs(n, np.array(keys))
        for key, i, j in zip(keys, iu.tolist(), ju.tolist()):
            assert row_start(i) <= key < row_start(i + 1)
            assert j == i + 1 + (key - row_start(i))
            assert 0 <= i < j < n

    def test_out_of_range_keys_rejected(self):
        with pytest.raises(ValueError):
            unrank_pairs(5, np.array([10]))  # total = 10, keys go 0..9
        with pytest.raises(ValueError):
            unrank_pairs(5, np.array([-1]))


class TestSampleDistinctKeys:
    def test_no_quadratic_allocation(self):
        # Regression: Generator.choice(total, size=count, replace=False)
        # materialized a full length-total permutation — ~1.6 GB at
        # n = 20_000.  The rejection sampler must stay within a small
        # constant budget.
        n = 20_000
        tracemalloc.start()
        try:
            us, vs = sample_pairs(n, 5, rng=7)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < 5 * 2**20, f"peak allocation {peak / 2**20:.1f} MiB"
        assert us.size == 5
        assert np.all((0 <= us) & (us < vs) & (vs < n))
        keys = us * n + vs
        assert np.unique(keys).size == keys.size

    def test_distinct_and_in_range(self):
        for count in (1, 10, 33, 60, 99):
            keys = sample_distinct(100, count, np.random.default_rng(count))
            assert keys.size == count
            assert np.unique(keys).size == count
            assert keys.min() >= 0 and keys.max() < 100

    def test_roughly_uniform(self):
        # Every key should appear with frequency ~count/total over many
        # draws (loose 3-sigma-ish bounds; pins against e.g. a sorted-
        # truncation bug that would bias toward small keys).
        total, count, reps = 20, 4, 3000
        g = np.random.default_rng(0)
        freq = np.zeros(total)
        for _ in range(reps):
            np.add.at(freq, sample_distinct(total, count, g), 1)
        expected = reps * count / total
        assert np.all(freq > 0.8 * expected)
        assert np.all(freq < 1.2 * expected)


class TestEvaluateStretch:
    def test_report_fields(self):
        g = gen.grid(3, 4, rng=0)
        shared = np.random.default_rng(1)
        rep = evaluate_stretch(
            g, lambda: Pipeline(g, DIRECT, rng=shared).sample().tree, trees=3, rng=2
        )
        assert isinstance(rep, StretchReport)
        assert rep.trees == 3 and rep.pairs == 66
        assert rep.mean_stretch <= rep.max_expected_stretch + 1e-9
        assert rep.max_expected_stretch <= rep.max_stretch_single + 1e-9
        assert rep.expected_stretch_vs_log(g.n) == pytest.approx(
            rep.max_expected_stretch / np.log2(g.n)
        )

    def test_pairs_subset(self):
        g = gen.grid(3, 4, rng=0)
        shared = np.random.default_rng(1)
        rep = evaluate_stretch(
            g, lambda: Pipeline(g, DIRECT, rng=shared).sample().tree, trees=2, pairs=7, rng=2
        )
        assert rep.pairs == 7

    def test_trees_validation(self):
        g = gen.cycle(5, rng=0)
        with pytest.raises(ValueError):
            evaluate_stretch(g, lambda: None, trees=0)

    def test_disconnected_rejected(self):
        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            evaluate_stretch(g, lambda: None, trees=1)

    def test_detects_non_dominating_sampler(self):
        # A fake "tree" reporting tiny distances must flip the flag.
        g = gen.cycle(6, rng=0)

        class Fake:
            def distances(self, us, vs):
                return np.full((1, np.atleast_1d(us).size), 1e-6)

        rep = evaluate_stretch(g, lambda: Fake(), trees=1, rng=1)
        assert not rep.dominating

    @pytest.mark.parametrize("case", ["pairs=0", "single-vertex"])
    def test_empty_pair_set_rejected_before_sampling(self, case):
        # Fails fast with a message naming the empty pair set, instead of
        # sampling every tree and then failing inside a NumPy reduction.
        if case == "pairs=0":
            g, kwargs = gen.cycle(6, rng=0), {"pairs": 0}
        else:
            g, kwargs = Graph.from_edge_list(1, []), {}
        calls = []
        with pytest.raises(ValueError, match="empty pair set"):
            evaluate_stretch(g, lambda: calls.append(1), trees=3, rng=1, **kwargs)
        assert calls == []

    def test_sampled_pairs_skip_all_pairs_matrix(self):
        # Regression: the ground truth ran all-pairs Dijkstra, an (n, n)
        # float64 matrix (30.5 MiB at n = 2000) read at 7 entries.  Dijkstra
        # from the sampled pairs' sources needs (7, n) floats.
        g = gen.random_graph(2000, 6000, rng=3)

        class FarTree:
            def distances(self, us, vs):
                return np.full((1, np.atleast_1d(us).size), 1e12)

        tracemalloc.start()
        try:
            rep = evaluate_stretch(g, FarTree, trees=2, pairs=7, rng=4)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak allocation {peak / 2**20:.1f} MiB"
        assert rep.pairs == 7 and rep.dominating
