"""Forest-vs-reference parity suite (repro.frt.forest).

The contract under test: ``FRTForest.tree(s)`` — sample ``s`` as a
read-only ``k = 1`` forest sliced out of the stacked storage — equals in
every field, node ids included, the per-vertex reference
``build_frt_tree(lists.sample_states(s), ranks[s], betas[s], wmin)``
(``tests/frt_reference.py``) and ``build_frt_forest`` of sample ``s``
alone, and the forest's vectorized distance queries equal the per-tree
results exactly.
"""

import numpy as np
import pytest

from repro.api import (
    EmbeddingConfig,
    ExecutionConfig,
    HopsetConfig,
    Pipeline,
    PipelineConfig,
)
from repro.frt import FRTForest, build_frt_forest
from repro.frt.lelists import (
    compute_le_lists_batch,
    compute_le_lists_batch_via_oracle,
)
from repro.graph import generators as gen
from repro.graph.core import Graph
from repro.hopsets import hub_hopset
from repro.mbf.dense import BatchedFlatStates
from repro.oracle import HOracle
from repro.util.rng import spawn_rngs, split_seed
from tests.frt_reference import assert_forests_equal, build_frt_tree

TREE_ARRAYS = (
    "betas",
    "depths",
    "radii",
    "edge_weights",
    "cum_weights",
    "level_ids",
    "node_offsets",
    "parent",
    "node_level",
    "node_leading",
)


def _draws(n, k, seed, betas=None):
    rng = np.random.default_rng(seed)
    ranks = np.stack([rng.permutation(n) for _ in range(k)])
    if betas is None:
        betas = rng.uniform(1.0, 2.0, size=k)
    return ranks, np.asarray(betas, dtype=np.float64)


def _assert_forest_matches_serial(g, lists, ranks, betas):
    wmin, _ = g.weight_bounds()
    forest = build_frt_forest(lists, ranks, betas, wmin)
    serial = [
        build_frt_tree(lists.sample_states(s), ranks[s], betas[s], wmin)
        for s in range(lists.k)
    ]
    assert forest.size == lists.k and forest.n == g.n
    assert np.array_equal(forest.depths, [t.k_max for t in serial])
    for s, want in enumerate(serial):
        assert_forests_equal(forest.tree(s), want)
    # Vectorized queries == stacked per-tree queries, bit for bit.
    rng = np.random.default_rng(0)
    us = rng.integers(0, g.n, size=32)
    vs = rng.integers(0, g.n, size=32)
    stacked = np.concatenate([t.distances(us, vs) for t in serial])
    assert np.array_equal(forest.distances(us, vs), stacked)
    assert np.array_equal(
        forest.distance_upper_bounds(us, vs), stacked.min(axis=0)
    )
    assert np.array_equal(
        forest.median_distances(us, vs), np.median(stacked, axis=0)
    )
    return forest


class TestForestParity:
    def test_single_sample(self):
        g = gen.random_graph(24, 60, rng=0)
        ranks, betas = _draws(g.n, 1, seed=1)
        lists, _ = compute_le_lists_batch(g, ranks)
        _assert_forest_matches_serial(g, lists, ranks, betas)

    def test_non_power_of_two_k(self):
        g = gen.random_graph(40, 110, rng=2)
        ranks, betas = _draws(g.n, 7, seed=3)
        lists, _ = compute_le_lists_batch(g, ranks)
        _assert_forest_matches_serial(g, lists, ranks, betas)

    def test_ragged_depths(self):
        # Extreme betas (and per-sample root distances) force different
        # tree depths; the test is only meaningful when they differ.
        g = gen.random_graph(50, 140, rng=102)
        ranks, _ = _draws(g.n, 6, seed=102)
        betas = np.array([1.0, 1.99, 1.0, 1.99, 1.5, 1.01])
        lists, _ = compute_le_lists_batch(g, ranks)
        forest = _assert_forest_matches_serial(g, lists, ranks, betas)
        assert np.unique(forest.depths).size > 1
        assert forest.k_max == forest.depths.max()

    def test_single_vertex_graph(self):
        g = Graph.from_edge_list(1, [])
        ranks = np.zeros((3, 1), dtype=np.int64)
        betas = np.array([1.0, 1.5, 1.99])
        lists, _ = compute_le_lists_batch(g, ranks)
        forest = _assert_forest_matches_serial(g, lists, ranks, betas)
        assert np.all(forest.depths == 1)

    def test_grid_and_cycle_topologies(self):
        for g in (gen.grid(5, 5, rng=4), gen.cycle(30, rng=5)):
            ranks, betas = _draws(g.n, 4, seed=6)
            lists, _ = compute_le_lists_batch(g, ranks)
            _assert_forest_matches_serial(g, lists, ranks, betas)

    def test_oracle_path(self):
        g = gen.random_graph(32, 90, rng=7)
        oracle = HOracle(hub_hopset(g, d0=4, rng=8), rng=9)
        ranks, betas = _draws(g.n, 5, seed=10)
        lists, _ = compute_le_lists_batch_via_oracle(oracle, ranks)
        _assert_forest_matches_serial(g, lists, ranks, betas)


class TestForestConcat:
    """FRTForest.concat(shards) ≡ build_frt_forest(whole batch), bit for
    bit — the primitive that makes sharded ensemble builds exact."""

    FOREST_ARRAYS = (
        "betas", "depths", "radii", "edge_weights", "cum_weights",
        "level_ids", "node_offsets", "parent", "node_level", "node_leading",
    )

    @staticmethod
    def _shard_forests(g, ranks, betas, bounds):
        wmin, _ = g.weight_bounds()
        out = []
        for lo, hi in bounds:
            lists, _ = compute_le_lists_batch(g, ranks[lo:hi])
            out.append(build_frt_forest(lists, ranks[lo:hi], betas[lo:hi], wmin))
        return out

    def _assert_concat_matches_full(self, g, ranks, betas, bounds):
        wmin, _ = g.weight_bounds()
        lists, _ = compute_le_lists_batch(g, ranks)
        full = build_frt_forest(lists, ranks, betas, wmin)
        merged = FRTForest.concat(self._shard_forests(g, ranks, betas, bounds))
        assert merged.n == full.n and merged.size == full.size
        assert merged.k_max == full.k_max and merged.scale == full.scale
        for name in self.FOREST_ARRAYS:
            a, b = getattr(merged, name), getattr(full, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        for s in range(full.size):
            assert_forests_equal(merged.tree(s), full.tree(s))
        return merged, full

    def test_even_shards(self):
        g = gen.random_graph(30, 80, rng=30)
        ranks, betas = _draws(g.n, 6, seed=31)
        self._assert_concat_matches_full(g, ranks, betas, [(0, 3), (3, 6)])

    def test_uneven_and_singleton_shards(self):
        g = gen.random_graph(24, 60, rng=32)
        ranks, betas = _draws(g.n, 5, seed=33)
        self._assert_concat_matches_full(
            g, ranks, betas, [(0, 2), (2, 3), (3, 5)]
        )

    def test_single_shard_identity(self):
        g = gen.cycle(20, rng=34)
        ranks, betas = _draws(g.n, 3, seed=35)
        self._assert_concat_matches_full(g, ranks, betas, [(0, 3)])

    def test_ragged_shard_depths(self):
        """Shards whose local k_max differ exercise the re-padding path:
        extension columns must replicate each sample's root id."""
        g = gen.random_graph(50, 140, rng=102)
        ranks, _ = _draws(g.n, 6, seed=102)
        betas = np.array([1.0, 1.99, 1.0, 1.99, 1.5, 1.01])
        shards = self._shard_forests(g, ranks, betas, [(0, 2), (2, 4), (4, 6)])
        assert len({f.k_max for f in shards}) > 1  # genuinely ragged
        merged, full = self._assert_concat_matches_full(
            g, ranks, betas, [(0, 2), (2, 4), (4, 6)]
        )
        assert merged.k_max == max(f.k_max for f in shards)
        # The padded columns stay inert for LCA queries.
        us = np.arange(g.n - 1)
        assert np.array_equal(
            merged.distances(us, us + 1), full.distances(us, us + 1)
        )

    def test_single_vertex_graph(self):
        g = Graph.from_edge_list(1, [])
        ranks = np.zeros((3, 1), dtype=np.int64)
        betas = np.array([1.0, 1.5, 1.99])
        self._assert_concat_matches_full(g, ranks, betas, [(0, 1), (1, 3)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            FRTForest.concat([])

    def test_rejects_mismatched_graphs(self):
        g1, g2 = gen.cycle(10, rng=36), gen.cycle(12, rng=37)
        r1, b1 = _draws(g1.n, 2, seed=38)
        r2, b2 = _draws(g2.n, 2, seed=39)
        (f1,) = self._shard_forests(g1, r1, b1, [(0, 2)])
        (f2,) = self._shard_forests(g2, r2, b2, [(0, 2)])
        with pytest.raises(ValueError, match="share n"):
            FRTForest.concat([f1, f2])
        # Same n but different wmin → different scale: also rejected.
        g3 = gen.cycle(10, wmin=2.0, wmax=2.0, rng=40)
        r3, b3 = _draws(g3.n, 2, seed=41)
        (f3,) = self._shard_forests(g3, r3, b3, [(0, 2)])
        with pytest.raises(ValueError, match="scale"):
            FRTForest.concat([f1, f3])

    def test_freeze_mode_freezes_concat_output(self, monkeypatch):
        g = gen.cycle(12, rng=42)
        ranks, betas = _draws(g.n, 4, seed=43)
        shards = self._shard_forests(g, ranks, betas, [(0, 2), (2, 4)])
        monkeypatch.setenv("REPRO_FREEZE", "1")
        merged = FRTForest.concat(shards)
        for name in self.FOREST_ARRAYS:
            assert not getattr(merged, name).flags.writeable, name
        with pytest.raises(ValueError):
            merged.radii[0, 0] = -1.0


class TestForestStructure:
    def setup_method(self):
        self.g = gen.random_graph(30, 80, rng=20)
        self.ranks, self.betas = _draws(self.g.n, 4, seed=21)
        self.lists, _ = compute_le_lists_batch(self.g, self.ranks)
        wmin, _ = self.g.weight_bounds()
        self.wmin = wmin
        self.forest = build_frt_forest(self.lists, self.ranks, self.betas, wmin)

    def test_node_offsets_partition_nodes(self):
        f = self.forest
        assert f.node_offsets[0] == 0
        assert f.node_offsets[-1] == f.total_nodes
        assert all(
            f.num_nodes(s) == f.tree(s).total_nodes for s in range(f.size)
        )

    def test_padded_levels_replicate_root(self):
        f = self.forest
        for s in range(f.size):
            d = int(f.depths[s])
            root_col = f.level_ids[s, :, d]
            for j in range(d + 1, f.k_max + 1):
                assert np.array_equal(f.level_ids[s, :, j], root_col)

    def test_blocked_queries_match_unblocked(self, monkeypatch):
        # Large pair sets are processed in bounded-memory blocks; force
        # tiny blocks and pin equality with the per-tree loop.
        import repro.frt.forest as forest_mod

        monkeypatch.setattr(forest_mod, "_QUERY_BLOCK_ELEMS", 8)
        iu, ju = np.triu_indices(self.g.n, k=1)
        stacked = np.concatenate([t.distances(iu, ju) for t in self.forest.trees()])
        assert np.array_equal(self.forest.distances(iu, ju), stacked)

    def test_tree_views_are_read_only(self):
        """Regression: zero-copy views refuse writes (always, not only
        under REPRO_FREEZE) — an in-place write through a view would
        corrupt every other view of the stacked storage."""
        t = self.forest.tree(0)
        for name in TREE_ARRAYS:
            assert not getattr(t, name).flags.writeable, name
        with pytest.raises(ValueError):
            t.radii[0, 0] = -1.0
        # Outside freeze mode the stacked storage itself stays writable;
        # a mutable private buffer is always one explicit copy away.
        from repro.util.freeze import freeze_enabled

        assert self.forest.radii.flags.writeable == (not freeze_enabled())
        assert t.radii.copy().flags.writeable

    def test_freeze_mode_freezes_stacked_storage(self, monkeypatch):
        monkeypatch.setenv("REPRO_FREEZE", "1")
        frozen = build_frt_forest(self.lists, self.ranks, self.betas, self.wmin)
        for name in ("betas", "depths", "radii", "edge_weights",
                     "cum_weights", "level_ids", "node_offsets", "parent",
                     "node_level", "node_leading"):
            assert not getattr(frozen, name).flags.writeable, name
        with pytest.raises(ValueError):
            frozen.radii[0, 0] = -1.0
        # Queries still answer, bit-identical to the unfrozen build.
        us = np.arange(self.g.n - 1)
        vs = us + 1
        assert np.array_equal(
            frozen.distances(us, vs), self.forest.distances(us, vs)
        )
        # The caller's betas array is copied before freezing, not frozen
        # in place.
        assert self.betas.flags.writeable

    def test_tree_index_validation(self):
        with pytest.raises(IndexError):
            self.forest.tree(self.forest.size)
        with pytest.raises(IndexError):
            self.forest.tree(-1)

    @pytest.mark.parametrize(
        "us,vs,bad", [([-1], [0], -1), ([0], [-3], -3), ([0, 1], [2, 30], 30)]
    )
    def test_vertex_ids_outside_range_rejected(self, us, vs, bad):
        """Regression: ``distances([-1], [0])`` answered with vertex
        ``n - 1``'s row (NumPy wraps the index), while ``[0], [n]`` raised
        ``IndexError``; both are now one ``ValueError``."""
        for query in (
            self.forest.lca_levels,
            self.forest.distances,
            self.forest.tree(0).distances,
        ):
            with pytest.raises(ValueError, match=f"vertex id {bad} is not a vertex"):
                query(us, vs)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, 2.0, 0.5])
    def test_betas_outside_range_rejected(self, beta):
        """Regression: a NaN beta passed the range check and failed later,
        converting NaN to an integer."""
        betas = self.betas.copy()
        betas[1] = beta
        with pytest.raises(ValueError, match="every beta must lie in"):
            build_frt_forest(self.lists, self.ranks, betas, self.wmin)

    def test_trees_list(self):
        trees = self.forest.trees()
        assert len(trees) == self.forest.size
        assert all(t.n == self.g.n and t.size == 1 for t in trees)
        # The k = 1 trees concatenate back into the forest.
        assert_forests_equal(FRTForest.concat(trees), self.forest)

    def test_tree_is_zero_copy_single_sample_forest(self):
        f = self.forest
        for s in range(f.size):
            t = f.tree(s)
            alone = build_frt_forest(
                self.lists.sample_states(s), self.ranks[s : s + 1],
                self.betas[s : s + 1], self.wmin,
            )
            assert_forests_equal(t, alone)
            for name in ("level_ids", "parent", "cum_weights"):
                assert np.shares_memory(getattr(t, name), getattr(f, name)), name
            # The tree of a one-tree forest is that forest again.
            assert_forests_equal(t.tree(0), t)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="ranks"):
            build_frt_forest(self.lists, self.ranks[:, :-1], self.betas, self.wmin)
        with pytest.raises(ValueError, match="betas"):
            build_frt_forest(self.lists, self.ranks, self.betas[:-1], self.wmin)
        with pytest.raises(ValueError, match="beta"):
            build_frt_forest(
                self.lists, self.ranks, np.full(4, 2.5), self.wmin
            )
        with pytest.raises(ValueError, match="wmin"):
            build_frt_forest(self.lists, self.ranks, self.betas, 0.0)
        with pytest.raises(ValueError, match="lower bound"):
            # A huge wmin makes level-0 balls swallow neighbors.
            build_frt_forest(self.lists, self.ranks, self.betas, 1e6)

    def test_rejects_empty_lists(self):
        bad = BatchedFlatStates(
            k=1,
            n=2,
            offsets=np.array([0, 1, 1]),
            ids=np.array([0]),
            dists=np.array([0.0]),
        )
        with pytest.raises(ValueError, match="non-empty"):
            build_frt_forest(
                bad, np.array([[0, 1]]), np.array([1.5]), 1.0
            )

    def test_rejects_non_fixpoint_lists(self):
        # Forge per-sample lists whose last entries disagree: no common root.
        bad = BatchedFlatStates(
            k=1,
            n=2,
            offsets=np.array([0, 1, 2]),
            ids=np.array([0, 1]),
            dists=np.array([0.0, 0.0]),
        )
        with pytest.raises(ValueError, match="fixpoint"):
            build_frt_forest(
                bad, np.array([[0, 1]]), np.array([1.5]), 1.0
            )

    def test_rejects_unsorted_lists(self):
        bad = BatchedFlatStates(
            k=1,
            n=2,
            offsets=np.array([0, 2, 4]),
            ids=np.array([0, 1, 0, 1]),
            dists=np.array([0.0, 3.0, 3.0, 0.0]),  # second list descending
        )
        with pytest.raises(ValueError, match="ascending"):
            build_frt_forest(
                bad, np.array([[0, 1]]), np.array([1.5]), 1.0
            )


class TestPipelineForest:
    def test_nan_beta_sample_rejected(self):
        g = gen.random_graph(20, 50, rng=29)
        pipe = Pipeline(g, PipelineConfig(embedding=EmbeddingConfig(method="direct")))
        with pytest.raises(ValueError, match="every beta must lie in"):
            pipe.sample(beta=float("nan"))
        # A stage block that raises records nothing.
        assert pipe.stats["samples"] == 0 and "samples" not in pipe.timings

    def test_batched_result_carries_forest(self):
        g = gen.random_graph(48, 130, rng=30)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
        res = Pipeline(g, cfg).sample_ensemble(k=6, seed=0)
        assert isinstance(res.forest, FRTForest)
        assert res.forest.size == 6
        for s, emb in enumerate(res.embeddings):
            assert_forests_equal(emb.tree, res.forest.tree(s))

    def test_one_tree_at_a_time_still_carries_forest(self):
        """shard_size=1 samples one tree at a time in-process and still
        returns the stacked forest."""
        g = gen.random_graph(32, 90, rng=31)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
        res = Pipeline(g, cfg).sample_ensemble(
            k=3, seed=0, execution=ExecutionConfig(shard_size=1)
        )
        assert isinstance(res.forest, FRTForest) and res.forest.size == 3
        assert res.le_lists.k == 3 and res.ranks.shape == (3, g.n)

    def test_batched_trees_match_serial_mode(self):
        """The ensemble's forest views equal trees sampled one by one with
        ``Pipeline.sample()`` on the same child generators."""
        g = gen.random_graph(48, 130, rng=32)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
        pipe = Pipeline(g, cfg)
        b = pipe.sample_ensemble(k=5, seed=7)
        a = [pipe.sample(rng=c) for c in spawn_rngs(split_seed(7, 2)[1], 5)]
        for ea, eb in zip(a, b):
            assert_forests_equal(eb.tree, ea.tree)
        iu, ju = np.triu_indices(g.n, k=1)
        assert np.array_equal(
            np.concatenate([e.tree.distances(iu, ju) for e in a]),
            b.forest.distances(iu, ju),
        )

    def test_oracle_pipeline_forest(self):
        g = gen.random_graph(32, 90, rng=33)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))
        pipe = Pipeline(g, cfg)
        b = pipe.sample_ensemble(k=3, seed=1)
        a = [pipe.sample(rng=c) for c in spawn_rngs(split_seed(1, 2)[1], 3)]
        assert isinstance(b.forest, FRTForest)
        for ea, eb in zip(a, b):
            assert_forests_equal(eb.tree, ea.tree)
