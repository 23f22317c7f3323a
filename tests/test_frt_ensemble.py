"""Tests for sampled FRT ensembles (``PipelineResult`` + ``FRTForest``)
and the hierarchical decompositions their trees encode."""

from functools import lru_cache

import numpy as np
import pytest

from repro.api import EmbeddingConfig, Pipeline, PipelineConfig, PipelineResult
from repro.frt import FRTForest
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances
from tests.frt_reference import assert_forests_equal

DIRECT = PipelineConfig(embedding=EmbeddingConfig(method="direct"))


class TestEnsembleBasics:
    def test_sample_size(self):
        g = gen.cycle(16, rng=0)
        res = Pipeline(g, DIRECT).sample_ensemble(5, seed=1)
        assert res.size == len(res) == len(res.embeddings) == 5
        assert res.forest.size == 5 and res.forest.n == 16
        assert res.le_lists.k == 5 and res.ranks.shape == (5, 16)

    def test_size_validation(self):
        g = gen.cycle(8, rng=0)
        with pytest.raises(ValueError):
            Pipeline(g, DIRECT).sample_ensemble(0)

    def test_mixed_n_rejected(self):
        a = Pipeline(gen.cycle(8, rng=0), DIRECT).sample_ensemble(2, seed=1)
        b = Pipeline(gen.cycle(9, rng=0), DIRECT).sample_ensemble(2, seed=1)
        with pytest.raises(ValueError):
            FRTForest.concat([a.forest, b.forest])
        with pytest.raises(ValueError):
            PipelineResult(
                forest=a.forest,
                le_lists=b.le_lists,
                ranks=b.ranks,
                iterations=b.iterations,
                ledgers=b.ledgers,
            )

    def test_oracle_sampler_integration(self):
        from repro.hopsets import hub_hopset
        from repro.oracle import HOracle

        g = gen.cycle(20, rng=4)
        oracle = HOracle(hub_hopset(g, d0=3, rng=5), rng=6)
        pipe = Pipeline(g, PipelineConfig(), oracle=oracle)
        res = pipe.sample_ensemble(3, seed=7)
        assert res.size == 3
        # the same oracle serves the single-tree view too
        emb = Pipeline(g, PipelineConfig(), oracle=oracle, rng=7).sample()
        assert emb.tree.n == res.forest.n == 20
        assert pipe.stats["oracle_builds"] == 0


class TestEnsembleDistances:
    def setup_method(self):
        self.g = gen.grid(5, 5, rng=10)
        self.res = Pipeline(self.g, DIRECT).sample_ensemble(8, seed=11)
        self.forest = self.res.forest
        self.D = dijkstra_distances(self.g)

    def test_distances_shape(self):
        d = self.forest.distances([0, 1], [24, 20])
        assert d.shape == (8, 2)

    def test_min_still_dominates(self):
        iu, ju = np.triu_indices(25, k=1)
        ub = self.forest.distance_upper_bounds(iu, ju)
        assert np.all(ub >= self.D[iu, ju] - 1e-9)

    def test_min_tightens_with_size(self):
        iu, ju = np.triu_indices(25, k=1)
        small = self.forest.distances(iu, ju)[:2].min(axis=0)
        ratio_small = (small / self.D[iu, ju]).mean()
        ratio_full = (self.forest.distance_upper_bounds(iu, ju) / self.D[iu, ju]).mean()
        assert ratio_full <= ratio_small

    def test_median_between_min_and_max(self):
        d = self.forest.distances([0], [24])
        med = self.forest.median_distances([0], [24])
        assert d.min() <= med[0] <= d.max()

    def test_best_tree_for_objective(self):
        # objective: tree distance between opposite corners
        emb, val = self.res.best_tree_for(lambda t: t.distances([0], [24])[0, 0])
        all_vals = self.forest.distances([0], [24])[:, 0]
        assert val == min(all_vals)
        assert emb.tree.distances([0], [24])[0, 0] == val

    @pytest.mark.parametrize("objective", ["corner", "depth", "constant"])
    def test_best_tree_for_builds_only_the_winner(self, objective):
        # Scores forest.trees() and builds the winner's view alone: no
        # sample's LE lists are copied out for scoring.  The result equals
        # the old loop over every embedding, field by field; "depth" and
        # "constant" tie, and the first minimum wins.
        fn = {
            "corner": lambda t: t.distances([0], [24])[0, 0],
            "depth": lambda t: t.depths[0],
            "constant": lambda t: 1.0,
        }[objective]
        emb, val = self.res.best_tree_for(fn)
        assert "embeddings" not in self.res.__dict__
        old = None
        for e in self.res.embeddings:
            v = float(fn(e.tree))
            if old is None or v < old[1]:
                old = (e, v)
        want, want_val = old
        assert val == want_val
        assert_forests_equal(emb.tree, want.tree)
        assert np.array_equal(emb.rank, want.rank)
        assert emb.beta == want.beta
        for name in ("offsets", "ids", "dists"):
            a, b = getattr(emb.le_lists, name), getattr(want.le_lists, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (emb.le_lists.k, emb.le_lists.n) == (want.le_lists.k, want.le_lists.n)
        assert emb.iterations == want.iterations
        assert emb.meta == want.meta


class TestForestBackedEnsemble:
    def setup_method(self):
        self.g = gen.random_graph(40, 110, rng=30)
        self.res = Pipeline(self.g, DIRECT).sample_ensemble(k=6, seed=3)

    def test_forest_and_loop_queries_identical(self):
        forest = self.res.forest
        iu, ju = np.triu_indices(self.g.n, k=1)
        loop = np.concatenate([t.distances(iu, ju) for t in forest.trees()])
        assert np.array_equal(forest.distances(iu, ju), loop)
        assert np.array_equal(forest.distance_upper_bounds(iu, ju), loop.min(axis=0))
        assert np.array_equal(
            forest.median_distances(iu, ju), np.median(loop, axis=0)
        )

    def test_mismatched_forest_rejected(self):
        two = Pipeline(self.g, DIRECT).sample_ensemble(k=2, seed=3)
        with pytest.raises(ValueError, match="do not match the forest"):
            PipelineResult(
                forest=self.res.forest,
                le_lists=two.le_lists,
                ranks=two.ranks,
                iterations=two.iterations,
                ledgers=two.ledgers,
            )


@lru_cache(maxsize=None)
def _decomposition_forests():
    """``(D, forest)`` for a k-forest from each sampling path on one graph.

    Built once: every decomposition property below reads every sample of
    both forests.
    """
    g = gen.random_graph(30, 70, rng=20)
    D = dijkstra_distances(g)
    direct = Pipeline(g, DIRECT).sample_ensemble(6, seed=21).forest
    oracle = Pipeline(g, PipelineConfig(), rng=22).sample_ensemble(4, seed=23).forest
    return [(D, direct), (D, oracle)]


def _levels(forest):
    """``(s, i, labels)`` for every real level ``i`` of every sample ``s``:
    ``labels[v]`` is ``v``'s level-``i`` cluster (its tree node)."""
    for s in range(forest.size):
        for i in range(int(forest.depths[s]) + 1):
            yield s, i, forest.level_ids[s, :, i]


class TestDecomposition:
    """An FRT tree is a laminar hierarchical decomposition of ``V``: the
    level-``i`` nodes partition the vertices into clusters of G-diameter at
    most ``2·r_i`` (every member within ``r_i`` of the cluster's leading
    vertex), each level refining the one above, from singletons at level 0
    to one cluster at the root.  Checked on every sample of a k-forest, on
    the direct and the oracle path."""

    def test_levels_cover_tree(self):
        # Each real level's clusters are exactly the sample's nodes of that
        # level, and the padding above its depth repeats the root.
        for _, forest in _decomposition_forests():
            for s, i, labels in _levels(forest):
                lo, hi = forest.node_offsets[s], forest.node_offsets[s + 1]
                level_nodes = np.flatnonzero(forest.node_level[lo:hi] == i)
                assert np.array_equal(np.unique(labels), level_nodes)
            k = forest.depths[:, None, None]
            cols = np.arange(forest.k_max + 1)[None, None, :]
            root = np.take_along_axis(forest.level_ids, k, axis=2)
            assert np.all((forest.level_ids == root) | (cols < k))

    def test_leaf_level_singletons(self):
        for _, forest in _decomposition_forests():
            for s in range(forest.size):
                assert np.unique(forest.level_ids[s, :, 0]).size == forest.n

    def test_root_level_single_cluster(self):
        for _, forest in _decomposition_forests():
            for s in range(forest.size):
                root = forest.level_ids[s, :, int(forest.depths[s])]
                assert np.unique(root).size == 1

    def test_partition_at_every_level(self):
        # Every vertex sits in exactly one cluster per level, and that
        # cluster is a tree node of the level.
        for _, forest in _decomposition_forests():
            for s, i, labels in _levels(forest):
                assert labels.shape == (forest.n,)
                assert np.all(forest.node_level[forest.node_offsets[s] + labels] == i)

    def test_refinement_chain(self):
        # Every level-i cluster lies inside one level-(i+1) cluster: its
        # parent node.
        for _, forest in _decomposition_forests():
            for s, i, fine in _levels(forest):
                if i < forest.depths[s]:
                    coarse = forest.level_ids[s, :, i + 1]
                    assert np.array_equal(forest.parent[forest.node_offsets[s] + fine], coarse)

    def test_diameter_bound(self):
        # Cluster G-diameter <= 2 * r_i (domination of the embedded metric).
        for D, forest in _decomposition_forests():
            for s, i, labels in _levels(forest):
                for cid in np.unique(labels):
                    members = np.flatnonzero(labels == cid)
                    diam = D[np.ix_(members, members)].max()
                    assert diam <= 2 * forest.radii[s, i] + 1e-9

    def test_centers_are_members_distancewise(self):
        # Every vertex is within r_i of its level-i leading vertex in G.
        for D, forest in _decomposition_forests():
            for s, i, labels in _levels(forest):
                centers = forest.node_leading[forest.node_offsets[s] + labels]
                assert np.all(D[np.arange(forest.n), centers] <= forest.radii[s, i] + 1e-9)

    def test_cluster_of_consistent(self):
        # One center per cluster: vertices sharing a level-i cluster share
        # its leading vertex, and level-0 clusters are led by their vertex.
        for _, forest in _decomposition_forests():
            for s, i, labels in _levels(forest):
                centers = forest.node_leading[forest.node_offsets[s] + labels]
                if i == 0:
                    assert np.array_equal(centers, np.arange(forest.n))
                for cid in np.unique(labels):
                    assert np.unique(centers[labels == cid]).size == 1
