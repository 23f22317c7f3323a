"""Tests for sampled FRT ensembles (``PipelineResult`` + ``FRTForest``)
and hierarchical decompositions."""

import numpy as np
import pytest

from repro.api import EmbeddingConfig, Pipeline, PipelineConfig, PipelineResult
from repro.frt import FRTForest, decomposition_of
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances

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
        emb, val = self.res.best_tree_for(lambda t: t.distance(0, 24))
        all_vals = [t.distance(0, 24) for t in self.res.trees]
        assert val == pytest.approx(min(all_vals))
        assert emb.tree.distance(0, 24) == pytest.approx(val)


class TestForestBackedEnsemble:
    def setup_method(self):
        self.g = gen.random_graph(40, 110, rng=30)
        self.res = Pipeline(self.g, DIRECT).sample_ensemble(k=6, seed=3)

    def test_forest_and_loop_queries_identical(self):
        forest = self.res.forest
        iu, ju = np.triu_indices(self.g.n, k=1)
        loop = np.stack([t.distances(iu, ju) for t in self.res.trees])
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


class TestDecomposition:
    def setup_method(self):
        self.g = gen.random_graph(30, 70, rng=20)
        self.emb = Pipeline(self.g, DIRECT, rng=21).sample()
        self.dec = decomposition_of(self.emb.tree)

    def test_levels_cover_tree(self):
        assert self.dec.levels == self.emb.tree.k + 1

    def test_leaf_level_singletons(self):
        for members in self.dec.clusters(0):
            assert members.size == 1

    def test_root_level_single_cluster(self):
        assert len(self.dec.clusters(self.dec.levels - 1)) == 1

    def test_partition_at_every_level(self):
        for i in range(self.dec.levels):
            members = np.concatenate(self.dec.clusters(i))
            assert np.array_equal(np.sort(members), np.arange(30))

    def test_refinement_chain(self):
        assert self.dec.is_refinement_chain()

    def test_diameter_bound(self):
        # Cluster G-diameter <= 2 * r_i (domination of the embedded metric).
        for i in range(self.dec.levels):
            diam = self.dec.max_cluster_diameter(i, self.g)
            assert diam <= 2 * self.dec.radii[i] + 1e-9

    def test_centers_are_members_distancewise(self):
        # Every vertex is within r_i of its level-i center in G.
        D = dijkstra_distances(self.g)
        for i in range(self.dec.levels):
            for v in range(30):
                c = self.dec.center_of(i, v)
                assert D[v, c] <= self.dec.radii[i] + 1e-9

    def test_cluster_of_consistent(self):
        for v in range(30):
            cid = self.dec.cluster_of(1, v)
            members = self.dec.clusters(1)
            found = [m for m in members if v in m]
            assert len(found) == 1
            lab = self.dec.labels[1]
            assert np.all(lab[found[0]] == cid)
