"""Tests for FRT tree ensembles and hierarchical decompositions."""

import numpy as np
import pytest

from repro.api import EmbeddingConfig, Pipeline, PipelineConfig
from repro.frt import (
    decomposition_of,
    FRTEnsemble,
    sample_frt_tree,
    sample_frt_tree_via_oracle,
)
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances
from repro.util.rng import spawn_rngs

DIRECT = PipelineConfig(embedding=EmbeddingConfig(method="direct"))


class TestEnsembleBasics:
    def test_sample_size(self):
        g = gen.cycle(16, rng=0)
        ens = Pipeline(g, DIRECT).sample_ensemble(5, seed=1).ensemble()
        assert ens.size == 5
        assert ens.n == 16
        assert ens.forest is not None

    def test_size_validation(self):
        g = gen.cycle(8, rng=0)
        with pytest.raises(ValueError):
            Pipeline(g, DIRECT).sample_ensemble(0)
        with pytest.raises(ValueError):
            FRTEnsemble([])

    def test_mixed_n_rejected(self):
        a = sample_frt_tree(gen.cycle(8, rng=0), rng=1)
        b = sample_frt_tree(gen.cycle(9, rng=0), rng=1)
        with pytest.raises(ValueError):
            FRTEnsemble([a, b])

    def test_custom_sampler(self):
        """An ensemble of trees from the caller's own sampling loop; without
        a forest, queries take the per-tree loop."""
        g = gen.cycle(16, rng=2)
        ens = FRTEnsemble([sample_frt_tree(g, rng=r) for r in spawn_rngs(3, 3)])
        assert ens.size == 3 and ens.forest is None
        assert ens.distances([0], [8]).shape == (3, 1)

    def test_oracle_sampler_integration(self):
        from repro.hopsets import hub_hopset
        from repro.oracle import HOracle

        g = gen.cycle(20, rng=4)
        oracle = HOracle(hub_hopset(g, d0=3, rng=5), rng=6)
        ens = Pipeline(g, PipelineConfig(), oracle=oracle).sample_ensemble(3, seed=7).ensemble()
        assert ens.size == 3
        # the same oracle serves the single-tree wrapper too
        emb = sample_frt_tree_via_oracle(g, oracle=oracle, rng=7)
        assert FRTEnsemble([emb, *ens.embeddings]).size == 4


class TestEnsembleDistances:
    def setup_method(self):
        self.g = gen.grid(5, 5, rng=10)
        self.ens = Pipeline(self.g, DIRECT).sample_ensemble(8, seed=11).ensemble()
        self.D = dijkstra_distances(self.g)

    def test_distances_shape(self):
        d = self.ens.distances([0, 1], [24, 20])
        assert d.shape == (8, 2)

    def test_min_still_dominates(self):
        iu, ju = np.triu_indices(25, k=1)
        ub = self.ens.distance_upper_bounds(iu, ju)
        assert np.all(ub >= self.D[iu, ju] - 1e-9)

    def test_min_tightens_with_size(self):
        iu, ju = np.triu_indices(25, k=1)
        small = FRTEnsemble(self.ens.embeddings[:2])
        ratio_small = (small.distance_upper_bounds(iu, ju) / self.D[iu, ju]).mean()
        ratio_full = (self.ens.distance_upper_bounds(iu, ju) / self.D[iu, ju]).mean()
        assert ratio_full <= ratio_small

    def test_median_between_min_and_max(self):
        d = self.ens.distances([0], [24])
        med = self.ens.median_distances([0], [24])
        assert d.min() <= med[0] <= d.max()

    def test_best_tree_for_objective(self):
        # objective: tree distance between opposite corners
        emb, val = self.ens.best_tree_for(lambda t: t.distance(0, 24))
        all_vals = [t.distance(0, 24) for t in self.ens.trees]
        assert val == pytest.approx(min(all_vals))
        assert emb.tree.distance(0, 24) == pytest.approx(val)


class TestForestBackedEnsemble:
    def setup_method(self):
        self.g = gen.random_graph(40, 110, rng=30)
        self.res = Pipeline(self.g, DIRECT).sample_ensemble(k=6, seed=3)

    def test_forest_and_loop_queries_identical(self):
        ens = self.res.ensemble()
        assert ens.forest is not None
        bare = FRTEnsemble(list(ens.embeddings))  # no forest: per-tree loop
        iu, ju = np.triu_indices(self.g.n, k=1)
        assert np.array_equal(ens.distances(iu, ju), bare.distances(iu, ju))
        assert np.array_equal(
            ens.distance_upper_bounds(iu, ju),
            bare.distance_upper_bounds(iu, ju),
        )
        assert np.array_equal(
            ens.median_distances(iu, ju), bare.median_distances(iu, ju)
        )

    def test_mismatched_forest_rejected(self):
        ens = self.res.ensemble()
        with pytest.raises(ValueError):
            FRTEnsemble(list(ens.embeddings[:2]), forest=ens.forest)

    def test_shape_compatible_wrong_forest_rejected(self):
        # Same graph, same k, different seed: (size, n) match but the
        # trees differ — the per-sample invariants must catch it.
        other = Pipeline(self.g, DIRECT).sample_ensemble(k=6, seed=99)
        with pytest.raises(ValueError):
            FRTEnsemble(list(self.res.embeddings), forest=other.forest)


class TestDecomposition:
    def setup_method(self):
        self.g = gen.random_graph(30, 70, rng=20)
        self.emb = sample_frt_tree(self.g, rng=21)
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
