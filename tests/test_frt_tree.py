"""Tests for LE lists and FRT tree construction (Section 7)."""

import numpy as np
import pytest

from repro.api import EmbeddingConfig, Pipeline, PipelineConfig
from repro.frt import build_frt_forest, compute_le_lists_batch
from repro.frt.lelists import max_list_length
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter
from tests.frt_reference import children_lists, distance_matrix, to_networkx

DIRECT = PipelineConfig(embedding=EmbeddingConfig(method="direct"))


def le_lists_of(g, rank):
    """LE lists of one order: the k = 1 view of the batched driver."""
    lists, iters = compute_le_lists_batch(g, np.asarray(rank)[None, :])
    return lists.sample_states(0), int(iters[0])


def tree_of(lists, rank, beta, wmin):
    """The tree of one sample: a k = 1 forest."""
    ranks = np.asarray(rank)[None, :]
    return build_frt_forest(lists, ranks, np.array([beta]), wmin)


def leaf_of(tree, v):
    return int(tree.level_ids[0, v, 0])


def root_of(tree):
    return int(tree.level_ids[0, 0, tree.k_max])


class TestLEListSemantics:
    def test_definition_brute_force(self, small_graphs):
        """LE list == brute-force domination filter on exact distances."""
        for g in small_graphs:
            rank = np.random.default_rng(1).permutation(g.n)
            lists, _ = le_lists_of(g, rank)
            D = dijkstra_distances(g)
            for v in range(g.n):
                want = {}
                for w in range(g.n):
                    dominated = any(
                        rank[u] < rank[w] and D[v, u] <= D[v, w] for u in range(g.n)
                    )
                    if not dominated and np.isfinite(D[v, w]):
                        want[w] = D[v, w]
                ids, dists = lists.node(v)
                got = dict(zip(ids.tolist(), dists.tolist()))
                assert got == pytest.approx(want)

    def test_fixpoint_iterations_at_most_spd(self, small_graphs):
        for g in small_graphs:
            rank = np.random.default_rng(2).permutation(g.n)
            _, iters = le_lists_of(g, rank)
            assert iters <= shortest_path_diameter(g)

    def test_rank_validation(self):
        g = gen.cycle(6)
        with pytest.raises(ValueError):
            le_lists_of(g, np.zeros(6, dtype=np.int64))
        with pytest.raises(ValueError):
            le_lists_of(g, np.arange(5))

    def test_length_logarithmic(self):
        # Lemma 7.6: |LE list| ∈ O(log n) w.h.p.
        g = gen.random_graph(400, 1200, rng=5)
        lengths = []
        for seed in range(5):
            rank = np.random.default_rng(seed).permutation(g.n)
            lists, _ = le_lists_of(g, rank)
            lengths.append(max_list_length(lists))
        assert max(lengths) <= 4 * np.log2(g.n)

    def test_harmonic_expected_length(self):
        # E|LE list| = H_n ≈ ln n for the list of distances from one vertex.
        g = gen.star(200, rng=0)
        tot = 0.0
        reps = 20
        for seed in range(reps):
            rank = np.random.default_rng(seed).permutation(g.n)
            lists, _ = le_lists_of(g, rank)
            tot += lists.counts().mean()
        avg = tot / reps
        assert 0.3 * np.log(g.n) <= avg <= 3 * np.log(g.n)

    def test_as_arrays(self):
        """Per-vertex ``(ids, dists)`` slices, sorted by increasing distance."""
        g = gen.cycle(8, rng=0)
        rank = np.random.default_rng(0).permutation(8)
        lists, _ = le_lists_of(g, rank)
        arrays = [lists.node(v) for v in range(lists.k * lists.n)]
        assert len(arrays) == 8
        for ids, dists in arrays:
            assert ids.size == dists.size > 0
            assert np.all(np.diff(dists) >= 0)


class TestTreeConstruction:
    def _tree(self, g, seed=0, beta=1.5):
        rank = np.random.default_rng(seed).permutation(g.n)
        lists, _ = le_lists_of(g, rank)
        wmin, _ = g.weight_bounds()
        return tree_of(lists, rank, beta, wmin), rank

    def test_basic_shape(self):
        g = gen.grid(4, 4, rng=0)
        tree, _ = self._tree(g)
        assert tree.n == 16 and tree.size == 1
        assert tree.total_nodes >= tree.k_max + 1
        # one root
        assert int(np.sum(tree.parent < 0)) == 1

    def test_leaves_are_vertices(self):
        g = gen.cycle(10, rng=1)
        tree, _ = self._tree(g)
        leaves = {leaf_of(tree, v) for v in range(10)}
        assert len(leaves) == 10
        for v in range(10):
            assert tree.node_leading[leaf_of(tree, v)] == v
            assert tree.node_level[leaf_of(tree, v)] == 0

    def test_root_is_min_rank_vertex(self):
        g = gen.random_graph(20, 40, rng=2)
        tree, rank = self._tree(g, seed=3)
        assert tree.node_leading[root_of(tree)] == np.argmin(rank)

    def test_parent_levels_consistent(self):
        g = gen.random_graph(15, 30, rng=4)
        tree, _ = self._tree(g)
        for node in range(tree.total_nodes):
            p = tree.parent[node]
            if p >= 0:
                assert tree.node_level[p] == tree.node_level[node] + 1

    def test_distance_via_networkx(self):
        import networkx as nx

        g = gen.grid(3, 4, rng=5)
        tree, _ = self._tree(g, seed=6)
        T = to_networkx(tree)
        for u, v in [(0, 11), (3, 7), (1, 2)]:
            want = nx.shortest_path_length(
                T, leaf_of(tree, u), leaf_of(tree, v), weight="weight"
            )
            assert tree.distances([u], [v])[0, 0] == pytest.approx(want)

    def test_distance_matrix_symmetric_zero_diag(self):
        g = gen.cycle(9, rng=7)
        tree, _ = self._tree(g)
        M = distance_matrix(tree)
        assert np.allclose(M, M.T)
        assert np.all(np.diag(M) == 0)

    def test_tree_metric_four_point(self):
        # Any tree metric satisfies the four-point condition.
        g = gen.random_graph(12, 25, rng=8)
        tree, _ = self._tree(g, seed=9)
        M = distance_matrix(tree)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c, d = rng.choice(12, size=4, replace=False)
            s1 = M[a, b] + M[c, d]
            s2 = M[a, c] + M[b, d]
            s3 = M[a, d] + M[b, c]
            top2 = sorted([s1, s2, s3])[1:]
            assert top2[0] == pytest.approx(top2[1])

    def test_children_lists(self):
        g = gen.cycle(7, rng=1)
        tree, _ = self._tree(g)
        children = children_lists(tree)
        for node, p in enumerate(tree.parent):
            if p >= 0:
                assert node in children[p]
        # leaves have no children
        for v in range(7):
            assert children[leaf_of(tree, v)] == []

    def test_children_lists_matches_naive_loop(self):
        # The forest k-median kernel groups children with a stable argsort
        # on ``parent``; that grouping must reproduce the per-node append
        # loop the reference DP folds in: same lists, increasing id order.
        g = gen.random_graph(40, 100, rng=12)
        tree, _ = self._tree(g, seed=13)
        naive = children_lists(tree)
        nonroot = np.flatnonzero(tree.parent >= 0)
        kids = nonroot[np.argsort(tree.parent[nonroot], kind="stable")]
        bounds = np.concatenate(
            [[0], np.cumsum(np.bincount(tree.parent[nonroot], minlength=tree.total_nodes))]
        )
        got = [kids[bounds[p] : bounds[p + 1]].tolist() for p in range(tree.total_nodes)]
        assert got == naive
        for lst in got:
            assert lst == sorted(lst)

    def test_edge_weight_above(self):
        # The edge above a level-i node weighs edge_weights[i] = r_{i+1}
        # (the parent radius); the networkx export reads the same weight,
        # and the root has no edge above it.
        g = gen.cycle(7, rng=1)
        tree, _ = self._tree(g)
        T = to_networkx(tree)
        leaf = leaf_of(tree, 0)
        p = int(tree.parent[leaf])
        assert T.edges[leaf, p]["weight"] == tree.edge_weights[0, 0] == tree.radii[0, 1]
        assert tree.parent[root_of(tree)] == -1
        assert T.degree[root_of(tree)] == len(children_lists(tree)[root_of(tree)])

    def test_beta_validation(self):
        g = gen.cycle(6, rng=0)
        rank = np.random.default_rng(0).permutation(6)
        lists, _ = le_lists_of(g, rank)
        with pytest.raises(ValueError):
            tree_of(lists, rank, 2.5, 1.0)
        with pytest.raises(ValueError):
            tree_of(lists, rank, 1.5, 0.0)

    def test_wmin_must_lower_bound_distances(self):
        g = gen.cycle(6, wmin=1, wmax=1, rng=0)
        rank = np.random.default_rng(0).permutation(6)
        lists, _ = le_lists_of(g, rank)
        with pytest.raises(ValueError):
            tree_of(lists, rank, 1.0, 10.0)  # r_0 swallows neighbors


class TestDominanceAndStretch:
    def test_dominance_exhaustive(self, small_graphs):
        """dist_T >= dist_G for every pair, every seed — Definition 7.1."""
        for g in small_graphs:
            DG = dijkstra_distances(g)
            for seed in range(4):
                res = Pipeline(g, DIRECT, rng=seed).sample()
                MT = distance_matrix(res.tree)
                assert np.all(MT >= DG - 1e-9), f"domination violated (seed={seed})"

    def test_distance_upper_bound_at_lca(self):
        # dist_T(u,v) <= 4 * r_{lca level} by the geometric sum.
        g = gen.grid(4, 4, rng=3)
        res = Pipeline(g, DIRECT, rng=1).sample()
        tree = res.tree
        iu, ju = np.triu_indices(16, k=1)
        lvl = tree.lca_levels(iu, ju)[0]
        d = tree.distances(iu, ju)[0]
        assert np.all(d <= 4.0 * tree.radii[0, lvl] + 1e-9)

    def test_expected_stretch_reasonable(self):
        from repro.frt import evaluate_stretch

        g = gen.cycle(32, rng=2)
        shared = np.random.default_rng(11)
        report = evaluate_stretch(
            g, lambda: Pipeline(g, DIRECT, rng=shared).sample().tree, trees=20, rng=4
        )
        assert report.dominating
        # O(log n) with a sane constant (paper: 128 ln n-ish worst case;
        # doubled weights add ≤ 2x; empirically ~2-6 log2 n on cycles,
        # plus finite-sample noise in the max over pairs).
        assert report.max_expected_stretch <= 12 * np.log2(g.n)

    def test_single_tree_stretch_can_exceed_expectation(self):
        g = gen.cycle(32, rng=2)
        from repro.frt import evaluate_stretch

        shared = np.random.default_rng(13)
        report = evaluate_stretch(
            g, lambda: Pipeline(g, DIRECT, rng=shared).sample().tree, trees=20, rng=4
        )
        assert report.max_stretch_single >= report.max_expected_stretch


class TestSampleFRTTree:
    def test_reproducible_with_seed(self):
        g = gen.random_graph(20, 45, rng=0)
        a = Pipeline(g, DIRECT, rng=42).sample()
        b = Pipeline(g, DIRECT, rng=42).sample()
        assert a.beta == b.beta
        assert np.array_equal(a.rank, b.rank)
        assert np.array_equal(a.tree.level_ids, b.tree.level_ids)

    def test_explicit_beta_rank(self):
        g = gen.cycle(8, rng=0)
        rank = np.arange(8)
        res = Pipeline(g, DIRECT, rng=0).sample(rank=rank, beta=1.25)
        assert res.beta == 1.25
        assert np.array_equal(res.rank, rank)
        assert res.tree.node_leading[root_of(res.tree)] == 0

    def test_disconnected_rejected(self):
        from repro.graph.core import Graph

        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            Pipeline(g, DIRECT).sample()

    def test_iterations_recorded(self):
        g = gen.path_graph(16)
        res = Pipeline(g, DIRECT, rng=1).sample()
        assert 1 <= res.iterations <= 15
