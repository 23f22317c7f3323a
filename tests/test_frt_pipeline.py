"""End-to-end tests for the oracle-based FRT pipeline (Theorem 7.9) and
Section 7.5 path reconstruction."""

import numpy as np
import pytest

from repro.api import EmbeddingConfig, HopsetConfig, Pipeline, PipelineConfig
from repro.frt import evaluate_stretch, tree_edge_to_graph_path
from repro.frt.paths import PathOracle, reconstruct_graph_path
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter
from repro.hopsets import hub_hopset, rounded_hopset
from repro.oracle import HOracle
from repro.pram import CostLedger
from tests.frt_reference import distance_matrix

DIRECT = PipelineConfig(embedding=EmbeddingConfig(method="direct"))


def _via_oracle(g, *, eps=0.25, d0=None, rng=None, hopset=None, oracle=None):
    """A pipeline whose ``sample()`` runs the oracle method on a hub hop set."""
    return Pipeline(
        g,
        PipelineConfig(hopset=HopsetConfig(eps=eps, d0=d0)),
        rng=rng,
        hopset=hopset,
        oracle=oracle,
    )


class TestOraclePipeline:
    def test_dominates_g(self):
        g = gen.cycle(24, wmin=1, wmax=2, rng=0)
        DG = dijkstra_distances(g)
        for seed in range(3):
            res = _via_oracle(g, eps=0.25, d0=4, rng=seed).sample()
            MT = distance_matrix(res.tree)
            assert np.all(MT >= DG - 1e-9)

    def test_iterations_polylog_not_spd(self):
        # The headline: on a high-SPD cycle the oracle pipeline needs far
        # fewer outer iterations than SPD(G).
        g = gen.cycle(64, rng=1)
        spd = shortest_path_diameter(g)  # 32
        res = _via_oracle(g, eps=0.25, d0=6, rng=2).sample()
        assert res.iterations < spd / 2
        assert res.iterations <= int(np.log2(g.n) ** 2)

    def test_stretch_order_log_n(self):
        # The paper takes eps ∈ 1/polylog(n) so the (1+eps)^Λ distortion is
        # 1 + o(1); mirror that regime here.
        g = gen.cycle(32, rng=3)
        eps = 1.0 / np.log2(g.n) ** 2
        hopset = rounded_hopset(hub_hopset(g, d0=5, rng=4), g, eps)
        oracle = HOracle(hopset, rng=5)
        shared = np.random.default_rng(7)
        report = evaluate_stretch(
            g,
            lambda: _via_oracle(g, oracle=oracle, rng=shared).sample().tree,
            trees=16,
            rng=6,
        )
        assert report.dominating
        assert report.max_expected_stretch <= 14 * np.log2(g.n)
        assert report.mean_stretch <= 5 * np.log2(g.n)

    def test_oracle_reuse_across_samples(self):
        g = gen.grid(5, 5, rng=7)
        hopset = rounded_hopset(hub_hopset(g, d0=4, rng=8), g, 0.25)
        oracle = HOracle(hopset, rng=9)
        a = _via_oracle(g, oracle=oracle, rng=1).sample()
        b = _via_oracle(g, oracle=oracle, rng=2).sample()
        assert a.beta != b.beta  # fresh FRT randomness
        assert a.meta["Lambda"] == b.meta["Lambda"]  # shared H

    def test_meta_populated(self):
        g = gen.cycle(16, rng=0)
        res = _via_oracle(g, eps=0.5, d0=3, rng=1).sample()
        assert res.meta["pipeline"] == "oracle"
        assert res.meta["hop_d"] == 7
        assert res.meta["penalty_base"] == pytest.approx(1.5)

    def test_ledger_records_costs(self):
        g = gen.cycle(16, rng=0)
        ledger = CostLedger()
        _via_oracle(g, eps=0.25, d0=3, rng=1).sample(ledger=ledger)
        assert ledger.work > 0 and ledger.depth > 0

    def test_eps_zero_uses_exact_hopset(self):
        g = gen.cycle(16, rng=0)
        res = _via_oracle(g, eps=0.0, d0=3, rng=1).sample()
        assert res.meta["penalty_base"] == 1.0
        # Exact hop set ⇒ H is the metric ⇒ fixpoint in one iteration.
        assert res.iterations == 1


class TestExplicitRandomnessConsumesNoState:
    """Regression: explicitly supplied ``rank``/``beta`` must not draw from
    the RNG — the old code always drew both and discarded the overrides,
    silently shifting the caller's downstream random stream."""

    def _state(self, rng):
        return rng.bit_generator.state

    def test_both_explicit_leaves_rng_untouched(self):
        g = gen.cycle(10, rng=0)
        rank = np.arange(10, dtype=np.int64)
        rng = np.random.default_rng(123)
        Pipeline(g, DIRECT, rng=rng).sample(rank=rank, beta=1.5)
        assert self._state(rng) == self._state(np.random.default_rng(123))

    def test_both_explicit_via_oracle_leaves_rng_untouched(self):
        g = gen.cycle(10, rng=0)
        oracle = HOracle(rounded_hopset(hub_hopset(g, d0=3, rng=1), g, 0.25), rng=2)
        rank = np.arange(10, dtype=np.int64)
        rng = np.random.default_rng(123)
        _via_oracle(g, oracle=oracle, rng=rng).sample(rank=rank, beta=1.5)
        assert self._state(rng) == self._state(np.random.default_rng(123))

    def test_explicit_rank_draws_only_beta(self):
        g = gen.cycle(10, rng=0)
        rank = np.arange(10, dtype=np.int64)
        rng = np.random.default_rng(7)
        res = Pipeline(g, DIRECT, rng=rng).sample(rank=rank)
        expect = np.random.default_rng(7)
        assert res.beta == float(expect.uniform(1.0, 2.0))
        assert self._state(rng) == self._state(expect)

    def test_explicit_beta_draws_only_rank(self):
        g = gen.cycle(10, rng=0)
        rng = np.random.default_rng(7)
        res = Pipeline(g, DIRECT, rng=rng).sample(beta=1.25)
        expect = np.random.default_rng(7)
        perm = expect.permutation(10)
        want = np.empty(10, dtype=np.int64)
        want[perm] = np.arange(10)
        assert res.beta == 1.25
        assert np.array_equal(res.rank, want)
        assert self._state(rng) == self._state(expect)

    def test_default_draw_order_unchanged(self):
        """No overrides: permutation then beta, as before the fix."""
        g = gen.cycle(10, rng=0)
        res = Pipeline(g, DIRECT, rng=99).sample()
        expect = np.random.default_rng(99)
        perm = expect.permutation(10)
        want = np.empty(10, dtype=np.int64)
        want[perm] = np.arange(10)
        assert np.array_equal(res.rank, want)
        assert res.beta == float(expect.uniform(1.0, 2.0))


class TestPathReconstruction:
    def test_reconstruct_shortest_path(self):
        g = gen.grid(4, 5, rng=0)
        oracle = PathOracle(g)
        D = dijkstra_distances(g)
        for u, v in [(0, 19), (3, 12), (7, 7)]:
            p = oracle.path(u, v)
            assert p[0] == u and p[-1] == v
            assert oracle.path_weight(p) == pytest.approx(D[u, v])

    def test_path_edges_exist(self):
        g = gen.random_graph(15, 30, rng=1)
        p = reconstruct_graph_path(g, 0, 14)
        for a, b in zip(p[:-1], p[1:]):
            assert g.has_edge(a, b)

    def test_disconnected_raises(self):
        from repro.graph.core import Graph

        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            reconstruct_graph_path(g, 0, 3)

    def test_tree_edge_maps_to_bounded_path(self):
        g = gen.grid(4, 4, rng=2)
        res = Pipeline(g, DIRECT, rng=3).sample()
        tree = res.tree
        oracle = PathOracle(g)
        for child in range(tree.total_nodes):
            if tree.parent[child] < 0:
                continue
            p = tree_edge_to_graph_path(tree, child, g, oracle)
            lvl = int(tree.node_level[child])
            w = oracle.path_weight(p)
            # Section 7.5 bound: ≤ r_i + r_{i+1} = 1.5 ω_T(e).
            assert w <= tree.radii[0, lvl] + tree.radii[0, lvl + 1] + 1e-9
            assert p[0] == tree.node_leading[child]
            assert p[-1] == tree.node_leading[tree.parent[child]]

    def test_root_edge_rejected(self):
        g = gen.cycle(8, rng=0)
        res = Pipeline(g, DIRECT, rng=1).sample()
        root = int(res.tree.level_ids[0, 0, res.tree.k_max])
        with pytest.raises(ValueError):
            tree_edge_to_graph_path(res.tree, root, g)
        # A k-forest is not one tree: its node ids are per sample.
        two = Pipeline(g, DIRECT, rng=1).sample_ensemble(2, seed=2).forest
        with pytest.raises(ValueError, match="one tree"):
            tree_edge_to_graph_path(two, 1, g)

    def test_leaf_to_root_concatenation_connects(self):
        # Concatenating per-edge paths up the tree yields a valid G-walk
        # from any vertex's vicinity to the root's leading vertex.
        g = gen.cycle(12, rng=4)
        res = Pipeline(g, DIRECT, rng=5).sample()
        tree = res.tree
        oracle = PathOracle(g)
        node = int(tree.level_ids[0, 5, 0])  # vertex 5's leaf
        walk = [int(tree.node_leading[node])]
        while tree.parent[node] >= 0:
            seg = tree_edge_to_graph_path(tree, node, g, oracle)
            assert seg[0] == walk[-1]
            walk.extend(seg[1:])
            node = int(tree.parent[node])
        assert walk[-1] == tree.node_leading[tree.level_ids[0, 5, tree.k_max]]


class TestPipelineConstructorVariants:
    def test_prebuilt_hopset_path(self):
        from repro.hopsets import hub_hopset

        g = gen.cycle(16, rng=0)
        hop = hub_hopset(g, d0=3, rng=1)
        res = _via_oracle(g, hopset=hop, rng=2).sample()
        D = dijkstra_distances(g)
        assert np.all(distance_matrix(res.tree) >= D - 1e-9)

    def test_disconnected_rejected(self):
        from repro.graph.core import Graph

        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        import pytest as _pytest

        with _pytest.raises(ValueError):
            _via_oracle(g).sample()

    def test_empty_source_set_rejected_in_oracle_query(self):
        from repro.apps.kmedian import distance_to_set_via_oracle
        from repro.hopsets import hub_hopset
        from repro.oracle import HOracle

        g = gen.cycle(12, rng=3)
        oracle = HOracle(hub_hopset(g, d0=3, rng=4), rng=5)
        with pytest.raises(ValueError):
            distance_to_set_via_oracle(oracle, np.array([], dtype=np.int64))
