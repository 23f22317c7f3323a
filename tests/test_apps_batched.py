"""Parity suite for the forest-backed application layer (repro.apps.batched).

The contract under test: :func:`hst_kmedian_dp_forest` and
:func:`route_demands_on_forest` are *bit-identical* per sample — DP costs,
facility ids, and per-node flows included — to the per-tree reference
loops ``hst_kmedian_dp`` and ``route_demands_on_tree``
(``tests/apps_reference.py``) run tree by tree, on every edge case the
per-tree DP handles (k = 1, non-power-of-two k, ragged ensemble depths,
weighted clients, disallowed facilities, single-vertex graphs).  Every
kernel is also batch-independent: run on ``forest.tree(s)``, a ``k = 1``
forest, it returns sample ``s``'s answer of the whole forest bit for bit.
"""

import numpy as np
import pytest

from repro.api import (
    EmbeddingConfig,
    HopsetConfig,
    Pipeline,
    PipelineConfig,
    generators as gen,
)
from repro.apps.batched import (
    cable_costs_array,
    forest_tree_costs,
    hst_kmedian_dp_forest,
    route_demands_on_forest,
)
from repro.apps.buyatbulk import CableType, Demand, buy_at_bulk, cable_cost
from repro.apps.kmedian import KMedianResult, kmedian
from repro.frt.forest import build_frt_forest
from repro.frt.lelists import compute_le_lists_batch
from repro.frt.paths import PathOracle, tree_edge_to_graph_path
from repro.graph.core import Graph
from repro.util.rng import as_rng
from tests.apps_reference import hst_kmedian_dp, route_demands_on_tree

CABLES = [CableType(1.0, 1.0), CableType(10.0, 4.0), CableType(100.0, 12.0)]


def _direct_forest(g, size, seed):
    pipe = Pipeline(
        g, PipelineConfig(embedding=EmbeddingConfig(method="direct")), rng=seed
    )
    res = pipe.sample_ensemble(size, seed=seed)
    assert res.forest is not None
    return res.forest


def _ragged_forest(seed=102):
    # Extreme betas force different tree depths across samples.
    g = gen.random_graph(50, 140, rng=seed)
    rng = np.random.default_rng(seed)
    ranks = np.stack([rng.permutation(g.n) for _ in range(6)])
    betas = np.array([1.0, 1.99, 1.0, 1.99, 1.5, 1.01])
    lists, _ = compute_le_lists_batch(g, ranks)
    forest = build_frt_forest(lists, ranks, betas, g.weight_bounds()[0])
    assert np.unique(forest.depths).size > 1
    return g, forest


def _single_vertex_forest():
    g = Graph.from_edge_list(1, [])
    ranks = np.zeros((3, 1), dtype=np.int64)
    betas = np.array([1.0, 1.5, 1.99])
    lists, _ = compute_le_lists_batch(g, ranks)
    return g, build_frt_forest(lists, ranks, betas, g.weight_bounds()[0])


def _assert_dp_parity(forest, weights, k, allowed=None):
    costs, facs = hst_kmedian_dp_forest(forest, weights, k, allowed=allowed)
    assert costs.shape == (forest.size,)
    assert len(facs) == forest.size
    for s in range(forest.size):
        want_cost, want_fac = hst_kmedian_dp(
            forest.tree(s), weights, k, allowed=allowed
        )
        assert costs[s] == want_cost  # exact, not approx
        assert facs[s].dtype == want_fac.dtype
        assert np.array_equal(facs[s], want_fac)
    return costs, facs


def _tree_cost(tree, tree_flows):
    """The per-edge cable purchase of one tree's flows, edge by edge."""
    return sum(
        cable_cost(f, CABLES) * float(tree.edge_weights[0, tree.node_level[node]])
        for node, f in tree_flows.items()
    )


class TestForestKMedianDPParity:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_random_graph_all_k(self, k):
        g = _direct_forest(gen.random_graph(60, 160, rng=0), 6, seed=1)
        rng = np.random.default_rng(2)
        _assert_dp_parity(g, rng.uniform(0.0, 3.0, 60), k)

    def test_k_equals_one_single_sample(self):
        g = gen.grid(5, 5, rng=3)
        forest = _direct_forest(g, 1, seed=4)
        _assert_dp_parity(forest, np.ones(g.n), 1)

    def test_non_power_of_two_ensemble(self):
        g = gen.cycle(30, wmin=1, wmax=3, rng=5)
        forest = _direct_forest(g, 7, seed=6)
        _assert_dp_parity(forest, np.ones(g.n), 3)

    def test_ragged_depths_weighted_and_disallowed(self):
        g, forest = _ragged_forest()
        rng = np.random.default_rng(7)
        w = rng.uniform(0.0, 2.0, g.n)
        w[rng.choice(g.n, 10, replace=False)] = 0.0  # zero-weight clients
        allowed = np.zeros(g.n, dtype=bool)
        allowed[rng.choice(g.n, 7, replace=False)] = True
        for k in (1, 3, 9):  # 9 > |allowed| exercises the capacity cap
            _assert_dp_parity(forest, w, k, allowed=allowed)

    def test_all_disallowed_but_one(self):
        g, forest = _ragged_forest(seed=103)
        allowed = np.zeros(g.n, dtype=bool)
        allowed[11] = True
        costs, facs = _assert_dp_parity(forest, np.ones(g.n), 3, allowed=allowed)
        for s in range(forest.size):
            assert np.array_equal(facs[s], [11])

    def test_k_covers_all_clients(self):
        g = gen.random_graph(20, 50, rng=8)
        forest = _direct_forest(g, 4, seed=9)
        costs, facs = _assert_dp_parity(forest, np.ones(g.n), g.n)
        assert np.all(costs == 0.0)

    def test_single_vertex_graph(self):
        _, forest = _single_vertex_forest()
        costs, facs = _assert_dp_parity(forest, np.array([2.5]), 1)
        assert np.all(costs == 0.0)
        for f in facs:
            assert np.array_equal(f, [0])

    def test_validation(self):
        g = gen.cycle(10, rng=10)
        forest = _direct_forest(g, 2, seed=11)
        w = np.ones(g.n)
        with pytest.raises(ValueError):
            hst_kmedian_dp_forest(forest, w[:4], 1)
        with pytest.raises(ValueError):
            hst_kmedian_dp_forest(forest, -w, 1)
        with pytest.raises(ValueError):
            hst_kmedian_dp_forest(forest, w, 0)
        with pytest.raises(ValueError):
            hst_kmedian_dp_forest(forest, w, 1, allowed=np.zeros(g.n, dtype=bool))
        with pytest.raises(ValueError):
            hst_kmedian_dp_forest(forest, w, 1, allowed=np.ones(4, dtype=bool))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        """Regression: one NaN leaf weight returned costs [nan, nan] and
        empty facility sets."""
        g = gen.cycle(10, rng=10)
        forest = _direct_forest(g, 2, seed=11)
        w = np.ones(g.n)
        w[3] = bad
        with pytest.raises(ValueError, match="finite, non-negative"):
            hst_kmedian_dp_forest(forest, w, 2)


def _random_demands(n, count, rng):
    g = as_rng(rng)
    out = []
    while len(out) < count:
        s, t = g.integers(0, n, size=2)
        if s != t:
            out.append(Demand(int(s), int(t), float(g.integers(1, 20))))
    return out


def _sample_flows(forest, flows, s):
    lo, hi = forest.node_offsets[s], forest.node_offsets[s + 1]
    local = flows[lo:hi]
    return {int(i): float(local[i]) for i in np.flatnonzero(local > 0)}


class TestForestRoutingParity:
    def test_flows_bit_identical(self):
        g = gen.random_graph(48, 130, rng=20)
        forest = _direct_forest(g, 5, seed=21)
        demands = _random_demands(g.n, 20, 22)
        flows = route_demands_on_forest(forest, demands)
        assert flows.shape == (forest.total_nodes,)
        for s in range(forest.size):
            want = route_demands_on_tree(forest.tree(s), demands)
            assert _sample_flows(forest, flows, s) == want  # exact floats

    def test_ragged_depths(self):
        g, forest = _ragged_forest(seed=104)
        demands = _random_demands(g.n, 12, 23)
        flows = route_demands_on_forest(forest, demands)
        for s in range(forest.size):
            want = route_demands_on_tree(forest.tree(s), demands)
            assert _sample_flows(forest, flows, s) == want

    def test_repeated_demands_aggregate(self):
        g = gen.star(8, rng=24)
        forest = _direct_forest(g, 3, seed=25)
        demands = [Demand(1, 2, 1.0), Demand(1, 2, 2.0)]
        flows = route_demands_on_forest(forest, demands)
        for s in range(forest.size):
            got = _sample_flows(forest, flows, s)
            assert got and max(got.values()) == 3.0

    def test_validation(self):
        g = gen.cycle(8, rng=26)
        forest = _direct_forest(g, 2, seed=27)
        with pytest.raises(ValueError):
            route_demands_on_forest(forest, [])
        with pytest.raises(ValueError):
            route_demands_on_forest(forest, [Demand(0, 99, 1.0)])


class TestForestTreeCosts:
    def test_matches_serial_edge_sum(self):
        g = gen.random_graph(40, 100, rng=30)
        forest = _direct_forest(g, 4, seed=31)
        demands = _random_demands(g.n, 15, 32)
        flows = route_demands_on_forest(forest, demands)
        costs = forest_tree_costs(forest, flows, CABLES)
        for s in range(forest.size):
            tree = forest.tree(s)
            want = _tree_cost(tree, route_demands_on_tree(tree, demands))
            assert costs[s] == pytest.approx(want, rel=1e-12)

    def test_cable_costs_array_matches_scalar(self):
        flows = np.array([0.0, 0.5, 1.0, 9.9, 10.0, 10.5, 99.0, 250.0, -1.0])
        got = cable_costs_array(flows, CABLES)
        want = [cable_cost(float(f), CABLES) for f in flows]
        assert np.array_equal(got, want)

    def test_validation(self):
        g = gen.cycle(6, rng=33)
        forest = _direct_forest(g, 2, seed=34)
        with pytest.raises(ValueError):
            cable_costs_array(np.ones(3), [])
        with pytest.raises(ValueError):
            forest_tree_costs(forest, np.zeros(3), CABLES)


class TestBatchIndependence:
    """Each kernel on ``forest.tree(s)`` (a ``k = 1`` forest) returns
    sample ``s``'s answer of the ``k``-forest run, bit for bit: the batch
    never leaks into a sample's result."""

    @staticmethod
    def _assert_dp(forest, weights, k, allowed=None):
        costs, facs = hst_kmedian_dp_forest(forest, weights, k, allowed=allowed)
        for s in range(forest.size):
            one_cost, one_fac = hst_kmedian_dp_forest(
                forest.tree(s), weights, k, allowed=allowed
            )
            assert one_cost.shape == (1,) and len(one_fac) == 1
            assert one_cost[0] == costs[s]
            assert one_fac[0].dtype == facs[s].dtype
            assert np.array_equal(one_fac[0], facs[s])

    @staticmethod
    def _assert_routing(forest, demands):
        flows = route_demands_on_forest(forest, demands)
        costs = forest_tree_costs(forest, flows, CABLES)
        for s in range(forest.size):
            tree = forest.tree(s)
            one = route_demands_on_forest(tree, demands)
            lo, hi = forest.node_offsets[s], forest.node_offsets[s + 1]
            assert one.dtype == flows.dtype
            assert np.array_equal(one, flows[lo:hi])
            one_cost = forest_tree_costs(tree, one, CABLES)
            assert one_cost.shape == (1,) and one_cost[0] == costs[s]

    def test_ragged_depths(self):
        g, forest = _ragged_forest(seed=105)
        rng = np.random.default_rng(8)
        w = rng.uniform(0.0, 2.0, g.n)
        allowed = rng.random(g.n) < 0.5
        for k in (1, 2, 4):
            self._assert_dp(forest, w, k)
            self._assert_dp(forest, w, k, allowed=allowed)
        self._assert_routing(forest, _random_demands(g.n, 25, 9))

    def test_direct_and_oracle_ensembles(self):
        g = gen.random_graph(36, 90, rng=10)
        oracle = Pipeline(g, PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4)), rng=11)
        for forest in (_direct_forest(g, 5, seed=12), oracle.sample_ensemble(3, seed=13).forest):
            self._assert_dp(forest, np.ones(g.n), 3)
            self._assert_routing(forest, _random_demands(g.n, 10, 14))

    def test_single_vertex_graph(self):
        # No demand can join two distinct vertices here, so routing is
        # checked through the cost of an all-zero flow vector.
        _, forest = _single_vertex_forest()
        self._assert_dp(forest, np.array([2.5]), 1)
        zeros = np.zeros(forest.total_nodes)
        costs = forest_tree_costs(forest, zeros, CABLES)
        for s in range(forest.size):
            tree = forest.tree(s)
            one = forest_tree_costs(tree, np.zeros(tree.total_nodes), CABLES)
            assert one.shape == (1,) and one[0] == costs[s] == 0.0


class TestBuyAtBulkEnsemble:
    def test_best_tree_selection(self):
        g = gen.random_graph(36, 90, rng=40)
        demands = _random_demands(g.n, 10, 41)
        res = buy_at_bulk(g, demands, CABLES, rng=42, trees=5)
        assert res.meta["trees"] == 5
        assert len(res.meta["tree_costs"]) == 5
        assert res.meta["best_sample"] == int(np.argmin(res.meta["tree_costs"]))
        assert res.tree_cost == min(res.meta["tree_costs"])
        assert res.graph_cost >= res.lower_bound * (1 - 1e-9)

    def test_more_trees_never_worse_surrogate(self):
        # With a shared seed prefix this is not guaranteed sample-for-sample,
        # so compare the best-of distributions loosely over repetitions.
        g = gen.grid(5, 5, rng=43)
        demands = [Demand(v, 0, 1.0) for v in range(1, 25)]
        one = np.mean(
            [buy_at_bulk(g, demands, CABLES, rng=s, trees=1).tree_cost for s in range(4)]
        )
        many = np.mean(
            [buy_at_bulk(g, demands, CABLES, rng=s, trees=6).tree_cost for s in range(4)]
        )
        assert many <= one * (1 + 1e-9)

    def test_pipeline_injection(self):
        g = gen.random_graph(30, 80, rng=44)
        pipe = Pipeline(
            g, PipelineConfig(embedding=EmbeddingConfig(method="direct")), rng=45
        )
        demands = _random_demands(g.n, 8, 46)
        res = buy_at_bulk(g, demands, CABLES, trees=3, pipeline=pipe)
        assert pipe.stats["samples"] == 3
        assert res.meta["trees"] == 3

    def test_pipeline_graph_mismatch_rejected(self):
        g = gen.cycle(10, rng=47)
        other = Pipeline(gen.cycle(12, rng=48))
        with pytest.raises(ValueError):
            buy_at_bulk(g, [Demand(0, 3, 1.0)], CABLES, pipeline=other)

    def test_trees_validation(self):
        g = gen.cycle(6, rng=49)
        with pytest.raises(ValueError):
            buy_at_bulk(g, [Demand(0, 3, 1.0)], CABLES, trees=0)

    def test_embedding_conflicts_rejected(self):
        # embedding fixes the tree; trees > 1 / pipeline would be silently
        # ignored, so the combination must fail loudly.
        g = gen.cycle(10, rng=53)
        pipe = Pipeline(
            g, PipelineConfig(embedding=EmbeddingConfig(method="direct")), rng=54
        )
        emb = pipe.sample()
        with pytest.raises(ValueError, match="supplied embedding"):
            buy_at_bulk(g, [Demand(0, 4, 1.0)], CABLES, embedding=emb, trees=2)
        with pytest.raises(ValueError, match="supplied embedding"):
            buy_at_bulk(g, [Demand(0, 4, 1.0)], CABLES, embedding=emb, pipeline=pipe)

    def test_embedding_path_stays_serial_reference(self):
        # A supplied embedding runs the ensemble code at k = 1: its tree
        # cost and edge flows are the k = 1 forest kernels' bit for bit,
        # and the per-tree reference's (which sums in demand-walk order
        # rather than node order) within float summation order.
        g = gen.grid(4, 4, rng=50)
        pipe = Pipeline(
            g, PipelineConfig(embedding=EmbeddingConfig(method="direct")), rng=51
        )
        emb = pipe.sample()
        # Fractional amounts, so summation order shows in the bits.
        demands = [Demand(d.source, d.target, d.amount / 7.0) for d in _random_demands(g.n, 6, 52)]
        res = buy_at_bulk(g, demands, CABLES, embedding=emb)
        tree = emb.tree
        flows = route_demands_on_forest(tree, demands)
        assert res.tree_cost == forest_tree_costs(tree, flows, CABLES)[0]
        ref_flows = route_demands_on_tree(tree, demands)
        assert res.tree_cost == pytest.approx(_tree_cost(tree, ref_flows), rel=1e-14)
        assert res.meta["tree_edges_used"] == len(ref_flows)
        assert res.meta["beta"] == emb.beta
        assert "trees" not in res.meta and "mode" not in res.meta

        def mapped(order):
            oracle, out = PathOracle(g), {}
            for node in order:
                path = tree_edge_to_graph_path(tree, node, g, oracle)
                for a, b in zip(path[:-1], path[1:]):
                    key = (min(a, b), max(a, b))
                    out[key] = out.get(key, 0.0) + float(flows[node])
            return out

        def graph_cost(edge_flows):
            A = g.adjacency()
            return sum(cable_cost(f, CABLES) * float(A[u, v]) for (u, v), f in edge_flows.items())

        # Bit for bit: the used tree edges mapped back in node order.
        got = mapped(np.flatnonzero(flows > 0).tolist())
        assert list(res.edge_flows.items()) == list(got.items())
        assert res.graph_cost == graph_cost(got)
        # The reference maps them back in demand-walk order.
        ref = mapped(list(ref_flows))
        assert res.edge_flows.keys() == ref.keys()
        for key, f in ref.items():
            assert res.edge_flows[key] == pytest.approx(f, rel=1e-14)
        assert res.graph_cost == pytest.approx(graph_cost(ref), rel=1e-14)


class TestKMedianBatchedPath:
    def test_meta_and_quality(self):
        g = gen.random_graph(40, 100, rng=60)
        res = kmedian(g, 4, trees=5, rng=61)
        assert isinstance(res, KMedianResult)
        assert res.meta["trees"] == 5
        assert res.facilities.size <= 4

    def test_matches_per_tree_dp_on_shared_forest(self):
        # The pipeline's forest DP must equal running the per-tree DP on
        # each tree of the same ensemble — this is the end-to-end guarantee
        # the per-function parity tests compose into.
        g = gen.random_graph(30, 80, rng=62)
        forest = _direct_forest(g, 5, seed=63)
        w = np.random.default_rng(64).uniform(0.0, 2.0, g.n)
        costs, facs = hst_kmedian_dp_forest(forest, w, 3)
        for s in range(forest.size):
            want_cost, want_fac = hst_kmedian_dp(forest.tree(s), w, 3)
            assert costs[s] == want_cost
            assert np.array_equal(facs[s], want_fac)
