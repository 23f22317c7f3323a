"""Tests for buy-at-bulk network design (Section 10)."""

import numpy as np
import pytest

from repro.apps.batched import route_demands_on_forest
from repro.apps.buyatbulk import CableType, Demand, buy_at_bulk, cable_cost
from repro.api import EmbeddingConfig, Pipeline, PipelineConfig
from repro.graph import generators as gen
from repro.util.rng import as_rng

DIRECT = PipelineConfig(embedding=EmbeddingConfig(method="direct"))

CABLES = [CableType(1.0, 1.0), CableType(10.0, 4.0), CableType(100.0, 12.0)]


class TestDataTypes:
    def test_cable_validation(self):
        with pytest.raises(ValueError):
            CableType(0.0, 1.0)
        with pytest.raises(ValueError):
            CableType(1.0, -1.0)

    def test_demand_validation(self):
        with pytest.raises(ValueError):
            Demand(0, 0, 1.0)
        with pytest.raises(ValueError):
            Demand(0, 1, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        """Regression: CableType(capacity=nan) and Demand(amount=nan) were
        accepted."""
        with pytest.raises(ValueError, match="finite and positive"):
            CableType(bad, 1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            CableType(1.0, bad)
        with pytest.raises(ValueError, match="finite and positive"):
            Demand(0, 1, bad)


class TestCableCost:
    def test_zero_flow_free(self):
        assert cable_cost(0.0, CABLES) == 0.0

    def test_picks_cheapest_type(self):
        # flow 10: type2 = 1 cable @4; type1 = 10 cables @10; type3 = 12.
        assert cable_cost(10.0, CABLES) == 4.0

    def test_economies_of_scale(self):
        # flow 100: bulk cable wins (12 < 40 < 100).
        assert cable_cost(100.0, CABLES) == 12.0

    def test_ceiling(self):
        assert cable_cost(10.5, CABLES) == 8.0  # 2 cables of type 2

    def test_no_cables_rejected(self):
        with pytest.raises(ValueError):
            cable_cost(1.0, [])


class TestTreeRouting:
    def test_flow_conservation_on_path(self):
        g = gen.cycle(12, rng=0)
        emb = Pipeline(g, DIRECT, rng=1).sample()
        demands = [Demand(0, 6, 5.0)]
        flows = route_demands_on_forest(emb.tree, demands)
        lvl = int(emb.tree.lca_levels([0], [6])[0, 0])
        # both endpoints climb lvl edges
        assert np.count_nonzero(flows) == 2 * lvl
        assert np.all(flows[flows > 0] == 5.0)

    def test_flows_aggregate(self):
        g = gen.star(8, rng=0)
        emb = Pipeline(g, DIRECT, rng=2).sample()
        demands = [Demand(1, 2, 1.0), Demand(1, 2, 2.0)]
        flows = route_demands_on_forest(emb.tree, demands)
        assert flows.max() == 3.0

    def test_tree_cost_matches_distances(self):
        # With a single linear cable (u=1, c=1), tree cost = Σ d_i · dist_T.
        g = gen.grid(3, 4, rng=3)
        emb = Pipeline(g, DIRECT, rng=4).sample()
        demands = [Demand(0, 11, 1.0), Demand(2, 9, 1.0)]
        res = buy_at_bulk(g, demands, [CableType(1.0, 1.0)], embedding=emb)
        want = emb.tree.distances([d.source for d in demands], [d.target for d in demands]).sum()
        assert res.tree_cost == pytest.approx(want)


class TestBuyAtBulkPipeline:
    def _random_demands(self, n, count, rng):
        g = as_rng(rng)
        out = []
        for _ in range(count):
            s, t = g.choice(n, size=2, replace=False)
            out.append(Demand(int(s), int(t), float(g.integers(1, 20))))
        return out

    def test_cost_ordering_invariants(self):
        g = gen.random_graph(30, 70, rng=5)
        demands = self._random_demands(30, 10, 6)
        res = buy_at_bulk(g, demands, CABLES, rng=7)
        assert res.lower_bound > 0
        # any feasible integral solution is at least the fractional LB
        assert res.graph_cost >= res.lower_bound * (1 - 1e-9)
        assert res.baseline_cost >= res.lower_bound * (1 - 1e-9)

    def test_approximation_ratio_sane(self):
        g = gen.random_graph(40, 100, rng=8)
        demands = self._random_demands(40, 15, 9)
        ratios = []
        for seed in range(5):
            res = buy_at_bulk(g, demands, CABLES, rng=seed)
            ratios.append(res.ratio_vs_baseline)
        # Expected O(log n) vs the baseline; in practice a small constant.
        assert np.mean(ratios) <= np.log2(g.n) * 3

    def test_aggregation_beats_baseline_with_bulk_discounts(self):
        # Many unit demands into one sink: the tree shares upstream edges,
        # the baseline also shares shortest paths; with steep economies of
        # scale both aggregate, and the tree solution must stay comparable.
        g = gen.grid(5, 5, rng=10)
        demands = [Demand(v, 0, 1.0) for v in range(1, 25)]
        cables = [CableType(1.0, 1.0), CableType(100.0, 2.0)]
        res = buy_at_bulk(g, demands, cables, rng=11)
        assert res.graph_cost <= 6 * res.baseline_cost

    def test_edge_flows_support_feasible_routing(self):
        # Total flow crossing any graph cut must carry the demand across it;
        # sanity-check a specific cut on a path graph.
        g = gen.path_graph(8)
        demands = [Demand(0, 7, 3.0), Demand(1, 5, 2.0)]
        res = buy_at_bulk(g, demands, CABLES, rng=12)
        # cut between vertices 3 and 4 separates 0,1 from 5,7:
        crossing = sum(
            f for (u, v), f in res.edge_flows.items() if u <= 3 < v or v <= 3 < u
        )
        assert crossing >= 5.0 - 1e-9  # both demands cross

    def test_single_demand_tree_cost_at_least_graph_distance(self):
        g = gen.cycle(16, rng=13)
        res = buy_at_bulk(g, [Demand(0, 8, 1.0)], [CableType(1.0, 1.0)], rng=14)
        from repro.graph.shortest_paths import dijkstra_distances

        d = dijkstra_distances(g, [0])[0][8]
        assert res.tree_cost >= d - 1e-9  # dominance
        assert res.baseline_cost == pytest.approx(d)

    def test_validation(self):
        g = gen.cycle(6, rng=0)
        with pytest.raises(ValueError):
            buy_at_bulk(g, [], CABLES)
        with pytest.raises(ValueError):
            buy_at_bulk(g, [Demand(0, 1, 1.0)], [])
        with pytest.raises(ValueError):
            buy_at_bulk(g, [Demand(0, 99, 1.0)], CABLES)

    def test_embedding_reuse(self):
        g = gen.grid(4, 4, rng=15)
        emb = Pipeline(g, DIRECT, rng=16).sample()
        demands = self._random_demands(16, 5, 17)
        a = buy_at_bulk(g, demands, CABLES, embedding=emb)
        b = buy_at_bulk(g, demands, CABLES, embedding=emb)
        assert a.graph_cost == b.graph_cost  # deterministic given the tree

    def test_meta(self):
        g = gen.cycle(10, rng=18)
        res = buy_at_bulk(g, [Demand(0, 5, 1.0)], CABLES, rng=19)
        assert res.meta["demands"] == 1
        assert res.meta["tree_edges_used"] >= 1
