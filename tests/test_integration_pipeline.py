"""End-to-end integration tests across subsystem boundaries.

Each test exercises a full pipeline the way a downstream user would:
generators -> hop sets -> H/oracle -> LE lists -> tree -> application,
asserting the composite guarantees (not just per-module contracts).
"""

import numpy as np
import pytest

from repro.apps.buyatbulk import CableType, Demand, buy_at_bulk
from repro.apps.kmedian import kmedian, kmedian_cost
from repro.congest import skeleton_frt
from repro.api import EmbeddingConfig, HopsetConfig, Pipeline, PipelineConfig
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances
from repro.hopsets import hub_hopset, identity_hopset, rounded_hopset, verify_hopset
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


FAMILIES = {
    "cycle": lambda: gen.cycle(32, wmin=1, wmax=3, rng=1),
    "grid": lambda: gen.grid(6, 6, wmin=1, wmax=2, rng=2),
    "random": lambda: gen.random_graph(36, 90, rng=3),
    "tree": lambda: gen.weighted_tree(30, rng=4),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("pipeline", ["direct", "oracle-exact", "oracle-rounded"])
def test_pipeline_matrix_dominance_and_iterations(family, pipeline):
    """All pipeline × family combinations produce valid dominating trees."""
    g = FAMILIES[family]()
    D = dijkstra_distances(g)
    if pipeline == "direct":
        res = Pipeline(g, DIRECT, rng=10).sample()
    elif pipeline == "oracle-exact":
        res = _via_oracle(g, eps=0.0, d0=4, rng=11).sample()
    else:
        res = _via_oracle(g, eps=0.25, d0=4, rng=12).sample()
    M = distance_matrix(res.tree)
    assert np.all(M >= D - 1e-9)
    assert res.iterations <= g.n
    if pipeline.startswith("oracle"):
        assert res.iterations <= int(np.log2(g.n) ** 2) + 1


def test_hopset_feeds_every_consumer():
    """One hop set result drives the oracle, H, the metric, and the tree."""
    g = gen.cycle(28, wmin=1, wmax=2, rng=20)
    hop = rounded_hopset(hub_hopset(g, d0=4, rng=21), g, 0.2)
    assert verify_hopset(hop, g).ok
    oracle = HOracle(hop, rng=22)
    # metric through the same decomposition machinery
    from repro.mbf.dense import MinFilter

    states, _ = oracle.run_batch(MinFilter(), 1)
    matrix = states.to_matrix()
    D = dijkstra_distances(g)
    off = ~np.eye(g.n, dtype=bool)
    assert np.all(matrix[off] >= D[off] - 1e-9)
    # tree through the same oracle
    res = _via_oracle(g, oracle=oracle, rng=23).sample()
    tree = res.tree
    assert np.all(distance_matrix(tree) >= D - 1e-9)
    # the tree's levels form a laminar decomposition: each level-i cluster
    # lies inside its parent's level-(i+1) cluster
    for i in range(tree.k_max):
        fine, coarse = tree.level_ids[0, :, i], tree.level_ids[0, :, i + 1]
        assert np.array_equal(tree.parent[fine], coarse)


def test_metric_then_kmedian():
    """Theorem 6.2 -> Section 9: k-median on the approximate metric's
    candidate clique matches k-median on the true graph within the
    metric's stretch bound."""
    g = gen.random_graph(26, 60, rng=30)
    metric = _via_oracle(g, eps=0.1, d0=4, rng=31).embed_metric()
    res_true = kmedian(g, 3, trees=3, rng=32)
    # evaluate the chosen facilities under the approximate metric:
    approx_cost = metric.matrix[res_true.facilities].min(axis=0).sum()
    true_cost = res_true.cost
    assert true_cost <= approx_cost + 1e-9  # approx metric dominates
    assert approx_cost <= metric.stretch_bound * true_cost + 1e-9


def test_ensemble_drives_buyatbulk():
    """The intro's repeat-and-take-best pattern through the ensemble API."""
    g = gen.grid(5, 5, rng=40)
    demands = [Demand(0, 24, 7.0), Demand(4, 20, 3.0), Demand(2, 22, 5.0)]
    cables = [CableType(1.0, 1.0), CableType(10.0, 3.0)]
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
    ens = Pipeline(g, cfg).sample_ensemble(4, seed=41)
    results = [buy_at_bulk(g, demands, cables, embedding=emb) for emb in ens]
    best = min(r.graph_cost for r in results)
    worst = max(r.graph_cost for r in results)
    assert best <= worst
    assert all(r.graph_cost >= r.lower_bound * (1 - 1e-9) for r in results)


def test_skeleton_tree_feeds_applications():
    """The Congest-produced tree is a regular k = 1 forest usable downstream."""
    g = gen.cycle_with_hub(64)
    res = skeleton_frt(g, eps=0.0, c=0.7, rng=50)
    demands = [Demand(0, 32, 2.0)]
    out = buy_at_bulk(
        g, demands, [CableType(1.0, 1.0)], rng=51,
        embedding=type("E", (), {"tree": res.tree, "beta": res.beta})(),
    )
    assert out.graph_cost >= out.lower_bound * (1 - 1e-9)


def test_identity_hopset_oracle_degenerates_to_direct():
    """With the identity hop set (d = SPD), the oracle's H is the exact
    metric, so its LE lists equal the direct graph LE lists."""
    g = gen.grid(4, 5, rng=60)
    rank = np.random.default_rng(61).permutation(g.n)
    from repro.frt.lelists import (
        compute_le_lists_batch,
        compute_le_lists_batch_via_oracle,
    )

    hop = identity_hopset(g)
    oracle = HOracle(hop, rng=62)
    direct, _ = compute_le_lists_batch(g, rank[None, :])
    via, iters = compute_le_lists_batch_via_oracle(oracle, rank[None, :])
    assert via.sample_states(0).to_dicts() == pytest.approx(
        direct.sample_states(0).to_dicts()
    )
    assert iters.tolist() == [1]  # H is a metric: single iteration


def test_ledger_composition_across_pipeline():
    """Work/depth accounting composes across hop set use, oracle, tree."""
    g = gen.cycle(24, rng=70)
    lo, ld = CostLedger(), CostLedger()
    _via_oracle(g, eps=0.2, d0=3, rng=71).sample(ledger=lo)
    Pipeline(g, DIRECT, rng=72).sample(ledger=ld)
    assert lo.work > ld.work  # oracle pays (Λ+1)·d overhead per iteration
    assert lo.depth > 0 and ld.depth > 0


def test_kmedian_cost_consistency_with_metric():
    g = gen.barbell(5, bridge_len=6)
    res = kmedian(g, 2, trees=4, rng=80)
    assert res.cost == pytest.approx(kmedian_cost(g, res.facilities))
    one = kmedian(g, 1, trees=4, rng=81)
    assert res.cost <= one.cost  # more facilities never hurt
