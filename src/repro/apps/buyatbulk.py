"""Buy-at-bulk network design via FRT embeddings (Section 10, Theorem 10.2).

Given demands ``(s_i, t_i, d_i)`` and cable types ``(u_i, c_i)`` (capacity,
per-weight cost), find cable multiplicities per edge supporting a
simultaneous routing of all demands at minimum total cost.  The
Awerbuch–Azar/Blelloch-et-al. scheme:

1. embed ``G`` into a sampled FRT tree ``T`` (expected ``O(log n)``
   distortion, linear objective ⇒ expected ``O(log n)``-approximate
   reduction);
2. route every demand along its unique tree path and buy, per tree edge
   with aggregate flow ``f``, the cheapest cable multiset — a single type
   suffices: ``min_i c_i·ceil(f/u_i)`` (an ``O(1)``-approximation per edge);
3. map each used tree edge back to a ``G``-path (Section 7.5) and re-buy
   cables for the accumulated ``G``-edge flows.

With ``trees > 1`` the reduction step samples a whole batched ensemble and
scores every tree's routing cost in one vectorized pass
(:func:`~repro.apps.batched.route_demands_on_forest` +
:func:`~repro.apps.batched.forest_tree_costs`), keeping the best tree —
the repetition trick without a per-tree Python loop.  One tree, sampled
here or supplied as an embedding, is the same code at ``k = 1``.

Reported alongside: a *shortest-path routing* baseline (each demand routed
independently in ``G``) and the fractional lower bound
``LB = min_i(c_i/u_i) · Σ_j d_j · dist(s_j, t_j, G)`` (any feasible
solution pays at least ``min(c/u)`` per unit of flow per unit of length,
and total flow-length is at least the sum of shortest-path routings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.api.configs import EmbeddingConfig, PipelineConfig
from repro.api.pipeline import Pipeline
from repro.apps.batched import forest_tree_costs, route_demands_on_forest
from repro.frt.embedding import EmbeddingResult
from repro.frt.paths import PathOracle, tree_edge_to_graph_path
from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_distances
from repro.util.rng import as_rng

__all__ = [
    "CableType",
    "Demand",
    "BuyAtBulkResult",
    "cable_cost",
    "buy_at_bulk",
]


@dataclass(frozen=True)
class CableType:
    """A cable with ``capacity`` units of bandwidth at ``cost`` per weight."""

    capacity: float
    cost: float

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.capacity, self.cost)):
            raise ValueError("cable capacity and cost must be finite and positive")


@dataclass(frozen=True)
class Demand:
    """``amount`` units of flow between ``source`` and ``target``."""

    source: int
    target: int
    amount: float

    def __post_init__(self):
        if not (math.isfinite(self.amount) and self.amount > 0):
            raise ValueError("demand amount must be finite and positive")
        if self.source == self.target:
            raise ValueError("demand endpoints must differ")


@dataclass
class BuyAtBulkResult:
    """Costs of the FRT solution, the baseline, and the lower bound.

    - ``tree_cost``: optimal-per-edge cable cost of the tree routing,
      measured in the *tree* metric (the surrogate objective);
    - ``graph_cost``: cost of the mapped-back solution on ``G`` — the
      deliverable;
    - ``baseline_cost``: independent shortest-path routing on ``G``;
    - ``lower_bound``: fractional LB (see module docstring);
    - ``edge_flows``: ``G``-edge flows of the mapped solution.
    """

    tree_cost: float
    graph_cost: float
    baseline_cost: float
    lower_bound: float
    edge_flows: dict[tuple[int, int], float]
    meta: dict = field(default_factory=dict)

    @property
    def ratio_vs_lower_bound(self) -> float:
        return self.graph_cost / self.lower_bound

    @property
    def ratio_vs_baseline(self) -> float:
        return self.graph_cost / self.baseline_cost


def cable_cost(flow: float, cables: list[CableType]) -> float:
    """Cheapest single-type cable multiset carrying ``flow`` (per weight).

    ``min_i c_i · ceil(flow / u_i)`` — within a factor 2 of the optimal
    mixed multiset, which is all the tree rounding needs [10].
    """
    if flow <= 0:
        return 0.0
    if not cables:
        raise ValueError("need at least one cable type")
    return min(c.cost * math.ceil(flow / c.capacity - 1e-12) for c in cables)


def _accumulate_graph_flow(
    edge_flows: dict[tuple[int, int], float], path: list[int], amount: float
) -> None:
    for a, b in zip(path[:-1], path[1:]):
        key = (a, b) if a < b else (b, a)
        edge_flows[key] = edge_flows.get(key, 0.0) + amount


def buy_at_bulk(
    G: Graph,
    demands: list[Demand],
    cables: list[CableType],
    *,
    rng=None,
    embedding: EmbeddingResult | None = None,
    trees: int = 1,
    pipeline: Pipeline | None = None,
) -> BuyAtBulkResult:
    """Theorem 10.2 pipeline: expected ``O(log n)``-approximation.

    ``trees`` FRT trees are sampled as one batched ensemble
    (``Pipeline.sample_ensemble``), every sample's routing cost is scored
    in one vectorized
    :func:`~repro.apps.batched.route_demands_on_forest` pass, and the best
    tree (minimum surrogate cost — the paper's repetition trick) is mapped
    back to ``G``.  ``pipeline`` injects a pre-configured
    :class:`~repro.api.pipeline.Pipeline` on ``G`` (e.g. the oracle
    method); it must embed the same graph, and its own generator drives
    the sampling (``rng`` applies only when neither ``embedding`` nor
    ``pipeline`` is given).  A pre-sampled ``embedding`` (e.g. from the
    oracle pipeline) is routed instead, through the same code at
    ``k = 1``; ``trees``/``pipeline`` must then be left at their defaults
    — the combination is rejected rather than silently ignored.
    """
    if not demands:
        raise ValueError("need at least one demand")
    if not cables:
        raise ValueError("need at least one cable type")
    if trees < 1:
        raise ValueError("trees must be >= 1")
    if embedding is not None and (trees != 1 or pipeline is not None):
        raise ValueError(
            "a supplied embedding fixes the single tree to route on; "
            "combining it with trees > 1 or a pipeline would be silently "
            "ignored — drop the embedding to use the batched ensemble path"
        )
    for dm in demands:
        if not (0 <= dm.source < G.n and 0 <= dm.target < G.n):
            raise ValueError("demand endpoint out of range")
    if embedding is not None:
        forest = embedding.tree
    else:
        if pipeline is None:
            pipeline = Pipeline(
                G,
                PipelineConfig(embedding=EmbeddingConfig(method="direct")),
                rng=as_rng(rng),
            )
        elif pipeline.G is not G:
            raise ValueError("pipeline must embed the same graph as the demands")
        forest = pipeline.sample_ensemble(trees).forest
    flows = route_demands_on_forest(forest, demands)
    tree_costs = forest_tree_costs(forest, flows, cables)
    best = int(np.argmin(tree_costs))
    meta_extra: dict = {}
    if embedding is None:
        meta_extra = {
            "trees": trees,
            "best_sample": best,
            "tree_costs": [float(c) for c in tree_costs],
        }
    tree = forest.tree(best)
    local = flows[forest.node_offsets[best] : forest.node_offsets[best + 1]]
    used = np.flatnonzero(local > 0)
    tree_flows = {int(node): float(local[node]) for node in used}
    tree_cost = float(tree_costs[best])

    # -- map back to G -------------------------------------------------------
    oracle = PathOracle(G)
    edge_flows: dict[tuple[int, int], float] = {}
    # Each demand's G-route is the concatenation of the per-tree-edge paths
    # along its tree path; accumulating per tree edge (flow f over the
    # mapped path) is equivalent and touches every used tree edge once.
    for node, f in tree_flows.items():
        path = tree_edge_to_graph_path(tree, node, G, oracle)
        _accumulate_graph_flow(edge_flows, path, f)
    A = G.adjacency()
    graph_cost = sum(
        cable_cost(f, cables) * float(A[u, v]) for (u, v), f in edge_flows.items()
    )

    # -- baseline: independent shortest-path routing -------------------------
    base_flows: dict[tuple[int, int], float] = {}
    for dm in demands:
        path = oracle.path(dm.source, dm.target)
        _accumulate_graph_flow(base_flows, path, dm.amount)
    baseline_cost = sum(
        cable_cost(f, cables) * float(A[u, v]) for (u, v), f in base_flows.items()
    )

    # -- fractional lower bound ----------------------------------------------
    sources = np.array(sorted({dm.source for dm in demands}), dtype=np.int64)
    D = dijkstra_distances(G, sources)
    row = {int(s): i for i, s in enumerate(sources)}
    min_rate = min(c.cost / c.capacity for c in cables)
    lower_bound = min_rate * sum(
        dm.amount * float(D[row[dm.source], dm.target]) for dm in demands
    )

    return BuyAtBulkResult(
        tree_cost=tree_cost,
        graph_cost=graph_cost,
        baseline_cost=baseline_cost,
        lower_bound=lower_bound,
        edge_flows=edge_flows,
        meta={
            "demands": len(demands),
            "cables": len(cables),
            "tree_edges_used": len(tree_flows),
            "beta": float(forest.betas[best]),
            **meta_extra,
        },
    )
