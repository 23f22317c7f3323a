#!/usr/bin/env python
"""Buy-at-bulk network design (Section 10): provisioning a backbone.

An ISP must buy cables (three types with economies of scale) on a random
sparse topology to route traffic demands between city pairs.  We solve it
with the Theorem 10.2 pipeline: embed into an FRT tree, aggregate demands
along tree paths, buy optimal cables per edge, map back to graph paths —
and compare with independent shortest-path routing and the fractional
lower bound.

Run:  python examples/network_design.py
"""

from repro.api import (
    as_rng,
    buy_at_bulk,
    CableType,
    Demand,
    EmbeddingConfig,
    generators,
    Pipeline,
    PipelineConfig,
    sample_distinct,
)

CATALOG = [
    CableType(capacity=1.0, cost=1.0),    # copper
    CableType(capacity=24.0, cost=6.0),   # fiber bundle
    CableType(capacity=480.0, cost=40.0), # backbone trunk
]


def main() -> None:
    n = 60
    g = generators.random_graph(n, 150, wmin=1.0, wmax=5.0, rng=11)
    rng = as_rng(12)
    demands = []
    for _ in range(25):
        s, t = sample_distinct(n, 2, rng)
        demands.append(Demand(int(s), int(t), float(rng.integers(1, 40))))
    total = sum(d.amount for d in demands)
    print(f"topology: n={n} m={g.m};  {len(demands)} demands, {total:.0f} units total")
    print(f"cable catalog: {[(c.capacity, c.cost) for c in CATALOG]}")

    # Sample 5 independent FRT embeddings through the pipeline facade (the
    # intro's repeat-and-take-best pattern, batched in one call), then price
    # each one.
    pipe = Pipeline(g, PipelineConfig(embedding=EmbeddingConfig(method="direct")))
    batch = pipe.sample_ensemble(k=5, seed=13)
    best = None
    print(f"\n{'sample':>7} {'tree cost':>10} {'graph cost':>11} {'baseline':>9} {'LB':>8}")
    for i, emb in enumerate(batch):
        res = buy_at_bulk(g, demands, CATALOG, embedding=emb)
        print(
            f"{i:>7} {res.tree_cost:>10.1f} {res.graph_cost:>11.1f} "
            f"{res.baseline_cost:>9.1f} {res.lower_bound:>8.1f}"
        )
        if best is None or res.graph_cost < best.graph_cost:
            best = res
    assert best is not None
    print(
        f"\nbest of {batch.size} embeddings: cost {best.graph_cost:.1f}  "
        f"({best.ratio_vs_lower_bound:.2f}x the fractional lower bound, "
        f"{best.ratio_vs_baseline:.2f}x shortest-path routing)"
    )
    used = sum(1 for f in best.edge_flows.values() if f > 0)
    print(f"solution uses {used} graph edges; heaviest flow "
          f"{max(best.edge_flows.values()):.0f} units")


if __name__ == "__main__":
    main()
