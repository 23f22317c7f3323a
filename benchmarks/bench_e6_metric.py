"""E6 — Theorems 6.1/6.2: approximate metrics and the spanner trade-off.

Paper claims: (1) a ``(1+o(1))``-approximate *metric* (not just distances)
is computable via the oracle; (2) precomposing a Baswana–Sen
``(2k-1)``-spanner trades approximation for work on dense inputs.

Measured: achieved max stretch vs the a-priori bound; triangle-violation
count (must be 0 — that's what separates this from raw hop-set output);
spanner size/stretch across k.  Expected shape: measured stretch well
inside the bound; spanner size drops ~``n^{1/k}``-style with k while the
measured metric stretch grows at most linearly in ``2k-1``.
"""

import numpy as np
import pytest

from repro.api import HopsetConfig, Pipeline, PipelineConfig
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances
from repro.hopsets.verify import count_triangle_violations
from repro.metric import (
    approximate_metric_spanner,
    baswana_sen_spanner,
)


@pytest.mark.parametrize("n", [48, 96])
def test_e6_metric_quality(benchmark, n):
    g = gen.random_graph(n, 3 * n, rng=60)
    eps = 1.0 / np.log2(n)
    pipe = Pipeline(g, PipelineConfig(hopset=HopsetConfig(eps=eps)), rng=61)

    def run():
        return pipe.embed_metric()

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    D = dijkstra_distances(g)
    off = ~np.eye(n, dtype=bool)
    achieved = float((res.matrix[off] / D[off]).max())
    violations = count_triangle_violations(res.matrix)
    benchmark.extra_info.update(
        n=n, achieved_stretch=achieved, bound=res.stretch_bound,
        iterations=res.iterations, triangle_violations=violations,
    )
    assert violations == 0
    assert achieved <= res.stretch_bound + 1e-9
    assert np.all(res.matrix[off] >= D[off] - 1e-9)
    # The metric is the constant-time query object, cached by the facade.
    assert pipe.embed_metric() is res
    assert res.query(0, 1) == res.matrix[0, 1]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_e6_spanner_tradeoff(benchmark, k):
    n = 128
    g = gen.complete_graph(n, rng=62)

    def run():
        return baswana_sen_spanner(g, k, rng=63)

    sp = benchmark.pedantic(run, rounds=1, iterations=1)
    DG = dijkstra_distances(g)
    DS = dijkstra_distances(sp)
    off = ~np.eye(n, dtype=bool)
    achieved = float((DS[off] / DG[off]).max())
    benchmark.extra_info.update(
        k=k, edges=sp.m, original_edges=g.m,
        compression=g.m / sp.m, achieved_stretch=achieved, bound=2 * k - 1,
    )
    assert achieved <= 2 * k - 1 + 1e-9
    assert sp.m < g.m


def test_e6_spanner_metric_combined(benchmark):
    n = 64
    g = gen.complete_graph(n, rng=64)

    def run():
        return approximate_metric_spanner(g, 2, eps=0.1, rng=65)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    D = dijkstra_distances(g)
    off = ~np.eye(n, dtype=bool)
    achieved = float((res.matrix[off] / D[off]).max())
    benchmark.extra_info.update(
        achieved_stretch=achieved,
        bound=res.stretch_bound,
        spanner_edges=res.meta["spanner_edges"],
        original_edges=res.meta["original_edges"],
    )
    assert achieved <= res.stretch_bound + 1e-9
    assert res.meta["spanner_edges"] < res.meta["original_edges"]
