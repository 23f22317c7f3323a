"""E5 — Theorem 5.2: the oracle answers MBF-like queries on ``H`` exactly,
with polylog overhead over ``G'``-iterations.

Paper claim: one ``A_H``-iteration is simulated by ``(Λ+1)·d`` filtered
``G'``-iterations; results agree with running on the materialized ``H``.

Measured: exact agreement of APSP/LE answers with the materialized ``H``
(verification-scale), the measured inner-iteration count per H-iteration,
and the wall-clock of oracle vs materialize-then-iterate.  Expected shape:
oracle inner iterations per H-iteration ≤ (Λ+1)·d (much less with early
exit); materialization cost explodes with n while the oracle's stays tame.
"""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.core import Graph
from repro.hopsets import hub_hopset, rounded_hopset
from repro.mbf.dense import BatchedLEFilter, MinFilter, run_dense_batched
from repro.oracle import HOracle
from repro.simulated import SimulatedGraph
from repro.simulated.levels import sample_levels
from repro.util.rng import as_rng


def _instance(n, seed):
    g = gen.cycle(n, rng=seed)
    w = as_rng(seed).integers(1, 5, g.m).astype(np.float64)
    g = Graph(g.n, g.edges, w, validate=False)
    hop = rounded_hopset(hub_hopset(g, d0=4, rng=seed + 1), g, 0.5)
    levels, _ = sample_levels(n, seed + 2)
    return g, hop, levels


@pytest.mark.parametrize("n", [24, 48])
def test_e5_oracle_equals_materialized(benchmark, n):
    g, hop, levels = _instance(n, 50)
    oracle = HOracle(hop, levels=levels)
    spec = BatchedLEFilter(as_rng(51).permutation(n)[None, :])

    def run_oracle():
        return oracle.run_batch(spec, 1)

    got, iters = benchmark.pedantic(run_oracle, rounds=1, iterations=1)
    H = SimulatedGraph.build(hop, levels=levels)
    want, _ = run_dense_batched(H.to_graph(), spec, 1)
    assert got.to_dicts() == want.to_dicts()
    benchmark.extra_info.update(
        n=n, iterations=int(iters[0]),
        inner_per_outer=float(np.mean(oracle.inner_iterations_used)),
        inner_bound=(oracle.Lambda + 1) * oracle.d,
    )
    assert np.mean(oracle.inner_iterations_used) <= (oracle.Lambda + 1) * oracle.d


@pytest.mark.parametrize("n", [24, 48])
def test_e5_materialization_baseline(benchmark, n):
    """Cost of the avoided alternative: materialize H, then iterate."""
    g, hop, levels = _instance(n, 50)

    def run_materialized():
        H = SimulatedGraph.build(hop, levels=levels)
        return run_dense_batched(H.to_graph(), MinFilter(), 1)

    states, iters = benchmark.pedantic(run_materialized, rounds=1, iterations=1)
    iters = int(iters[0])
    benchmark.extra_info.update(n=n, iterations=iters, h_edges=n * (n - 1) // 2)
    assert iters >= 1


def test_e5_early_exit_saves_inner_iterations(benchmark):
    g, hop, levels = _instance(48, 52)
    spec = BatchedLEFilter(as_rng(53).permutation(48)[None, :])

    def run_both():
        fast = HOracle(hop, levels=levels, inner_early_exit=True)
        slow = HOracle(hop, levels=levels, inner_early_exit=False)
        a, _ = fast.run_batch(spec, 1)
        b, _ = slow.run_batch(spec, 1)
        return fast, slow, a, b

    fast, slow, a, b = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert a.to_dicts() == b.to_dicts()  # lossless
    saved = 1 - sum(fast.inner_iterations_used) / sum(slow.inner_iterations_used)
    benchmark.extra_info.update(inner_saved_fraction=float(saved))
    assert saved > 0
