"""E7 — Section 3: the whole MBF-like zoo, through ``solve``, at dense speed.

Paper claims: the framework subsumes SSSP/APSP/k-SSP/source detection/
widest paths/connectivity/LE lists as instances of one template; fixpoints
arrive within SPD(G) iterations; filtering buys efficiency.

Measured: per-family reference-vs-dense runtime through the uniform
``solve(G, problem, engine=...)`` driver (decoded outputs and iteration
counts asserted identical), the dense speedup on SSSP at n=512 (must be
≥ 5x — the acceptance bar for the problem-centric engine API), and the
filtered (k=4) vs unfiltered (k=n) work ratio in ledger units.
"""

import time

import numpy as np
import pytest

from repro.api import solve
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter
from repro.mbf import zoo
from repro.mbf.dense import BatchedFlatStates, MinFilter, TopKFilter, run_dense_batched
from repro.pram import CostLedger
from repro.util.rng import as_rng

G = gen.random_graph(48, 120, rng=70)
D_TRUTH = dijkstra_distances(G)
SPD = shortest_path_diameter(G)

FAMILY_CASES = [
    "sssp",
    "mssp",
    "apsp",
    "k_ssp",
    "source_detection",
    "forest_fire",
    "sswp",
    "mswp",
    "apwp",
    "connectivity",
    "le_lists",
]


def _make(name: str, n: int):
    if name == "sssp":
        return zoo.sssp(n, 0)
    if name == "mssp":
        return zoo.mssp(n, [0, 5, 9])
    if name == "apsp":
        return zoo.apsp(n)
    if name == "k_ssp":
        return zoo.k_ssp(n, 4)
    if name == "source_detection":
        return zoo.source_detection(n, [0, 5, 9], k=2, dmax=4.0)
    if name == "forest_fire":
        return zoo.forest_fire(n, [0, 7], dmax=3.0)
    if name == "sswp":
        return zoo.sswp(n, 0)
    if name == "mswp":
        return zoo.mswp(n, [0, 5])
    if name == "apwp":
        return zoo.apwp(n)
    if name == "connectivity":
        return zoo.connectivity(n)
    return zoo.le_lists(n, as_rng(73).permutation(n))


def _same(a, b) -> bool:
    if isinstance(a, BatchedFlatStates):
        return a.equals(b)
    return np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("name", FAMILY_CASES)
def test_e7_zoo_dense_vs_reference(benchmark, name):
    """Every family: dense output == reference output, dense wins on time."""
    inst = _make(name, G.n)
    t0 = time.perf_counter()
    ref, it_ref = solve(G, inst, engine="reference")
    t_ref = time.perf_counter() - t0

    def run():
        return solve(G, inst, engine="dense")

    out, iters = benchmark.pedantic(run, rounds=1, iterations=1)
    t_dense = benchmark.stats.stats.mean
    assert _same(out, ref)
    assert iters == it_ref
    if name not in ("sswp", "mswp", "apwp"):
        # Min-plus algorithms fixpoint within SPD(G); widest-path fixpoints
        # are bounded by the max-min analogue of the SPD instead (< n).
        assert iters <= SPD + 1
    assert iters <= G.n
    # Spot-check decoded outputs against independent ground truth.
    if name == "sssp":
        assert np.allclose(out, D_TRUTH[0])
    elif name == "apsp":
        assert np.allclose(out, D_TRUTH)
    elif name == "mssp":
        assert np.allclose(out[:, [0, 5, 9]], D_TRUTH[:, [0, 5, 9]])
    elif name == "forest_fire":
        want = np.minimum(D_TRUTH[0], D_TRUTH[7]) <= 3.0
        assert np.array_equal(out, want)
    elif name == "connectivity":
        assert out.all()
    benchmark.extra_info.update(
        family=inst.family,
        iterations=int(iters),
        spd=SPD,
        reference_seconds=t_ref,
        speedup=t_ref / max(t_dense, 1e-9),
    )


@pytest.mark.parametrize("n", [64, 512])
def test_e7_sssp_dense_speedup(benchmark, n):
    """The acceptance bar: ≥ 5x over the reference engine on SSSP at n=512."""
    g = gen.random_graph(n, 4 * n, rng=72)
    inst = zoo.sssp(n, 0)
    t0 = time.perf_counter()
    ref, it_ref = solve(g, inst, engine="reference")
    t_ref = time.perf_counter() - t0

    def run():
        return solve(g, inst, engine="dense")

    out, iters = benchmark.pedantic(run, rounds=3, iterations=1)
    t_dense = benchmark.stats.stats.mean
    assert np.array_equal(out, ref)
    assert iters == it_ref
    speedup = t_ref / max(t_dense, 1e-9)
    benchmark.extra_info.update(
        n=n, reference_seconds=t_ref, speedup=speedup, iterations=int(iters)
    )
    if n >= 512:
        assert speedup >= 5.0


def test_e7_filtering_cuts_work(benchmark):
    """Top-k filtering vs full APSP, ledger work (the point of Section 2)."""
    n = 256
    g = gen.random_graph(n, 3 * n, rng=71)

    def run():
        la, lb = CostLedger(), CostLedger()
        run_dense_batched(g, MinFilter(), 1, ledgers=[la])
        run_dense_batched(g, TopKFilter(4), 1, ledgers=[lb])
        return la, lb

    la, lb = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        apsp_work=la.work, topk_work=lb.work, work_ratio=la.work / lb.work
    )
    assert lb.work * 4 < la.work  # at least 4x saving at k=4, n=256
