"""E4b — Theorem 7.9: near-linear work, polylog-depth-style scaling.

Paper claim: sampling the embedding costs ``O~(m^{1+eps})`` work at
``polylog n`` depth, vs ``Ω(n²)`` for metric-input algorithms (Blelloch et
al. must read an n-point metric) and ``Θ(SPD·m)``-work/``Θ(SPD)``-depth
for the naive direct iteration.

Measured (cost-ledger units, see repro.pram):

- LE-list work vs ``m`` at fixed n — expected near-linear slope in log-log;
- direct-pipeline depth on cycles grows ~linearly with n (SPD) while the
  oracle-pipeline depth stays polylog-ish — their ratio must widen;
- oracle work stays well below the ``n²`` metric-input floor on sparse
  graphs.
"""

import numpy as np
import pytest

from repro.api import EmbeddingConfig, HopsetConfig, Pipeline, PipelineConfig
from repro.graph import generators as gen
from repro.pram import CostLedger

DIRECT = PipelineConfig(embedding=EmbeddingConfig(method="direct"))


@pytest.mark.parametrize("mult", [2, 4, 8])
def test_e4_work_scales_with_m(benchmark, mult):
    n = 512
    g = gen.random_graph(n, mult * n, rng=40)

    def run():
        ledger = CostLedger()
        Pipeline(g, DIRECT, rng=41).sample(ledger=ledger)
        return ledger

    ledger = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        n=n, m=g.m, work=ledger.work, depth=ledger.depth,
        work_per_edge=ledger.work / g.m,
    )
    # Near-linear in m: work per edge stays within a polylog envelope.
    assert ledger.work / g.m <= 200 * np.log2(n) ** 2


def test_e4_work_slope_near_linear(benchmark):
    n = 512

    def run():
        works, ms = [], []
        for mult in (2, 8):
            g = gen.random_graph(n, mult * n, rng=42)
            ledger = CostLedger()
            Pipeline(g, DIRECT, rng=43).sample(ledger=ledger)
            works.append(ledger.work)
            ms.append(g.m)
        return np.log(works[1] / works[0]) / np.log(ms[1] / ms[0])

    slope = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(loglog_slope=float(slope))
    assert slope <= 1.4  # m^{1+eps}, not m² — near-linear


@pytest.mark.parametrize("n", [32, 64, 128])
def test_e4_depth_direct_vs_oracle(benchmark, n):
    """On cycles, direct depth grows with SPD; oracle depth must not."""
    g = gen.cycle(n, rng=44)
    eps = 1.0 / np.log2(n)

    def run():
        ld, lo = CostLedger(), CostLedger()
        direct = Pipeline(g, DIRECT, rng=45).sample(ledger=ld)
        orc = Pipeline(g, PipelineConfig(hopset=HopsetConfig(eps=eps)), rng=46).sample(
            ledger=lo
        )
        return ld, lo, direct.iterations, orc.iterations

    ld, lo, it_d, it_o = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        n=n,
        direct_iterations=it_d,
        oracle_iterations=it_o,
        direct_depth=ld.depth,
        oracle_depth=lo.depth,
    )
    # Outer iteration counts: Θ(SPD) vs O(log² n).
    assert it_d >= n // 2 - 2
    assert it_o <= 2 * np.log2(n) ** 2


def test_e4_work_vs_matrix_squaring(benchmark):
    """Section 1.1's other baseline: APSP by min-plus squaring has polylog
    depth but Ω(n³) work even on sparse graphs — the LE pipeline undercuts
    it by orders of magnitude at modest n."""
    from repro.mbf.matrix import distance_matrix_by_squaring

    n = 256
    g = gen.random_graph(n, 3 * n, rng=49)

    def run():
        l_sq, l_le = CostLedger(), CostLedger()
        _, squarings = distance_matrix_by_squaring(g, ledger=l_sq)
        Pipeline(g, DIRECT, rng=50).sample(ledger=l_le)
        return l_sq, l_le, squarings

    l_sq, l_le, squarings = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        n=n,
        squaring_work=l_sq.work,
        le_work=l_le.work,
        work_ratio=l_sq.work / l_le.work,
        squarings=squarings,
        squaring_depth=l_sq.depth,
        le_depth=l_le.depth,
    )
    assert l_le.work * 10 < l_sq.work  # the work separation


def test_e4_oracle_work_below_metric_baseline(benchmark):
    """Blelloch et al. (metric input) spend O(n² log n) work just on their
    n-point metric; the LE-list pipeline on a sparse graph must undercut
    that, and its margin must widen with n (work is O~(m) ≈ O~(n) here
    vs Θ(n² log n))."""
    n = 8192
    g = gen.random_graph(n, 3 * n, rng=47)

    def run():
        ledger = CostLedger()
        res = Pipeline(g, DIRECT, rng=48).sample(ledger=ledger)
        return ledger, res

    ledger, res = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = n * n * np.log2(n)
    benchmark.extra_info.update(
        n=n, m=g.m, work=ledger.work,
        metric_read_floor=n * n,
        blelloch_baseline=float(baseline),
        work_over_baseline=float(ledger.work / baseline),
        work_over_floor=float(ledger.work / (n * n)),
    )
    assert ledger.work < baseline / 4  # clear win vs the metric algorithm
