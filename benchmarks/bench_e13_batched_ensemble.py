"""E13 — batched multi-sample LE-list engine: ensemble throughput.

The paper's efficiency argument (Lemma 2.3, Theorem 7.9) amortizes
aggregation across all nodes with one global parallel sort; the batched
engine (:mod:`repro.mbf.dense`) extends the same idea across ensemble
*samples*: ``Pipeline.sample_ensemble(k)`` fuses the ``k`` LE-list
fixpoint computations into one multi-sample pass (composite
``(sample, target)`` segments, incremental dominated-entry pruning,
per-sample fixpoint masking) instead of paying ``k`` separate
propagate/prune sweeps over the same graph.

Measured: wall-clock seconds, ensemble throughput (trees/second) and
tracemalloc peak of one batch (the default ``ExecutionConfig()``) against
``ExecutionConfig(shard_size=1)``, which runs the same engine one sample
at a time in-process (the memory-lean shape), on the ``"dense"`` direct
backend across ``n`` and ``k``, plus the oracle-backed path at one size,
plus the **lists-vs-trees stage split** (``test_e13_tree_stage_split``):
the split times the batched LE-list pass, the per-sample
``build_frt_tree`` loop (the reference construction in
``tests/frt_reference.py``), and the fused
:func:`~repro.frt.forest.build_frt_forest` pass, and asserts the forest
build beats the per-sample loop ≥ 3x at ``n=1024, k=16``.  Peaks come
from a separate untimed run, so tracing never inflates the timings.

**Sharded execution:** ``test_e13_sharded_ensemble`` times the
process-pool sharding of the batched engine (``ExecutionConfig(
workers=2)``) against the in-process batch, asserts bit-identical
stacked forests always, and a ≥ 1.35x speedup floor at ``n=1024, k=16``
when the machine has ≥ 2 usable cores.  Two workers cannot reach 2x
here: the in-process run takes ~0.44 s, and its per-iteration fixed
costs make a ``k=8`` shard take 0.57 of a ``k=16`` batch rather than
half, a ~1.75x ceiling before pool overhead.  Ten runs on a 2-core VM
read 1.42-1.68x (median 1.57x), hence the 1.35x floor.

**Floors.**  Both shapes run the same incremental kernel, so what is
measured is pure cross-sample *fusion*: one global pass vs ``k`` passes
of one sample.  Fusion wins at small ``n·k`` (fewer Python/NumPy
dispatches) and gives some back to cache pressure at large ``n·k``, so
the assertions are parity (bit-identical outputs, always) plus
no-bad-regression floors on the one-batch/one-at-a-time time ratio,
with the measured ratios and peaks recorded for the perf trajectory.
The floors were re-derived from ten runs on a 2-core VM (see each test).
"""

import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.api import (
    as_rng,
    EmbeddingConfig,
    ExecutionConfig,
    generators as gen,
    HopsetConfig,
    Pipeline,
    PipelineConfig,
)
from repro.frt import build_frt_forest
from repro.frt.lelists import compute_le_lists_batch
from tests.frt_reference import build_frt_tree


#: The default: all k samples in one fused batch.
ONE_BATCH = ExecutionConfig()
#: The same engine one sample at a time, in-process.
ONE_AT_A_TIME = ExecutionConfig(shard_size=1)


def _time_ensemble(g, cfg, k, seed, execution):
    pipe = Pipeline(g, cfg)
    t0 = time.perf_counter()
    res = pipe.sample_ensemble(k=k, seed=seed, execution=execution)
    return time.perf_counter() - t0, res


def _peak_mib(g, cfg, k, seed, execution):
    """tracemalloc peak (MiB) of one ensemble call, in a separate run."""
    pipe = Pipeline(g, cfg)
    tracemalloc.start()
    try:
        pipe.sample_ensemble(k=k, seed=seed, execution=execution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _assert_identical(a_res, b_res):
    for a, b in zip(a_res, b_res):
        # reprolint: disable=float-distance-eq (bit-identity across
        # execution shapes is the property under test here)
        assert np.array_equal(a.rank, b.rank) and a.beta == b.beta
        assert a.iterations == b.iterations
        assert a.le_lists.equals(b.le_lists)
        assert np.array_equal(a.tree.level_ids, b.tree.level_ids)


def _fusion_info(g, cfg, k, seed, one_s, batch_s):
    """extra_info of a one-at-a-time vs one-batch comparison."""
    return dict(
        one_at_a_time_seconds=one_s,
        batch_seconds=batch_s,
        one_at_a_time_trees_per_s=k / one_s,
        batch_trees_per_s=k / batch_s,
        speedup=one_s / batch_s,
        one_at_a_time_peak_mib=_peak_mib(g, cfg, k, seed, ONE_AT_A_TIME),
        batch_peak_mib=_peak_mib(g, cfg, k, seed, ONE_BATCH),
    )


@pytest.mark.parametrize(
    "n,k,assert_speedup",
    [
        (128, 4, None),  # CI smoke size
        (256, 16, None),
        (1024, 8, None),
        (1024, 16, 0.65),  # fusion must stay within ~1.5x of one-at-a-time
    ],
    ids=lambda v: str(v),
)
def test_e13_dense_ensemble_throughput(benchmark, n, k, assert_speedup):
    g = gen.random_graph(n, 3 * n, rng=20)
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
    one_s, one_res = _time_ensemble(g, cfg, k, 0, ONE_AT_A_TIME)

    def run_batched():
        return _time_ensemble(g, cfg, k, 0, ONE_BATCH)

    (batch_s, batch_res) = benchmark.pedantic(run_batched, rounds=1, iterations=1)
    _assert_identical(one_res, batch_res)
    info = _fusion_info(g, cfg, k, 0, one_s, batch_s)
    benchmark.extra_info.update(n=n, m=g.m, k=k, backend="dense", **info)
    if assert_speedup is not None:
        assert info["speedup"] >= assert_speedup, (
            f"batched ensemble only {info['speedup']:.2f}x the one-at-a-time "
            f"run at n={n}, k={k} (floor {assert_speedup}x)"
        )


@pytest.mark.parametrize(
    "n,k,assert_speedup",
    [
        (128, 4, None),  # CI smoke size (keeps the JSON artifact's fields)
        (1024, 16, 3.0),  # the forest must beat the per-sample tree loop >= 3x
    ],
    ids=lambda v: str(v),
)
def test_e13_tree_stage_split(benchmark, n, k, assert_speedup):
    """Lists-vs-trees stage split of the batched ensemble pipeline.

    Times the two stages separately: the fused multi-sample LE-list pass,
    then tree construction both ways — the per-sample ``build_frt_tree``
    loop (the independent reference construction) and the fused
    ``build_frt_forest`` pass.  Parity of all per-sample structure arrays
    is asserted alongside the speedup floor.
    """
    g = gen.random_graph(n, 3 * n, rng=24)
    rng = as_rng(25)
    ranks = np.stack([rng.permutation(n) for _ in range(k)])
    betas = rng.uniform(1.0, 2.0, size=k)
    wmin, _ = g.weight_bounds()

    t0 = time.perf_counter()
    lists, _ = compute_le_lists_batch(g, ranks)
    lists_s = time.perf_counter() - t0

    # Best-of-3 on both sides: the floor assertion compares the two
    # timings directly, so a single noisy round must not fail it.
    serial_trees_s = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        serial_trees = [
            build_frt_tree(lists.sample_states(s), ranks[s], betas[s], wmin)
            for s in range(k)
        ]
        serial_trees_s = min(serial_trees_s, time.perf_counter() - t0)

    def run_forest():
        best, forest = np.inf, None
        for _ in range(3):
            t0 = time.perf_counter()
            forest = build_frt_forest(lists, ranks, betas, wmin)
            best = min(best, time.perf_counter() - t0)
        return best, forest

    forest_s, forest = benchmark.pedantic(run_forest, rounds=1, iterations=1)
    for s, want in enumerate(serial_trees):
        got = forest.tree(s)
        assert np.array_equal(got.level_ids, want.level_ids)
        assert np.array_equal(got.parent, want.parent)
        assert np.array_equal(got.node_leading, want.node_leading)
    speedup = serial_trees_s / forest_s
    benchmark.extra_info.update(
        n=n,
        m=g.m,
        k=k,
        lists_seconds=lists_s,
        serial_trees_seconds=serial_trees_s,
        forest_seconds=forest_s,
        tree_stage_speedup=speedup,
        serial_tree_stage_fraction=serial_trees_s / (lists_s + serial_trees_s),
        forest_tree_stage_fraction=forest_s / (lists_s + forest_s),
    )
    if assert_speedup is not None:
        assert speedup >= assert_speedup, (
            f"forest build only {speedup:.2f}x the per-sample tree "
            f"loop at n={n}, k={k} (floor {assert_speedup}x)"
        )


@pytest.mark.parametrize(
    "n,k,workers,assert_speedup",
    [
        (128, 4, 2, None),  # CI smoke size
        (1024, 16, 2, 1.35),  # sharding must win >= 1.35x given >= 2 cores
    ],
    ids=lambda v: str(v),
)
def test_e13_sharded_ensemble(benchmark, n, k, workers, assert_speedup):
    """Sharded (process-pool) vs in-process one-batch ensemble.

    The sample axis is embarrassingly parallel: per-sample child
    generators are spawned before any fan-out and the concat primitives
    re-stack the per-shard results into the one-shard layout, so the
    sharded run must be *bit-identical* to the in-process batch —
    asserted always, on every array of the stacked forest.  The speedup
    floor is a real-parallelism claim, so it only applies when the
    machine actually has >= 2 usable cores (on a single-core CI runner
    the pool can only add overhead; the measured ratio is still recorded
    for the perf trajectory).
    """
    g = gen.random_graph(n, 3 * n, rng=23)
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
    inproc_s, inproc_res = _time_ensemble(g, cfg, k, 3, ONE_BATCH)

    def run_sharded():
        pipe = Pipeline(g, cfg)
        t0 = time.perf_counter()
        res = pipe.sample_ensemble(
            k=k, seed=3, execution=ExecutionConfig(workers=workers)
        )
        return time.perf_counter() - t0, res

    (sharded_s, sharded_res) = benchmark.pedantic(
        run_sharded, rounds=1, iterations=1
    )
    _assert_identical(inproc_res, sharded_res)
    for name in ("betas", "depths", "radii", "edge_weights", "cum_weights",
                 "level_ids", "node_offsets", "parent", "node_level",
                 "node_leading"):
        assert np.array_equal(
            getattr(inproc_res.forest, name), getattr(sharded_res.forest, name)
        ), name
    cpus = len(os.sched_getaffinity(0))
    speedup = inproc_s / sharded_s
    benchmark.extra_info.update(
        n=n,
        m=g.m,
        k=k,
        workers=workers,
        cpus=cpus,
        backend="dense",
        inprocess_seconds=inproc_s,
        sharded_seconds=sharded_s,
        sharded_trees_per_s=k / sharded_s,
        speedup=speedup,
    )
    if assert_speedup is not None and cpus >= workers:
        assert speedup >= assert_speedup, (
            f"sharded ensemble only {speedup:.2f}x the in-process batch "
            f"run at n={n}, k={k}, workers={workers} "
            f"(floor {assert_speedup}x, {cpus} cores)"
        )


def test_e13_oracle_ensemble(benchmark):
    """The oracle-backed path batches too (no speedup floor asserted —
    its inner chains are short and level-striped, so the batch win is
    smaller); parity and a sanity bound are checked.  Kept small: one
    sample at a time the oracle ensemble is slow already at ``n = 256``."""
    n, k = 64, 8
    g = gen.random_graph(n, 3 * n, rng=21)
    cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=6))
    one_s, one_res = _time_ensemble(g, cfg, k, 1, ONE_AT_A_TIME)
    (batch_s, batch_res) = benchmark.pedantic(
        lambda: _time_ensemble(g, cfg, k, 1, ONE_BATCH), rounds=1, iterations=1
    )
    _assert_identical(one_res, batch_res)
    info = _fusion_info(g, cfg, k, 1, one_s, batch_s)
    benchmark.extra_info.update(n=n, k=k, method="oracle", **info)
    # The batch must at least not regress the oracle path badly.
    assert batch_s <= 2.0 * one_s


def test_e13_scaling_in_k(benchmark):
    """One-batch vs one-at-a-time ratio across k at fixed n (recorded for
    the perf trajectory).  Both shapes run the same incremental kernel —
    the dominated-entry prune is the main lever and already pays off at
    ``k = 1`` — so fusion is roughly cost-neutral, trending slightly below
    1x at large fused batches (cache pressure), while the one-at-a-time
    peak stays flat in ``k``.  The shape assertion is a uniform
    no-bad-regression floor."""
    n = 512
    g = gen.random_graph(n, 3 * n, rng=22)
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
    rows = []

    def sweep():
        for k in (4, 16, 32):
            one_s, a = _time_ensemble(g, cfg, k, 2, ONE_AT_A_TIME)
            batch_s, b = _time_ensemble(g, cfg, k, 2, ONE_BATCH)
            _assert_identical(a, b)
            rows.append({"k": k, "one_at_a_time_s": one_s, "batch_s": batch_s,
                         "speedup": one_s / batch_s})
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    for row in rows:
        row["one_at_a_time_peak_mib"] = _peak_mib(g, cfg, row["k"], 2, ONE_AT_A_TIME)
        row["batch_peak_mib"] = _peak_mib(g, cfg, row["k"], 2, ONE_BATCH)
    benchmark.extra_info.update(n=n, rows=rows)
    assert all(r["speedup"] >= 0.65 for r in rows), rows
