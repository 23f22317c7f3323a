"""E15 — the offline-build / online-serve split: artifacts + batched serving.

PR 8 gives the pipeline a persistence boundary: :mod:`repro.io` writes
schema-versioned, provenance-stamped artifact files whose stacked CSR
arrays memmap straight out of the zip (zero-copy cold start), and
:mod:`repro.serve` answers many small distance queries against one
preloaded forest by coalescing them — across requests and kinds — into
single vectorized pair-axis calls, with an LRU result cache in front.

Measured: (1) cold-load wall-clock, memmap vs in-memory, against the
artifact size; (2) coalesced serving vs the one-query-at-a-time loop over
the same request stream (both cache-disabled, so the ratio isolates the
micro-batcher); (3) steady-state QPS with the cache on, with the served
cache hit rate and the p50/p99 request latencies recorded in the
benchmark JSON.  Asserted shape: answers bit-identical to direct
``FRTForest`` queries everywhere, and coalesced serving **≥ 3x** the
unbatched loop at n=1024, r=16 (one gather spanning all requests
amortizes the fixed per-call cost ~Q times).
"""

import time

import numpy as np
import pytest

from repro.api import (
    EmbeddingConfig,
    Pipeline,
    PipelineConfig,
    as_rng,
    generators as gen,
)
from repro.io import load_forest, save_forest
from repro.serve import load_server


def _forest(n, r, seed):
    g = gen.random_graph(n, 3 * n, rng=seed)
    pipe = Pipeline(
        g, PipelineConfig(embedding=EmbeddingConfig(method="direct")), rng=seed
    )
    return pipe.sample_ensemble(r, seed=seed).forest


def _request_stream(n, requests, pairs_per_request, seed, hot_fraction=0.5):
    """A serving workload: many small queries over a half-hot pair pool."""
    rng = as_rng(seed)
    pool_us = rng.integers(0, n, 64)
    pool_vs = rng.integers(0, n, 64)
    out = []
    for _ in range(requests):
        if rng.random() < hot_fraction:
            idx = rng.integers(0, 64, pairs_per_request)
            out.append((pool_us[idx], pool_vs[idx]))
        else:
            out.append(
                (
                    rng.integers(0, n, pairs_per_request),
                    rng.integers(0, n, pairs_per_request),
                )
            )
    return out


@pytest.mark.parametrize("n,r", [(128, 4), (1024, 16)], ids=lambda v: str(v))
def test_e15_cold_load(benchmark, tmp_path, n, r):
    """Artifact cold start: memmap load vs full in-memory read."""
    forest = _forest(n, r, seed=150)
    path = tmp_path / "forest.rpz"
    save_forest(path, forest)
    artifact_mb = path.stat().st_size / 2**20

    t0 = time.perf_counter()
    inmem = load_forest(path)
    inmem_s = time.perf_counter() - t0

    def run():
        t0 = time.perf_counter()
        server = load_server(path)  # mmap=True: maps, never reads, the CSR payload
        return time.perf_counter() - t0, server

    mmap_s, server = benchmark.pedantic(run, rounds=1, iterations=1)
    assert isinstance(server.forest.level_ids, np.memmap)
    us, vs = as_rng(151).integers(0, n, 32), as_rng(152).integers(0, n, 32)
    assert np.array_equal(server.distances(us, vs), inmem.distances(us, vs))
    benchmark.extra_info.update(
        n=n,
        r=r,
        artifact_mb=artifact_mb,
        mmap_load_seconds=mmap_s,
        inmem_load_seconds=inmem_s,
        mmap_vs_inmem=inmem_s / mmap_s if mmap_s > 0 else float("inf"),
    )


@pytest.mark.parametrize(
    "n,r,requests,assert_speedup",
    [
        (128, 4, 64, None),  # CI smoke size
        (1024, 16, 256, 3.0),  # coalescing must beat the per-query loop >= 3x
    ],
    ids=lambda v: str(v),
)
def test_e15_serving_speedup(benchmark, tmp_path, n, r, requests, assert_speedup):
    """One coalesced flush vs a one-query-at-a-time loop, bit-identical.

    Both servers run cache-disabled over the identical request stream, so
    the measured ratio is the micro-batcher itself: Q tiny pair-axis
    gathers collapse into one call whose fixed costs are paid once.
    """
    forest = _forest(n, r, seed=153)
    path = tmp_path / "forest.rpz"
    save_forest(path, forest)
    stream = _request_stream(n, requests, pairs_per_request=4, seed=154)

    unbatched = load_server(path, cache_size=0)
    t0 = time.perf_counter()
    serial_out = [unbatched.distances(us, vs) for us, vs in stream]
    serial_s = time.perf_counter() - t0
    assert unbatched.stats()["batches"] == requests

    def run_batched():
        server = load_server(path, cache_size=0, max_pending=10**9)
        best, out = np.inf, None
        for _ in range(3):
            reqs = [server.submit("distances", us, vs) for us, vs in stream]
            t0 = time.perf_counter()
            server.flush()
            best = min(best, time.perf_counter() - t0)
            out = [req.result() for req in reqs]
        return best, out, server

    batched_s, batched_out, server = benchmark.pedantic(run_batched, rounds=1, iterations=1)
    for got, want, (us, vs) in zip(batched_out, serial_out, stream):
        assert np.array_equal(got, want)
        assert np.array_equal(got, forest.distances(us, vs))
    speedup = serial_s / batched_s
    stats = server.stats()
    benchmark.extra_info.update(
        n=n,
        r=r,
        requests=requests,
        pairs_per_request=4,
        unbatched_seconds=serial_s,
        batched_seconds=batched_s,
        speedup=speedup,
        coalesced_pairs=stats["coalesced_pairs"] // 3,
        mean_batch_size=stats["mean_batch_size"],
    )
    if assert_speedup is not None:
        assert speedup >= assert_speedup, (
            f"coalesced serving only {speedup:.2f}x the per-query loop at "
            f"n={n}, r={r} (floor {assert_speedup}x)"
        )


@pytest.mark.parametrize("n,r", [(128, 4), (1024, 16)], ids=lambda v: str(v))
def test_e15_qps_with_cache(benchmark, tmp_path, n, r):
    """Steady-state serving: QPS, cache hit rate, and p50/p99 latency.

    The half-hot workload is the serving story's honest shape: repeat
    queries are absorbed by the LRU (hit rate lands near the hot
    fraction), fresh pairs ride the coalesced path, and the recorded
    p99 is what a caller actually waits.
    """
    forest = _forest(n, r, seed=155)
    path = tmp_path / "forest.rpz"
    save_forest(path, forest)
    stream = _request_stream(n, 512, pairs_per_request=4, seed=156)

    def run():
        server = load_server(path, max_pending=64)
        t0 = time.perf_counter()
        for us, vs in stream:
            server.submit("distances", us, vs)
        server.flush()
        return time.perf_counter() - t0, server

    elapsed, server = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = server.stats()
    assert stats["requests"] == 512
    assert stats["cache_hit_rate"] > 0.1, "hot pool never hit the cache"
    assert stats["latency_p50"] <= stats["latency_p99"]
    # spot-check correctness under the cache
    us, vs = stream[0]
    assert np.array_equal(server.distances(us, vs), forest.distances(us, vs))
    benchmark.extra_info.update(
        n=n,
        r=r,
        requests=512,
        qps=512 / elapsed,
        cache_hit_rate=stats["cache_hit_rate"],
        latency_p50=stats["latency_p50"],
        latency_p99=stats["latency_p99"],
        batches=stats["batches"],
        mean_batch_size=stats["mean_batch_size"],
    )
