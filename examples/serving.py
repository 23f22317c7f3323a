#!/usr/bin/env python
"""The offline-build / online-serve split: artifacts + batched serving.

Offline, once: build a pipeline, sample a batched FRT ensemble — sharded
across a small process pool via :class:`ExecutionConfig` — and persist
it as a provenance-stamped artifact file (``repro.io.save_result``).
Online, many times: preload the artifact into a :class:`ForestServer`
(memmapped — cold start never reads the stacked arrays), then answer
many small distance queries; the micro-batcher coalesces them into one
vectorized call and the LRU cache absorbs repeats.  The stats dict at
the end is the serving story in numbers.

Run:  python examples/serving.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import (
    EmbeddingConfig,
    ExecutionConfig,
    Pipeline,
    PipelineConfig,
    as_rng,
    generators,
)
from repro.io import load_result, read_artifact_meta, save_result
from repro.serve import load_server


def main() -> None:
    n, k = 256, 8
    g = generators.random_graph(n, 3 * n, rng=7)
    pipe = Pipeline(
        g, PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=0)
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.rpz"

        # -- offline: one expensive build, one artifact file ------------------
        # The sample axis shards across a process pool; execution knobs
        # never change the persisted bits (or the fingerprint), so pick
        # whatever the build machine has — serving is unaffected.
        t0 = time.perf_counter()
        ensemble = pipe.sample_ensemble(k, seed=1, execution=ExecutionConfig(workers=2))
        meta = save_result(path, ensemble)
        build_s = time.perf_counter() - t0
        print(f"offline build: n={n}, k={k} ensemble "
              f"(2-way sharded) in {build_s:.2f}s")
        print(f"artifact: {path.stat().st_size / 2**20:.2f} MiB, "
              f"schema v{meta['schema_version']}, kind={meta['kind']!r}")
        print(f"fingerprint (configs+seeds hash): {meta['fingerprint'][:16]}…\n")

        # The meta is readable without touching the arrays — route on it.
        assert read_artifact_meta(path)["fingerprint"] == meta["fingerprint"]

        # -- online: preload once, serve many ---------------------------------
        t0 = time.perf_counter()
        # memmap: maps, never copies, the CSR arrays; flush every ~64 pairs
        server = load_server(path, max_pending=64)
        print(f"cold start: {(time.perf_counter() - t0) * 1e3:.1f}ms "
              f"(arrays memmapped: {isinstance(server.forest.level_ids, np.memmap)})")

        rng = as_rng(2)
        hot_us, hot_vs = rng.integers(0, n, 32), rng.integers(0, n, 32)
        for _ in range(200):
            if rng.random() < 0.5:  # half the traffic re-asks hot pairs
                idx = rng.integers(0, 32, 4)
                server.submit("distance_upper_bounds", hot_us[idx], hot_vs[idx])
            else:
                server.submit(
                    "distance_upper_bounds",
                    rng.integers(0, n, 4),
                    rng.integers(0, n, 4),
                )
        server.flush()

        # k-median rides the same server (cached on the weights digest).
        costs, _ = server.kmedian(np.ones(n), 4)
        print(f"k-median over all {k} trees: best cost {costs.min():.1f}\n")

        stats = server.stats()
        print("serving stats:")
        for key in (
            "requests",
            "batches",
            "mean_batch_size",
            "coalesced_pairs",
            "cache_hit_rate",
            "latency_p50",
            "latency_p99",
        ):
            value = stats[key]
            print(f"  {key:<18} {value:.4f}" if isinstance(value, float)
                  else f"  {key:<18} {value}")

        # Served answers are bit-identical to direct forest queries.
        check = load_result(path)
        assert np.array_equal(
            server.distance_upper_bounds(hot_us, hot_vs),
            check.forest.distance_upper_bounds(hot_us, hot_vs),
        )
        print("\nbit-identity vs the rehydrated forest: OK")


if __name__ == "__main__":
    main()
