"""The :class:`Pipeline` facade: hop set → ``H``/oracle → LE lists → trees.

This is the canonical entry point to the paper's pipeline.  A ``Pipeline``
binds one graph to one :class:`~repro.api.configs.PipelineConfig`, builds
the expensive stage artifacts (hop set, oracle) lazily, caches them, and
amortizes them across samples.  It is the one place that builds the
hop set → oracle chain: Theorem 6.1's metric (:meth:`Pipeline.embed_metric`),
the spanner metric of Theorem 6.2 and the Section-8.3 skeleton oracle all
run through it:

>>> from repro.api import Pipeline, PipelineConfig
>>> pipe = Pipeline(G, PipelineConfig(seed=0))
>>> result = pipe.sample_ensemble(k=8)          # one hopset+oracle build
>>> tree = pipe.sample().tree                   # still the same artifacts
>>> dist = pipe.embed_metric().query(0, 5)      # ditto

Randomness: the pipeline threads a single :class:`numpy.random.Generator`
(from ``rng`` or ``config.seed``) through construction and sampling, so a
fixed ``rng`` reproduces every artifact and sample.  Batch sampling spawns
one child generator per sample, so results do not depend on scheduling
(shard size, process pool).

One sampling path and one ensemble value: ``sample_ensemble(k)`` runs the
fused batched engine over shards of the sample axis, each shard yields a
stacked :class:`~repro.api.result.PipelineResult`, and the shards
concatenate into one; ``sample()`` is element 0 of a one-sample result.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np

from repro.api.configs import ExecutionConfig, PipelineConfig, _as_int
from repro.api.result import PipelineResult
from repro.frt import lelists
from repro.frt.embedding import EmbeddingResult, _draw_randomness
from repro.frt.forest import FRTForest, build_frt_forest
from repro.frt.lelists import compute_le_lists_batch_via_oracle
from repro.graph.core import Graph
from repro.hopsets.base import HopSetResult
from repro.hopsets.exact_closure import exact_closure_hopset
from repro.hopsets.identity import identity_hopset
from repro.hopsets.rounded import rounded_hopset
from repro.hopsets.skeleton import hub_hopset
from repro.mbf.dense import BatchedFlatStates
from repro.metric.approx_metric import MetricResult, metric_from_oracle
from repro.oracle.oracle import HOracle
from repro.pram.cost import NULL_LEDGER, CostLedger
from repro.util.rng import as_rng, spawn_rngs, split_seed

__all__ = ["Pipeline", "ShardWorkerError"]


class ShardWorkerError(RuntimeError):
    """A pool worker died before returning its shard of an ensemble.

    Raised by :meth:`Pipeline.sample_ensemble` with ``workers > 1`` when
    the process pool breaks, e.g. because the OOM killer or ``os._exit``
    ended a worker.  ``shard`` is the first shard, in sample order, that
    did not complete, and ``[lo, hi)`` its sample range.  The pool's
    :class:`~concurrent.futures.process.BrokenProcessPool` is chained as
    ``__cause__``.
    """

    def __init__(self, shard: int, lo: int, hi: int):
        super().__init__(
            f"shard {shard} (samples [{lo}, {hi})) did not complete: "
            "its pool worker died"
        )
        self.shard, self.lo, self.hi = shard, lo, hi


class Pipeline:
    """Composable, artifact-caching front end to the full pipeline.

    Parameters
    ----------
    G:
        The connected input graph.
    config:
        Stage configuration; defaults to the paper's main pipeline
        (hub hop set, rounded to ``eps=0.25``, oracle-based sampling).
    rng:
        Seed / generator for *all* pipeline randomness; overrides
        ``config.seed``.  One generator is threaded through construction
        and sampling, matching the legacy free-function conventions.
    hopset, oracle:
        Pre-built artifacts to inject (amortizing across pipelines or
        reusing externally constructed stages); injected artifacts do not
        count towards the build counters in :attr:`stats`.

    Attributes
    ----------
    stats:
        Build/sample counters (``hopset_builds``, ``oracle_builds``,
        ``metric_builds``, ``samples``) — the ledger-style evidence that
        batch sampling reuses one artifact set.
    timings:
        Cumulative wall-clock seconds per stage.
    """

    def __init__(
        self,
        G: Graph,
        config: PipelineConfig | None = None,
        *,
        rng=None,
        hopset: HopSetResult | None = None,
        oracle: HOracle | None = None,
    ):
        if not isinstance(G, Graph):
            raise TypeError(f"expected a repro Graph, got {type(G)!r}")
        if not G.is_connected():
            raise ValueError("the pipeline requires a connected graph")
        if config is None:
            config = PipelineConfig()
        elif not isinstance(config, PipelineConfig):
            raise TypeError(f"expected a PipelineConfig, got {type(config)!r}")
        self.G = G
        self.config = config
        self._rng = as_rng(rng if rng is not None else config.seed)
        self._hopset = hopset
        self._oracle = oracle
        self._metric: MetricResult | None = None
        self.stats = {
            "hopset_builds": 0,
            "oracle_builds": 0,
            "metric_builds": 0,
            "samples": 0,
        }
        self.timings: dict[str, float] = {}

    # -- stage artifacts ------------------------------------------------------

    def hopset(self) -> HopSetResult:
        """The (cached) hop-set result; built on first use."""
        if self._hopset is None:
            cfg = self.config.hopset
            with self._stage("hopset", "hopset_builds"):
                if cfg.kind == "hub":
                    base = hub_hopset(self.G, cfg.d0, c=cfg.c, rng=self._rng)
                elif cfg.kind == "identity":
                    base = identity_hopset(self.G)
                else:  # exact-closure
                    base = exact_closure_hopset(self.G)
                if cfg.eps > 0 and cfg.kind != "identity":
                    base = rounded_hopset(base, self.G, cfg.eps)
                self._hopset = base
        return self._hopset

    def oracle(self) -> HOracle:
        """The (cached) Section-5 oracle on ``H``; built on first use."""
        if self._oracle is None:
            cfg = self.config.oracle
            hopset = self.hopset()
            if (
                cfg.penalty_base is not None
                and cfg.penalty_base < 1.0 + hopset.eps
            ):
                raise ValueError(
                    f"penalty_base={cfg.penalty_base} violates the Theorem 4.5 "
                    f"requirement >= 1 + eps = {1.0 + hopset.eps} for this hop "
                    "set; use repro.simulated.SimulatedGraph directly for "
                    "ablations below that bound"
                )
            with self._stage("oracle", "oracle_builds"):
                self._oracle = HOracle(
                    hopset,
                    penalty_base=cfg.penalty_base,
                    inner_early_exit=cfg.inner_early_exit,
                    rng=self._rng,
                )
        return self._oracle

    # -- sampling -------------------------------------------------------------

    def sample(
        self,
        *,
        rng=None,
        rank: np.ndarray | None = None,
        beta: float | None = None,
        ledger: CostLedger = NULL_LEDGER,
    ) -> EmbeddingResult:
        """Sample one FRT tree with the configured method.

        The ``k = 1`` view of the batched engine behind
        :meth:`sample_ensemble`: element 0 of a one-sample
        :class:`~repro.api.result.PipelineResult`.  ``rng`` defaults to
        the pipeline's own generator; explicit ``rank`` / ``beta`` values
        are used verbatim and do *not* consume random state.  ``ledger``
        receives the sample's model costs.  The first ``"oracle"``-method
        call builds (and caches) the hop set and oracle.
        """
        g = self._rng if rng is None else as_rng(rng)
        # Build first, so artifact builds draw from the stream before the
        # sample does and stay outside ``timings["samples"]``.
        self._sampler_oracle()
        with self._stage("samples", "samples"):
            part = self._sample_batch_core([g], rank=rank, beta=beta, ledgers=[ledger])
        return part.embeddings[0]

    def sample_ensemble(
        self,
        k: int,
        *,
        seed: int | None = None,
        execution: ExecutionConfig | None = None,
    ) -> PipelineResult:
        """Sample ``k`` independent trees, amortizing one artifact build.

        The hop set / oracle are built (at most) once and shared by all
        ``k`` samples; each sample draws from its own spawned child
        generator (spawned *before* any fan-out), so the batch is
        bit-reproducible under a fixed ``seed`` regardless of worker count
        or shard boundaries.  The result is the stacked ensemble value: one
        :class:`~repro.frt.forest.FRTForest`, one batch of LE lists and a
        ``(k, n)`` rank matrix.

        Parameters
        ----------
        k:
            Ensemble size, an int ``>= 1`` (NumPy integers are accepted;
            ``bool`` is rejected).
        seed:
            Batch seed, an int or NumPy integer (not ``bool``).  When
            given, it determines construction randomness too (if the
            artifacts are not yet built), so a fresh
            ``Pipeline(G, cfg).sample_ensemble(k, seed=s)`` is fully
            deterministic.  ``None`` continues the pipeline's own stream.
        execution:
            Per-call :class:`~repro.api.configs.ExecutionConfig` override;
            ``None`` uses ``config.execution``.  The sample axis is cut
            into contiguous shards of at most ``shard_size`` samples; each
            shard runs the fused engine, in-process one after the other
            (``workers=1``) or over a process pool (``workers > 1``), and
            the shards are concatenated
            (:meth:`~repro.mbf.dense.BatchedFlatStates.concat`,
            :meth:`~repro.frt.forest.FRTForest.concat`) into the exact
            one-shard layout.  ``shard_size`` bounds peak memory:
            ``shard_size=1`` samples one tree at a time.
        """
        k = _as_int("k", k)
        if k < 1:
            raise ValueError("ensemble size k must be >= 1")
        if seed is not None:
            seed = _as_int("seed", seed)
        exec_cfg = execution if execution is not None else self.config.execution
        if not isinstance(exec_cfg, ExecutionConfig):
            raise TypeError(
                f"execution must be an ExecutionConfig, got {type(exec_cfg)!r}"
            )
        t_total = time.perf_counter()
        timings_before = dict(self.timings)
        if seed is not None:
            build_ss, sample_ss = split_seed(seed, 2)
            if self._needs_build():
                # Build from a seed-derived stream so a fresh pipeline is
                # fully deterministic — but restore the pipeline's own
                # stream afterwards: the batch seed must not shift the
                # randomness of later sample()/hopset() calls.
                own_rng = self._rng
                self._rng = as_rng(build_ss)
                try:
                    self.oracle()
                finally:
                    self._rng = own_rng
            children = spawn_rngs(sample_ss, k)
        else:
            children = spawn_rngs(self._rng, k)
        # Build shared artifacts up front so every shard (and worker) reuses
        # the same hop set / oracle instead of racing to build its own.
        self._sampler_oracle()
        with self._stage("samples", "samples", k):
            result = self._sample_shards(children, exec_cfg)
        # Per-batch stage timings: the delta over this call, not the
        # pipeline's lifetime accumulation.
        timings = {
            stage: spent - timings_before.get(stage, 0.0)
            for stage, spent in self.timings.items()
            if spent - timings_before.get(stage, 0.0) > 0.0
        }
        timings["total"] = time.perf_counter() - t_total
        return dataclasses.replace(
            result,
            timings=timings,
            meta=self._provenance(k=k, seed=seed, execution=exec_cfg.to_dict()),
        )

    def _sampler_oracle(self) -> HOracle | None:
        """The oracle the ``"oracle"`` method samples through (built and
        cached on first use); ``None`` for the ``"direct"`` method."""
        return self.oracle() if self.config.embedding.method == "oracle" else None

    def _sample_batch_core(
        self,
        children: list[np.random.Generator],
        *,
        rank: np.ndarray | None = None,
        beta: float | None = None,
        ledgers: list[CostLedger] | None = None,
    ) -> PipelineResult:
        """The fused engine pass: draws → batched LE lists → forest.

        Draws each sample's ``(rank, beta)`` from its own child generator,
        stacks the ranks into a ``(k, n)`` matrix, runs the batched engine
        once, and constructs all ``k`` trees in one vectorized
        :func:`~repro.frt.forest.build_frt_forest` pass.  Explicit
        ``rank`` / ``beta`` (the ``k = 1`` view in :meth:`sample`) are
        used verbatim without drawing; ``ledgers`` defaults to one fresh
        ledger per sample.  Returns the stacked result without timings or
        provenance — picklable, and the payload a pool worker ships back.
        """
        oracle = self._sampler_oracle()
        draws = [_draw_randomness(self.G.n, g, rank=rank, beta=beta) for g in children]
        ranks = np.stack([r for r, _ in draws])
        if ledgers is None:
            ledgers = [CostLedger() for _ in children]
        meta = {"pipeline": self.config.embedding.method}
        if oracle is not None:
            lists, iters = compute_le_lists_batch_via_oracle(
                oracle, ranks, ledgers=ledgers
            )
            meta.update(
                hop_d=oracle.d,
                Lambda=oracle.Lambda,
                penalty_base=oracle.penalty_base,
                eps=self.config.hopset.eps,
            )
        else:
            # Looked up on the module at call time, so a wrapper installed
            # there (a profiler, a test spy) sees every direct sample.
            lists, iters = lelists.compute_le_lists_batch(self.G, ranks, ledgers=ledgers)
        wmin, _ = self.G.weight_bounds()
        betas = np.array([b for _, b in draws])
        return PipelineResult(
            forest=build_frt_forest(lists, ranks, betas, wmin),
            le_lists=lists,
            ranks=ranks,
            iterations=iters,
            ledgers=ledgers,
            embedding_meta=meta,
        )

    def _sample_shards(
        self, children: list[np.random.Generator], execution: ExecutionConfig
    ) -> PipelineResult:
        """Shards → stacked results → concat: the pass over the sample axis.

        Each shard runs :meth:`_sample_batch_core` on a contiguous slice of
        the (already spawned) child generators, so shard boundaries cannot
        change any sample's RNG stream.  ``workers=1`` maps the shards
        in-process, so the engine's transient memory follows one shard;
        ``workers > 1`` maps them over a process pool, and a worker that
        dies raises :class:`ShardWorkerError`.  The shard results
        are concatenated back into the exact one-shard layout
        (:meth:`BatchedFlatStates.concat` rebases list offsets,
        :meth:`FRTForest.concat` re-pads ragged per-shard depths to the
        global ``k_max`` and rebases node offsets); a single shard is
        returned as is.
        """
        bounds = _shard_bounds(len(children), execution.workers, execution.shard_size)
        shards = [children[lo:hi] for lo, hi in bounds]
        if execution.workers > 1 and len(shards) > 1:
            with ProcessPoolExecutor(
                max_workers=min(execution.workers, len(shards)),
                initializer=_init_ensemble_worker,
                initargs=(self.G, self.config, self._hopset, self._oracle),
            ) as pool:
                futures = [pool.submit(_ensemble_shard_worker, shard) for shard in shards]
                parts = []
                for i, future in enumerate(futures):
                    try:
                        parts.append(future.result())
                    except BrokenProcessPool as exc:
                        raise ShardWorkerError(i, *bounds[i]) from exc
                # The futures hold the shard results too; ``del parts`` below
                # must free the last reference.
                del futures
        else:
            parts = [self._sample_batch_core(shard) for shard in shards]
        if len(parts) == 1:
            return parts[0]
        lists = BatchedFlatStates.concat([p.le_lists for p in parts])
        forests = [p.forest for p in parts]
        ranks = [p.ranks for p in parts]
        iterations = [i for p in parts for i in p.iterations]
        ledgers = [led for p in parts for led in p.ledgers]
        embedding_meta = parts[0].embedding_meta
        # Drop the shard lists before anything else allocates, so the
        # one-tree-at-a-time memory profile holds one copy of the lists.
        del parts
        return PipelineResult(
            forest=FRTForest.concat(forests),
            le_lists=lists,
            ranks=np.concatenate(ranks),
            iterations=iterations,
            ledgers=ledgers,
            embedding_meta=embedding_meta,
        )

    # -- distance queries -----------------------------------------------------

    def embed_metric(self, *, ledger: CostLedger = NULL_LEDGER) -> MetricResult:
        """Theorem 6.1 through the cached oracle: an approximate *metric*.

        Reuses the pipeline's hop set / oracle (one build serves trees and
        metric queries alike); the result is cached.  The returned
        :class:`~repro.metric.MetricResult` is the constant-time query
        object: ``query(u, v)``, ``matrix[us, vs]``, ``n`` and
        ``stretch_bound``.  Passing an explicit ``ledger`` always runs (and
        charges) the computation — a cached matrix must not silently report
        zero cost.
        """
        if self._metric is None or ledger is not NULL_LEDGER:
            oracle = self.oracle()
            with self._stage("metric", "metric_builds"):
                self._metric = metric_from_oracle(
                    oracle, eps=self.config.hopset.eps, ledger=ledger
                )
        return self._metric

    # -- bookkeeping ----------------------------------------------------------

    @contextmanager
    def _stage(self, timing: str, counter: str, count: int = 1):
        """Account one stage block in :attr:`timings` and :attr:`stats`.

        Once the block completes, its wall-clock seconds are added to
        ``timings[timing]`` and ``count`` to ``stats[counter]``; a block
        that raises records nothing.
        """
        t0 = time.perf_counter()
        yield
        self.stats[counter] += count
        self.timings[timing] = self.timings.get(timing, 0.0) + (time.perf_counter() - t0)

    # -- introspection --------------------------------------------------------

    def _needs_build(self) -> bool:
        if self.config.embedding.method != "oracle":
            return False
        return self._oracle is None

    def _provenance(self, **extra) -> dict:
        from repro.io.artifacts import content_fingerprint

        # The stable content identity: configs + seeds only.  Run-specific
        # noise (stats, timings) and the ExecutionConfig, which provably
        # does not change the result, are excluded, so equal-content runs
        # share cache keys and artifact filenames.
        content_config = self.config.to_dict()
        content_config.pop("execution", None)
        fingerprint = content_fingerprint(
            {
                "config": content_config,
                "n": self.G.n,
                "m": self.G.m,
                "method": self.config.embedding.method,
                "k": extra.get("k"),
                "seed": extra.get("seed"),
            }
        )
        meta: dict = {
            "config": self.config.to_dict(),
            "n": self.G.n,
            "m": self.G.m,
            "method": self.config.embedding.method,
            "fingerprint": fingerprint,
            "stats": dict(self.stats),
            **extra,
        }
        if self._hopset is not None:
            meta["hopset"] = {
                "d": self._hopset.d,
                "eps": self._hopset.eps,
                "extra_edges": self._hopset.extra_edges,
            }
        if self._oracle is not None:
            meta["oracle"] = {
                "Lambda": self._oracle.Lambda,
                "penalty_base": self._oracle.penalty_base,
                "d": self._oracle.d,
            }
        return meta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = [k for k, v in (("hopset", self._hopset), ("oracle", self._oracle)) if v]
        return (
            f"Pipeline(n={self.G.n}, m={self.G.m}, "
            f"method={self.config.embedding.method!r}, built={built})"
        )


def _shard_bounds(
    k: int, workers: int, shard_size: int | None
) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` sample slices of the batched pass.

    Shards hold ``shard_size`` samples each (default: ``ceil(k / workers)``,
    one shard per worker, so ``workers=1`` is a single shard), the last one
    whatever remains; ``workers > k`` degenerates to ``k`` singleton shards.
    """
    size = shard_size if shard_size is not None else -(-k // workers)
    return [(lo, min(lo + size, k)) for lo in range(0, k, size)]


_WORKER_PIPELINE: Pipeline | None = None


def _init_ensemble_worker(graph, config, hopset, oracle) -> None:
    """Pool initializer: rebuild the shared pipeline once per worker."""
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = Pipeline(graph, config, hopset=hopset, oracle=oracle)


def _ensemble_shard_worker(children: list[np.random.Generator]) -> PipelineResult:
    """Process-pool body: one batched-engine pass over a shard of samples.

    The shard's child generators were spawned by the parent before the
    fan-out, so the draws here are bit-identical to the in-process pass
    over the same slice regardless of how ``k`` was sharded.
    """
    assert _WORKER_PIPELINE is not None, "pool initializer did not run"
    return _WORKER_PIPELINE._sample_batch_core(children)
