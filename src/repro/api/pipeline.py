"""The :class:`Pipeline` facade: hop set → ``H``/oracle → LE lists → trees.

This is the canonical entry point to the paper's pipeline.  A ``Pipeline``
binds one graph to one :class:`~repro.api.configs.PipelineConfig`, builds
the expensive stage artifacts (hop set, oracle) lazily, caches them, and
amortizes them across samples:

>>> from repro.api import Pipeline, PipelineConfig
>>> pipe = Pipeline(G, PipelineConfig(seed=0))
>>> result = pipe.sample_ensemble(k=8)          # one hopset+oracle build
>>> tree = pipe.sample().tree                   # still the same artifacts
>>> dist = pipe.distance_oracle().query(0, 5)   # ditto

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
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.api.configs import ExecutionConfig, PipelineConfig
from repro.api.registry import MBFEngine, get_engine, invoke_solve, resolve_engine
from repro.api.result import DistanceOracle, PipelineResult, SolveResult
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
            raise ValueError("FRT embeddings require a connected graph")
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
            "solves": 0,
            "apps": 0,
        }
        self.timings: dict[str, float] = {}

    # -- stage artifacts ------------------------------------------------------

    def hopset(self) -> HopSetResult:
        """The (cached) hop-set result; built on first use."""
        if self._hopset is None:
            cfg = self.config.hopset
            t0 = time.perf_counter()
            if cfg.kind == "hub":
                base = hub_hopset(self.G, cfg.d0, c=cfg.c, rng=self._rng)
            elif cfg.kind == "identity":
                base = identity_hopset(self.G)
            else:  # exact-closure
                base = exact_closure_hopset(self.G)
            if cfg.eps > 0 and cfg.kind != "identity":
                base = rounded_hopset(base, self.G, cfg.eps)
            self._hopset = base
            self.stats["hopset_builds"] += 1
            self.timings["hopset"] = self.timings.get("hopset", 0.0) + (
                time.perf_counter() - t0
            )
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
            t0 = time.perf_counter()
            self._oracle = HOracle(
                hopset,
                penalty_base=cfg.penalty_base,
                inner_early_exit=cfg.inner_early_exit,
                rng=self._rng,
            )
            self.stats["oracle_builds"] += 1
            self.timings["oracle"] = self.timings.get("oracle", 0.0) + (
                time.perf_counter() - t0
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
        # Resolve first, so artifact builds draw from the stream before the
        # sample does and stay outside ``timings["samples"]``.
        self._resolve_sampler()
        t0 = time.perf_counter()
        part = self._sample_batch_core([g], rank=rank, beta=beta, ledgers=[ledger])
        self._record_samples(1, t0)
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
            ``shard_size=1`` samples one tree at a time.  Third-party
            engines are shipped to the workers by value, so their drivers
            must be picklable (a module-level function, not a lambda)
            under spawn/forkserver start methods.
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
        # the same hop set / oracle instead of racing to build its own, and
        # fail fast in the parent on an engine without an LE-list driver.
        self._resolve_sampler()
        t0 = time.perf_counter()
        result = self._sample_shards(children, exec_cfg)
        self._record_samples(k, t0)
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

    def _resolve_sampler(self) -> tuple[HOracle | None, MBFEngine | None]:
        """The LE-list inputs of the batched engine: ``(oracle, engine)``.

        One of the two is ``None``: the ``"oracle"`` method builds (and
        caches) the oracle, the ``"direct"`` method looks up the configured
        engine, which must ship an LE-list driver.
        """
        if self.config.embedding.method == "oracle":
            return self.oracle(), None
        engine = get_engine(self.config.embedding.backend)
        if engine.le_lists_batch is None:
            raise ValueError(
                f"engine {engine.name!r} has no LE-list driver; "
                "use an engine that ships le_lists_batch (e.g. 'dense')"
            )
        return None, engine

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
        method = self.config.embedding.method
        oracle, engine = self._resolve_sampler()
        draws = [_draw_randomness(self.G.n, g, rank=rank, beta=beta) for g in children]
        ranks = np.stack([r for r, _ in draws])
        if ledgers is None:
            ledgers = [CostLedger() for _ in children]
        if method == "oracle":
            lists, iters = compute_le_lists_batch_via_oracle(
                oracle, ranks, ledgers=ledgers
            )
            extra_meta = {
                "hop_d": oracle.d,
                "Lambda": oracle.Lambda,
                "penalty_base": oracle.penalty_base,
                "eps": self.config.hopset.eps,
            }
        else:
            lists, iters = engine.le_lists_batch(self.G, ranks, ledgers=ledgers)
            extra_meta = {"backend": engine.name}
        wmin, _ = self.G.weight_bounds()
        betas = np.array([b for _, b in draws])
        return PipelineResult(
            forest=build_frt_forest(lists, ranks, betas, wmin),
            le_lists=lists,
            ranks=ranks,
            iterations=iters,
            ledgers=ledgers,
            embedding_meta={"pipeline": method, **extra_meta},
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
            # Ship the resolved engine by value: under spawn/forkserver
            # start methods the workers re-import the registry fresh, which
            # only holds the built-ins.
            _, engine = self._resolve_sampler()
            with ProcessPoolExecutor(
                max_workers=min(execution.workers, len(shards)),
                initializer=_init_ensemble_worker,
                initargs=(self.G, self.config, self._hopset, self._oracle, engine),
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

    def _record_samples(self, k: int, t0: float) -> None:
        self.stats["samples"] += k
        self.timings["samples"] = self.timings.get("samples", 0.0) + (
            time.perf_counter() - t0
        )

    # -- problem solving ------------------------------------------------------

    def solve(
        self,
        problem,
        *,
        engine: str | None = None,
        h: int | None = None,
        max_iterations: int | None = None,
        ledger: CostLedger = NULL_LEDGER,
    ) -> SolveResult:
        """Run an MBF-like problem (:mod:`repro.api.problems`) on this graph.

        The zoo-wide counterpart of :meth:`sample`: one call per problem,
        engine selected by capability (``engine=None``/``"auto"`` prefers
        the vectorized path; ``"reference"``/``"dense"``/... pin one), with
        the same ledger/timings treatment as sampling — wall-clock lands in
        ``timings["solves"]``, model costs in ``ledger`` (the vectorized
        engines charge it; the ``"reference"`` engine predates the cost
        model and charges nothing), and the call count in
        ``stats["solves"]``.

        >>> res = pipe.solve(problems.sssp(pipe.G.n, source=0))
        >>> res.value            # decoded answer (here: distance vector)
        >>> res.iterations       # MBF iterations to the fixpoint

        ``h`` runs exactly ``h`` iterations (h-hop semantics) instead of
        iterating to the fixpoint; ``max_iterations`` caps the fixpoint
        search (and only that — an explicit ``h`` takes precedence, as in
        :func:`~repro.mbf.dense.run_dense`).  Returns a
        :class:`~repro.api.result.SolveResult`.
        """
        eng = resolve_engine(problem, engine)
        t0 = time.perf_counter()
        value, iterations = invoke_solve(
            eng, self.G, problem, h=h, max_iterations=max_iterations, ledger=ledger
        )
        self.stats["solves"] += 1
        self.timings["solves"] = self.timings.get("solves", 0.0) + (
            time.perf_counter() - t0
        )
        return SolveResult(
            value=value,
            iterations=int(iterations),
            problem=problem.name,
            family=problem.family,
            engine=eng.name,
        )

    # -- applications ---------------------------------------------------------

    def solve_app(self, app: str, **kwargs):
        """Run a Section 9-10 application on this pipeline's graph.

        The application-level counterpart of :meth:`solve`: one call per
        problem instance, routed through the forest-backed batch path
        (``sample_ensemble`` + the vectorized DP/routing kernels of
        :mod:`repro.apps.batched`), with wall-clock recorded in
        ``timings["apps"]`` and the call count in ``stats["apps"]``.

        >>> res = pipe.solve_app("kmedian", k=4, trees=8)
        >>> res.facilities, res.cost
        >>> res = pipe.solve_app("buy-at-bulk", demands=dms, cables=cbl, trees=4)
        >>> res.graph_cost

        ``"kmedian"`` forwards to :func:`~repro.apps.kmedian.kmedian` with
        this pipeline's generator (and, under the ``"oracle"`` embedding
        method, the cached Section-5 oracle for the candidate-sampling
        distance queries — the paper's mechanism).  ``"buy-at-bulk"``
        forwards to :func:`~repro.apps.buyatbulk.buy_at_bulk` with this
        pipeline injected, so the ensemble is sampled under the configured
        method/backend and artifacts stay amortized across calls.
        """
        # Local imports: the application modules import Pipeline themselves.
        from repro.apps.buyatbulk import buy_at_bulk as _buy_at_bulk
        from repro.apps.kmedian import kmedian as _kmedian

        t0 = time.perf_counter()
        if app == "kmedian":
            if "oracle" not in kwargs and self.config.embedding.method == "oracle":
                kwargs["oracle"] = self.oracle()
            kwargs.setdefault("rng", self._rng)
            result = _kmedian(self.G, **kwargs)
        elif app in ("buy-at-bulk", "buyatbulk"):
            for key in ("pipeline", "embedding", "rng"):
                if key in kwargs:
                    raise ValueError(
                        f"solve_app('buy-at-bulk') routes through this "
                        f"pipeline's sampler; {key!r} cannot be overridden — "
                        "call repro.apps.buyatbulk.buy_at_bulk directly instead"
                    )
            result = _buy_at_bulk(self.G, pipeline=self, **kwargs)
        else:
            raise ValueError(
                f"unknown application {app!r}; available: 'kmedian', 'buy-at-bulk'"
            )
        self.stats["apps"] += 1
        self.timings["apps"] = self.timings.get("apps", 0.0) + (
            time.perf_counter() - t0
        )
        return result

    # -- distance queries -----------------------------------------------------

    def embed_metric(self, *, ledger: CostLedger = NULL_LEDGER) -> MetricResult:
        """Theorem 6.1 through the cached oracle: an approximate *metric*.

        Reuses the pipeline's hop set / oracle (one build serves trees and
        metric queries alike); the result is cached.  Passing an explicit
        ``ledger`` always runs (and charges) the computation — a cached
        matrix must not silently report zero cost.
        """
        if self._metric is None or ledger is not NULL_LEDGER:
            oracle = self.oracle()
            t0 = time.perf_counter()
            self._metric = metric_from_oracle(
                oracle, eps=self.config.hopset.eps, ledger=ledger
            )
            self.stats["metric_builds"] += 1
            self.timings["metric"] = self.timings.get("metric", 0.0) + (
                time.perf_counter() - t0
            )
        return self._metric

    def distance_oracle(self) -> DistanceOracle:
        """Constant-time approximate distance queries on this graph."""
        return DistanceOracle(self.embed_metric())

    # -- artifacts (offline half of the build/serve split) --------------------

    def save_artifacts(
        self,
        path,
        k: int,
        *,
        seed: int | None = None,
        execution: ExecutionConfig | None = None,
    ) -> dict:
        """Offline build step: sample a ``k``-ensemble and persist it.

        One call produces the artifact file the online side preloads
        (``repro.serve.load_server`` or :meth:`from_artifacts`): samples an
        ensemble (the stacked forest *is* the storage format), stamps the
        provenance fingerprint, and writes a ``"result"`` artifact via
        :func:`repro.io.save_result`.  An ``execution`` config with
        ``workers > 1`` shards the build across a process pool — the
        persisted arrays are bit-identical either way.  Returns the
        written artifact meta.
        """
        return self.sample_ensemble(k, seed=seed, execution=execution).save(path)

    @staticmethod
    def from_artifacts(
        path, *, mmap: bool = False
    ) -> PipelineResult:  # shape: -> object view
        """Rehydrate a persisted ensemble — no graph, no rebuild.

        The loaded :class:`~repro.api.result.PipelineResult` carries the
        stacked forest, LE lists and ranks, ledger totals, timings, and
        the stamped provenance; queries are bit-identical to the result
        that was saved.  ``mmap=True`` maps the stacked arrays read-only
        from the file.
        """
        from repro.io.artifacts import load_result

        return load_result(path, mmap=mmap)

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
                "backend": self.config.embedding.backend,
                "k": extra.get("k"),
                "seed": extra.get("seed"),
            }
        )
        meta: dict = {
            "config": self.config.to_dict(),
            "n": self.G.n,
            "m": self.G.m,
            "method": self.config.embedding.method,
            "backend": self.config.embedding.backend,
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


def _as_int(name: str, value) -> int:
    """``operator.index(value)``, rejecting ``bool``: one fingerprint per
    integer value, and a bad value fails before any work runs."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got a bool")
    return operator.index(value)


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


def _init_ensemble_worker(graph, config, hopset, oracle, engine) -> None:
    """Pool initializer: rebuild the shared pipeline once per worker."""
    from repro.api.registry import register_engine

    global _WORKER_PIPELINE
    if engine is not None:
        # The worker's registry may hold only the built-ins (spawn /
        # forkserver) or a stale entry under the same name — the shipped
        # engine is authoritative.
        register_engine(engine, overwrite=True)
    _WORKER_PIPELINE = Pipeline(graph, config, hopset=hopset, oracle=oracle)


def _ensemble_shard_worker(children: list[np.random.Generator]) -> PipelineResult:
    """Process-pool body: one batched-engine pass over a shard of samples.

    The shard's child generators were spawned by the parent before the
    fan-out, so the draws here are bit-identical to the in-process pass
    over the same slice regardless of how ``k`` was sharded.
    """
    assert _WORKER_PIPELINE is not None, "pool initializer did not run"
    return _WORKER_PIPELINE._sample_batch_core(children)
