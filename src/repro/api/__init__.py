"""repro.api — the unified pipeline facade.

The paper's central contribution is a *pipeline*: hop set → simulated graph
``H`` → MBF-like oracle → LE lists → FRT tree → applications.  This package
is the canonical way to drive it, with one spelling per operation:

- :class:`~repro.api.pipeline.Pipeline` — builds and samples, nothing
  else: it lazily builds and caches the stage artifacts (``hopset()``,
  ``oracle()``) and exposes ``sample()``, ``sample_ensemble(k)`` (all
  ``k`` samples in one fused batched pass, with per-sample child RNGs and
  optional process-pool sharding of the sample axis) and
  ``embed_metric()`` (Theorem 6.1's approximate metric, a
  :class:`MetricResult`); it is the one place that builds the hop set →
  oracle chain;
- :mod:`~repro.api.configs` — frozen, validated stage configs
  (:class:`HopsetConfig`, :class:`OracleConfig`, :class:`EmbeddingConfig`,
  :class:`ExecutionConfig`, :class:`PipelineConfig`) with
  ``to_dict``/``from_dict`` round-tripping;
- :mod:`~repro.api.problems` — the Section-3 algorithm zoo as
  :class:`MBFProblem` values, every family runnable via
  ``solve(G, problem) -> (value, iterations)`` on the ``"dense"`` engine
  (when the problem has a dense form; :func:`pick_engine` says which) or
  the ``"reference"`` engine;
- :mod:`~repro.api.result` — :class:`PipelineResult`, the one ensemble
  value (stacked forest, LE lists and ranks + cost ledgers + stage timings
  + provenance, with per-sample :class:`EmbeddingResult` views), saved by
  :func:`save_result` and read back by :func:`load_result`;
- the Section 9-10 applications are the free functions :func:`kmedian`
  and :func:`buy_at_bulk`.

Convenience re-exports make the facade self-sufficient for scripts and
benchmarks: graph construction/generators, ground-truth distances, stretch
evaluation, the cost ledger, and (lazily, to avoid import cycles) the
Section 9-10 applications.

Quickstart::

    from repro.api import Pipeline, PipelineConfig, generators

    g = generators.cycle(64, rng=7)
    pipe = Pipeline(g, PipelineConfig(seed=0))
    result = pipe.sample_ensemble(k=8)       # one hopset/oracle build
    best, cost = result.best_tree_for(my_objective)
    d_min = result.forest.distance_upper_bounds([0], [32])
    dist = pipe.embed_metric().query(0, 32)

See ``API.md`` at the repository root for the full guide and the
old-call → new-call migration table.
"""

from importlib import import_module

from repro.api.configs import (
    EMBEDDING_METHODS,
    HOPSET_KINDS,
    EmbeddingConfig,
    ExecutionConfig,
    HopsetConfig,
    OracleConfig,
    PipelineConfig,
)
from repro.api.pipeline import Pipeline, ShardWorkerError
from repro.api.result import PipelineResult

# The Section-3 algorithm zoo, re-exported as the problem catalogue.
from repro.api import problems
from repro.mbf.problem import FAMILIES, MBFProblem, pick_engine, solve

# Convenience re-exports: enough surface that examples and benchmarks can
# drive the whole pipeline importing only from repro.api.
from repro.frt.embedding import EmbeddingResult
from repro.frt.forest import FRTForest, build_frt_forest
from repro.frt.lelists import max_list_length
from repro.frt.stretch import StretchReport, evaluate_stretch
from repro.graph import generators
from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter
from repro.hopsets.base import HopSetResult
from repro.metric.approx_metric import MetricResult
from repro.oracle.oracle import HOracle
from repro.pram.cost import CostLedger
from repro.util.pairs import all_pairs, sample_distinct
from repro.util.rng import as_rng, spawn_rngs, split_seed

__all__ = [
    # facade
    "Pipeline",
    "PipelineConfig",
    "HopsetConfig",
    "OracleConfig",
    "EmbeddingConfig",
    "ExecutionConfig",
    "ShardWorkerError",
    "HOPSET_KINDS",
    "EMBEDDING_METHODS",
    "PipelineResult",
    # problems and their two engines
    "problems",
    "MBFProblem",
    "FAMILIES",
    "pick_engine",
    "solve",
    # re-exported building blocks
    "Graph",
    "generators",
    "dijkstra_distances",
    "shortest_path_diameter",
    "CostLedger",
    "as_rng",
    "spawn_rngs",
    "split_seed",
    "all_pairs",
    "sample_distinct",
    "EmbeddingResult",
    "FRTForest",
    "build_frt_forest",
    "StretchReport",
    "evaluate_stretch",
    "max_list_length",
    "HopSetResult",
    "MetricResult",
    "HOracle",
    # artifacts + serving (the offline-build / online-serve split)
    "ArtifactError",
    "content_fingerprint",
    "save_forest",
    "load_forest",
    "save_result",
    "load_result",
    "read_artifact_meta",
    "ForestServer",
    "ServeRequest",
    "load_server",
    # lazy application re-exports (resolved on first access)
    "kmedian",
    "kmedian_cost",
    "kmedian_greedy",
    "kmedian_random",
    "KMedianResult",
    "hst_kmedian_dp_forest",
    "buy_at_bulk",
    "CableType",
    "Demand",
    "BuyAtBulkResult",
    "route_demands_on_forest",
    "cable_costs_array",
    "forest_tree_costs",
]

# The applications import Pipeline themselves, so eager imports here would
# cycle; PEP 562 lazy attributes break the loop while keeping
# ``from repro.api import kmedian`` working.
_LAZY_EXPORTS = {
    # Artifact I/O and serving stay lazy for the same reason: repro.io
    # reaches back into repro.api.result when rehydrating ensembles.
    "ArtifactError": "repro.io.artifacts",
    "content_fingerprint": "repro.io.artifacts",
    "save_forest": "repro.io.artifacts",
    "load_forest": "repro.io.artifacts",
    "save_result": "repro.io.artifacts",
    "load_result": "repro.io.artifacts",
    "read_artifact_meta": "repro.io.artifacts",
    "ForestServer": "repro.serve.server",
    "ServeRequest": "repro.serve.server",
    "load_server": "repro.serve.server",
    "kmedian": "repro.apps.kmedian",
    "kmedian_cost": "repro.apps.kmedian",
    "kmedian_greedy": "repro.apps.kmedian",
    "kmedian_random": "repro.apps.kmedian",
    "KMedianResult": "repro.apps.kmedian",
    "hst_kmedian_dp_forest": "repro.apps.batched",
    "buy_at_bulk": "repro.apps.buyatbulk",
    "CableType": "repro.apps.buyatbulk",
    "Demand": "repro.apps.buyatbulk",
    "BuyAtBulkResult": "repro.apps.buyatbulk",
    "route_demands_on_forest": "repro.apps.batched",
    "cable_costs_array": "repro.apps.batched",
    "forest_tree_costs": "repro.apps.batched",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        value = getattr(import_module(_LAZY_EXPORTS[name]), name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
