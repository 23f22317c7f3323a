"""repro — reproduction of Friedrichs & Lenzen, "Parallel Metric Tree
Embedding based on an Algebraic View on Moore-Bellman-Ford" (SPAA 2016).

The recommended entry point is the unified pipeline facade in
:mod:`repro.api`: build a :class:`~repro.api.pipeline.Pipeline` from a graph
and a :class:`~repro.api.configs.PipelineConfig`, then call ``sample()``,
``sample_ensemble(k)`` or ``embed_metric()`` (Theorem 6.1's approximate
metric, a :class:`~repro.metric.MetricResult` with constant-time
``query(u, v)``) — stage artifacts (hop set, oracle) are built lazily,
cached, and amortized across samples.  ``Pipeline`` builds and samples;
MBF problems run through :func:`~repro.api.solve` on the ``"dense"`` or
the ``"reference"`` engine, ensembles are saved and loaded with
:func:`~repro.io.save_result` / :func:`~repro.io.load_result`, and the
applications are the functions of :mod:`repro.apps`.  See ``API.md`` for
the guide and the legacy-call migration table.

Top-level re-exports cover the most common entry points; see the
subpackages for the full API:

- :mod:`repro.api` — the pipeline facade, stage configs, ``solve``,
- :mod:`repro.algebra` — semirings and semimodules (Sections 2-3, App. A),
- :mod:`repro.mbf` — the MBF-like algorithm framework and the algorithm zoo,
- :mod:`repro.graph` — graphs, generators, distances, SPD,
- :mod:`repro.hopsets` — (d, eps)-hop sets,
- :mod:`repro.simulated` — the simulated graph H (Section 4),
- :mod:`repro.oracle` — the MBF-like query oracle on H (Section 5),
- :mod:`repro.metric` — approximate metrics and spanners (Section 6),
- :mod:`repro.frt` — LE lists and FRT tree embeddings (Section 7),
- :mod:`repro.congest` — distributed (Congest) algorithms (Section 8),
- :mod:`repro.apps` — k-median and buy-at-bulk (Sections 9-10),
- :mod:`repro.pram` — the work/depth cost model,
- :mod:`repro.io` — versioned, provenance-stamped artifact files,
- :mod:`repro.serve` — batched distance-oracle serving over preloaded
  forests (the offline-build / online-serve split).
"""

from repro.api.configs import (
    EmbeddingConfig,
    HopsetConfig,
    OracleConfig,
    PipelineConfig,
)
from repro.api.pipeline import Pipeline
from repro.api.result import PipelineResult
from repro.graph.core import Graph
from repro.pram.cost import CostLedger

__version__ = "1.1.0"

__all__ = [
    "Graph",
    "CostLedger",
    "Pipeline",
    "PipelineConfig",
    "HopsetConfig",
    "OracleConfig",
    "EmbeddingConfig",
    "PipelineResult",
    "__version__",
]
