"""Result types returned by the :mod:`repro.api` facade.

:class:`PipelineResult` is the unified carrier for batch (ensemble)
sampling: the sampled trees, per-sample and merged work/depth ledgers,
wall-clock stage timings, and full provenance ``meta`` (config dict, seeds,
backend, hop-set and oracle diagnostics, build counters).

:class:`DistanceOracle` wraps a computed :class:`~repro.metric.MetricResult`
as a constant-time query object — the Theorem 6.1 interface.

:class:`SolveResult` carries one :meth:`~repro.api.pipeline.Pipeline.solve`
answer: the decoded value plus iteration count and engine provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.frt.embedding import EmbeddingResult
from repro.frt.ensemble import FRTEnsemble
from repro.frt.forest import FRTForest
from repro.frt.tree import FRTTree
from repro.metric.approx_metric import MetricResult
from repro.pram.cost import CostLedger

__all__ = ["PipelineResult", "DistanceOracle", "SolveResult"]


@dataclass(frozen=True)
class SolveResult:
    """One solved MBF problem: decoded answer + run provenance.

    ``value`` is the problem's decoded output (whatever its ``decode``
    produces: distance vectors/matrices, Boolean flags, LE lists, path
    lists); ``iterations`` the number of MBF iterations performed (the
    fixpoint index, or the requested ``h``).  ``problem``/``family``/
    ``engine`` record what ran where, so results are self-describing in
    experiment logs.
    """

    value: Any
    iterations: int
    problem: str
    family: str
    engine: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolveResult({self.problem!r}, family={self.family!r}, "
            f"engine={self.engine!r}, iterations={self.iterations})"
        )


@dataclass
class PipelineResult:
    """Everything produced by one batch sampling call.

    Attributes
    ----------
    embeddings:
        The ``k`` sampled :class:`~repro.frt.embedding.EmbeddingResult`\\ s,
        in sample order (deterministic under a fixed seed).
    ledger:
        Merged cost ledger: samples are independent, so their ledgers join
        as parallel branches (sum of work, max of depth).
    ledgers:
        The per-sample ledgers the merge was built from.
    timings:
        Wall-clock seconds per pipeline stage spent *during this batch*
        (``hopset``/``oracle`` appear only when the batch built them,
        ``samples``, ``total``); measured, not modeled — the modeled costs
        live in the ledgers.
    meta:
        Full provenance: config dict, seed, method/backend, graph size,
        hop-set and oracle diagnostics, and the pipeline's *lifetime*
        build counters (``hopset_builds <= 1`` verifies the batch reused
        one artifact set).
    forest:
        The stacked :class:`~repro.frt.forest.FRTForest` view of the same
        trees; every :meth:`~repro.api.pipeline.Pipeline.sample_ensemble`
        result carries one (``None`` only for results built by hand).
        :meth:`ensemble` hands it to the
        :class:`~repro.frt.ensemble.FRTEnsemble` so distance queries run
        vectorized across all trees.
    """

    embeddings: list[EmbeddingResult]
    ledger: CostLedger
    ledgers: list[CostLedger] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    forest: FRTForest | None = None

    def __post_init__(self):
        if not self.embeddings:
            raise ValueError("PipelineResult needs at least one embedding")

    def __len__(self) -> int:
        return len(self.embeddings)

    def __iter__(self) -> Iterator[EmbeddingResult]:
        return iter(self.embeddings)

    @property
    def size(self) -> int:
        return len(self.embeddings)

    @property
    def trees(self) -> list[FRTTree]:
        """The sampled trees (conveniences for downstream consumers)."""
        return [e.tree for e in self.embeddings]

    @property
    def iterations(self) -> list[int]:
        """Per-sample (outer) MBF-iteration counts until the LE fixpoint."""
        return [e.iterations for e in self.embeddings]

    def ensemble(self) -> FRTEnsemble:
        """View the batch as an :class:`~repro.frt.ensemble.FRTEnsemble`
        (per-pair min/median distances, best-tree selection), forest-backed
        whenever :attr:`forest` is set."""
        return FRTEnsemble(list(self.embeddings), forest=self.forest)

    @property
    def fingerprint(self) -> str | None:
        """Stable content identity (hash of configs + seeds) stamped by
        the pipeline — the cache/artifact key that does not depend on
        object identity.  ``None`` for results built outside the facade."""
        return self.meta.get("fingerprint")

    def save(self, path) -> dict:
        """Persist this batched ensemble as one artifact file.

        Delegates to :func:`repro.io.save_result` (schema-versioned,
        provenance-stamped, round-trips bit-identically through
        ``Pipeline.from_artifacts`` / :func:`repro.io.load_result`).
        Requires :attr:`forest` — the stacked forest is the storage
        format.  Returns the written artifact meta.
        """
        from repro.io.artifacts import save_result

        return save_result(path, self)


@dataclass(frozen=True)
class DistanceOracle:
    """Constant-time approximate distance queries (Theorem 6.1 interface).

    Wraps a materialized approximate metric: ``query`` and ``distances``
    read the matrix, so each call is O(1) per pair.  The distances are
    exact distances of the simulated graph ``H`` — a true metric that
    dominates ``dist_G`` within :attr:`stretch_bound`.
    """

    metric: MetricResult

    @property
    def n(self) -> int:
        return self.metric.n

    @property
    def stretch_bound(self) -> float:
        """A-priori multiplicative guarantee vs ``dist_G`` (w.h.p.)."""
        return self.metric.stretch_bound

    def query(self, u: int, v: int) -> float:
        """``dist(u, v, H)`` — dominating, within the stretch bound."""
        return self.metric.query(u, v)

    def distances(self, us, vs) -> np.ndarray:
        """Vectorized pairwise queries: ``dist(us[i], vs[i], H)``."""
        us = np.atleast_1d(np.asarray(us, dtype=np.int64))
        vs = np.atleast_1d(np.asarray(vs, dtype=np.int64))
        return self.metric.matrix[us, vs]

    def matrix(self) -> np.ndarray:
        """The full ``(n, n)`` approximate distance matrix (no copy)."""
        return self.metric.matrix
