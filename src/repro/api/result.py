"""The ensemble value returned by the :mod:`repro.api` facade.

:class:`PipelineResult` is the one ensemble value: the stacked forest,
LE lists and ranks of a batch of samples, per-sample and merged
work/depth ledgers, wall-clock stage timings, and full provenance
``meta`` (config dict, seeds, method, hop-set and oracle diagnostics,
build counters).  Its per-sample
:class:`~repro.frt.embedding.EmbeddingResult` views are built on demand.
:func:`repro.io.save_result` persists it and :func:`repro.io.load_result`
reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from repro.frt.embedding import EmbeddingResult
from repro.frt.forest import FRTForest
from repro.mbf.dense import BatchedFlatStates
from repro.pram.cost import CostLedger

__all__ = ["PipelineResult"]


@dataclass
class PipelineResult:
    """One batch of FRT samples, stored as the stacked arrays the engine made.

    The ensemble value of the repetition trick: every consumer — shard
    concat, artifact save/load, serving, the applications — works with
    this one shape.  Sample ``s`` is row ``s`` of every stacked field.

    Attributes
    ----------
    forest:
        The stacked :class:`~repro.frt.forest.FRTForest` of all ``k``
        trees; distance queries run on it (``result.forest.distances``),
        and ``result.forest.tree(s)`` is sample ``s`` as a ``k = 1`` forest.
    le_lists:
        All samples' LE lists as one
        :class:`~repro.mbf.dense.BatchedFlatStates`.
    ranks:
        ``(k, n)`` int64 matrix of the random orders (row ``s`` is sample
        ``s``'s; the betas live in ``forest.betas``).
    iterations:
        Per-sample (outer) MBF-iteration counts until the LE fixpoint.
    ledgers:
        Per-sample model-cost ledgers.
    ledger:
        Merged cost ledger: samples are independent, so their ledgers join
        as parallel branches (sum of work, max of depth).  Defaults to that
        join of :attr:`ledgers`.
    timings:
        Wall-clock seconds per pipeline stage spent *during this batch*
        (``hopset``/``oracle`` appear only when the batch built them,
        ``samples``, ``total``); measured, not modeled — the modeled costs
        live in the ledgers.
    meta:
        Full provenance: config dict, seed, method, graph size,
        hop-set and oracle diagnostics, and the pipeline's *lifetime*
        build counters (``hopset_builds <= 1`` verifies the batch reused
        one artifact set).
    embedding_meta:
        The per-sample provenance every :attr:`embeddings` view carries
        (sampling method and, for ``"oracle"``, the oracle's parameters).
    """

    forest: FRTForest
    le_lists: BatchedFlatStates
    ranks: np.ndarray  # (k, n) int64
    iterations: list[int]
    ledgers: list[CostLedger]
    ledger: CostLedger | None = None
    timings: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    embedding_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        k, n = self.forest.size, self.forest.n
        if (
            (self.le_lists.k, self.le_lists.n) != (k, n)
            or np.shape(self.ranks) != (k, n)
            or len(self.iterations) != k
        ):
            raise ValueError(
                f"LE lists ({self.le_lists.k} samples over n={self.le_lists.n}), "
                f"ranks {np.shape(self.ranks)} and {len(self.iterations)} "
                f"iteration counts do not match the forest ({k} samples over n={n})"
            )
        self.iterations = [int(i) for i in self.iterations]
        if self.ledger is None:
            self.ledger = CostLedger()
            self.ledger.join(*self.ledgers)

    def __len__(self) -> int:
        return self.forest.size

    def __iter__(self) -> Iterator[EmbeddingResult]:
        return iter(self.embeddings)

    @property
    def size(self) -> int:
        return self.forest.size

    @cached_property
    def embeddings(self) -> list[EmbeddingResult]:
        """The ``k = 1`` :class:`~repro.frt.embedding.EmbeddingResult` view
        of every sample, in sample order; built once, on first access."""
        return [self._view(s) for s in range(self.size)]

    def best_tree_for(
        self, objective: Callable[[FRTForest], float]
    ) -> tuple[EmbeddingResult, float]:
        """Return the ``(embedding, value)`` minimizing ``objective``.

        ``objective`` scores one tree, a ``k = 1``
        :class:`~repro.frt.forest.FRTForest` (``forest.tree(s)``), in
        sample order; the first minimum wins a tie.  Only the winning
        sample's :class:`~repro.frt.embedding.EmbeddingResult` is built.

        This is the log(1/eps)-repetitions pattern: for a linear objective,
        the best of ``k`` trees is an ``O(log n)``-approximation with
        probability ``1 - 2^{-Ω(k)}``.
        """
        best, best_val = 0, None
        for s, tree in enumerate(self.forest.trees()):
            val = float(objective(tree))
            if best_val is None or val < best_val:
                best, best_val = s, val
        return self._view(best), best_val

    def _view(self, s: int) -> EmbeddingResult:
        """Sample ``s``: a read-only tree view, a rank row view, its LE lists
        copied out as a ``k = 1`` batch, and a copy of the meta."""
        return EmbeddingResult(
            tree=self.forest.tree(s),
            rank=self.ranks[s],
            beta=float(self.forest.betas[s]),
            le_lists=self.le_lists.sample_states(s),
            iterations=int(self.iterations[s]),
            meta=dict(self.embedding_meta),
        )

    @property
    def fingerprint(self) -> str | None:
        """Stable content identity (hash of configs + seeds) stamped by
        the pipeline — the cache/artifact key that does not depend on
        object identity.  ``None`` for results built outside the facade."""
        return self.meta.get("fingerprint")
