"""Per-sample views of a stacked FRT ensemble (the repetition trick).

The introduction samples ``log(1/eps)`` trees and keeps the best; the
batched engine produces them as one stacked value — an
:class:`~repro.frt.forest.FRTForest`, one
:class:`~repro.mbf.dense.BatchedFlatStates` of LE lists and a ``(k, n)``
rank matrix, carried by :class:`repro.api.PipelineResult`.
:func:`sample_view` cuts sample ``s`` out of it as a ``k = 1``
:class:`~repro.frt.embedding.EmbeddingResult` view.
"""

from __future__ import annotations

import numpy as np

from repro.frt.embedding import EmbeddingResult
from repro.frt.forest import FRTForest
from repro.mbf.dense import BatchedFlatStates

__all__ = ["sample_view"]


def sample_view(
    forest: FRTForest,
    le_lists: BatchedFlatStates,  # shape: csr(k*n) frozen
    ranks: np.ndarray,  # shape: (k, n) int64 frozen
    iterations: list[int],
    meta: dict,
    s: int,
) -> EmbeddingResult:
    """Sample ``s`` as an :class:`~repro.frt.embedding.EmbeddingResult`:
    the tree is a read-only view into ``forest``, the rank a row view, the
    LE lists a ``k = 1`` batch copied out of ``le_lists``, ``meta`` a
    copy."""
    return EmbeddingResult(
        tree=forest.tree(s),
        rank=ranks[s],
        beta=float(forest.betas[s]),
        le_lists=le_lists.sample_states(s),
        iterations=int(iterations[s]),
        meta=dict(meta),
    )
