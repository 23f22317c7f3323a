"""One sampled FRT embedding (Theorem 7.9 / Corollary 7.10) and its randomness.

Every sample follows the randomness conventions of Section 7.1: a uniform
``β ∈ [1, 2)`` and a uniformly random vertex order.  Sampling itself runs
through :class:`repro.api.Pipeline`, with two methods:

- ``"direct"``: LE lists directly on ``G`` — ``SPD(G)`` iterations; exact
  FRT distribution w.r.t. ``dist(·,·,G)``;
- ``"oracle"``: the paper's main pipeline — hop set → simulated graph
  ``H`` → oracle → LE lists — polylog many iterations; FRT distribution
  w.r.t. ``dist(·,·,H)``, which ``(1+eps)^{O(log n)}``-approximates
  ``dist(·,·,G)`` (Theorem 4.5), so the expected stretch w.r.t. ``G``
  remains ``O(log n)``.

:class:`EmbeddingResult` is the ``k = 1`` view of a sampled ensemble
(``Pipeline.sample()`` returns one; ``PipelineResult.embeddings`` holds
one per sample).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frt.forest import FRTForest
from repro.mbf.dense import BatchedFlatStates
from repro.util.rng import as_rng

__all__ = ["EmbeddingResult"]


@dataclass
class EmbeddingResult:
    """A sampled tree embedding plus provenance for verification.

    ``tree`` is the sample's ``k = 1`` :class:`~repro.frt.forest.FRTForest`
    and ``le_lists`` its ``k = 1`` batch of LE lists.
    ``iterations`` counts (outer) MBF-like iterations until the LE-list
    fixpoint; for the oracle pipeline this is the ``O(log² n)`` quantity,
    for the direct pipeline it is ``SPD``-scale.
    """

    tree: FRTForest
    rank: np.ndarray
    beta: float
    le_lists: BatchedFlatStates
    iterations: int
    meta: dict = field(default_factory=dict)


def _draw_randomness(
    n: int,
    rng,
    *,
    rank: np.ndarray | None = None,
    beta: float | None = None,
) -> tuple[np.ndarray, float]:
    """Resolve the FRT randomness ``(rank, beta)``, drawing only what is
    missing.

    Explicitly supplied values are used verbatim and consume *no* random
    state — replaying a recorded ``(rank, beta)`` pair must not shift the
    caller's downstream random stream.
    """
    g = as_rng(rng)
    if rank is None:
        perm = g.permutation(n)
        r = np.empty(n, dtype=np.int64)
        r[perm] = np.arange(n)
    else:
        r = np.asarray(rank, dtype=np.int64)
    b = float(g.uniform(1.0, 2.0)) if beta is None else float(beta)
    return r, b
