"""Least-Element list computation (Definition 7.3, Sections 7.2-7.3).

The LE list of ``v`` w.r.t. a random vertex order is obtained from
``{(dist(v,w), w) : w ∈ V}`` by deleting every pair dominated by a
smaller-ordered, no-farther vertex.  Computing all LE lists is an MBF-like
algorithm over the distance-map semimodule with the
:class:`~repro.mbf.dense.BatchedLEFilter` projection; Lemma 7.6 bounds every
(intermediate) list length by ``O(log n)`` w.h.p.

Two drivers, each computing the LE lists of ``k`` independent random
orders in one vectorized pass (one order is the ``k = 1`` case):

- :func:`compute_le_lists_batch` — iterate on ``G`` itself until fixpoint
  (``SPD(G)`` iterations; Khan et al. [26]),
- :func:`compute_le_lists_batch_via_oracle` — iterate on the simulated
  graph ``H`` through the :class:`~repro.oracle.HOracle` (``O(log² n)``
  iterations w.h.p.; the paper's Theorem 7.9 engine).

Each sample's lists, iteration count and optional ledger charges do not
depend on the rest of the batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.core import Graph
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    check_rank,
    run_dense_batched,
)
from repro.oracle.oracle import HOracle
from repro.pram.cost import CostLedger

__all__ = [
    "compute_le_lists_batch",
    "compute_le_lists_batch_via_oracle",
    "max_list_length",
]


def compute_le_lists_batch(
    G: Graph,
    ranks: np.ndarray,
    *,
    h: int | None = None,
    max_iterations: int | None = None,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """LE lists of ``G`` for ``k`` random orders in one batched pass.

    ``ranks`` is a ``(k, n)`` matrix of permutations; ``ledgers``, when
    given, holds one :class:`~repro.pram.cost.CostLedger` per sample.
    Returns ``(lists, iterations)`` with per-sample iteration counts; with
    ``h=None`` each sample iterates until its fixpoint, which is reached
    after ``SPD(G)`` iterations.
    """
    ranks = check_rank(G.n, ranks)
    return run_dense_batched(
        G,
        BatchedLEFilter(ranks),
        ranks.shape[0],
        h=h,
        max_iterations=max_iterations,
        ledgers=ledgers,
    )


def compute_le_lists_batch_via_oracle(
    oracle: HOracle,
    ranks: np.ndarray,
    *,
    h: int | None = None,
    max_iterations: int | None = None,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """LE lists of the simulated graph ``H`` for ``k`` orders in one pass.

    The returned lists are exactly the LE lists of ``H`` (Lemma 5.1 /
    Theorem 5.2); each sample's fixpoint arrives within
    ``SPD(H) + 1 ∈ O(log² n)`` ``H``-iterations w.h.p. (Theorem 4.5).
    """
    ranks = check_rank(oracle.n, ranks)
    return oracle.run_batch(
        BatchedLEFilter(ranks),
        ranks.shape[0],
        h=h,
        max_iterations=max_iterations,
        ledgers=ledgers,
    )


def max_list_length(lists: BatchedFlatStates) -> int:
    """``max_v |LE(v)|`` over every sample — the Lemma 7.6 quantity."""
    return int(lists.counts().max()) if lists.n else 0
