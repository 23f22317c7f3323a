"""The Khan et al. [26] distributed LE-list algorithm (Section 8.1).

Each iteration every node sends its current LE list to all neighbours (one
index-distance pair per edge per round) and recomputes its list from the
received ones; the fixpoint arrives after ``SPD(G) + 1`` iterations.  With
Lemma 7.6's ``O(log n)`` list bound, the total is ``O(SPD(G)·log n)``
rounds w.h.p.

The computation itself reuses the dense engine's incremental LE kernel
(the ``k = 1`` view of the batched ensemble kernel, so it computes
*identical* lists); the Congest cost is charged per iteration as the
maximum list length — the time for the slowest node to transmit its list.
"""

from __future__ import annotations

import numpy as np

from repro.congest.model import RoundLedger
from repro.graph.core import Graph
from repro.mbf.dense import BatchedLEFilter, FlatStates, aggregate, check_rank, dense_iteration

__all__ = ["khan_le_lists"]


def khan_le_lists(
    G: Graph,
    rank: np.ndarray,
    *,
    ledger: RoundLedger | None = None,
) -> tuple[FlatStates, int, RoundLedger]:
    """Run Khan et al.; returns ``(le_lists, iterations, round_ledger)``.

    The returned lists equal
    :func:`repro.frt.lelists.compute_le_lists_batch` with ``rank[None, :]``
    exactly; the ledger reports the simulated Congest rounds
    (``Σ_i max_v |x_v^{(i)}|``, the per-iteration transmission time).
    """
    rank = check_rank(G.n, rank)
    ledger = ledger if ledger is not None else RoundLedger()
    spec = BatchedLEFilter(rank[None, :])
    states = FlatStates.from_sources(G.n)
    states = aggregate(
        G.n,
        np.repeat(np.arange(G.n, dtype=np.int64), states.counts()),
        states.ids,
        states.dists,
        spec,
    )
    iterations = 0
    for _ in range(G.n + 1):
        # Every node transmits its current list to all neighbours.
        ledger.local_exchange(int(states.counts().max()), label="khan-iteration")
        nxt = dense_iteration(G, states, spec)
        iterations += 1
        if nxt.equals(states):
            return states, iterations, ledger
        states = nxt
    raise RuntimeError("LE lists did not reach a fixpoint within n+1 iterations")
