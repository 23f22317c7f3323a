"""The Khan et al. [26] distributed LE-list algorithm (Section 8.1).

Each iteration every node sends its current LE list to all neighbours (one
index-distance pair per edge per round) and recomputes its list from the
received ones; the fixpoint arrives after ``SPD(G) + 1`` iterations.  With
Lemma 7.6's ``O(log n)`` list bound, the total is ``O(SPD(G)·log n)``
rounds w.h.p.

The computation itself reuses the dense engine's incremental LE kernel at
``k = 1`` (so it computes *identical* lists), stepping semi-naively: each
step propagates only the entries the previous one inserted, and the step's
``changed`` flag detects the fixpoint.  The Congest cost is charged per
iteration as the maximum list length — the time for the slowest node to
transmit its list.
"""

from __future__ import annotations

import numpy as np

from repro.congest.model import RoundLedger
from repro.graph.core import Graph
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    check_rank,
    dense_iteration_batched_ex,
)

__all__ = ["khan_le_lists"]


def khan_le_lists(
    G: Graph,
    rank: np.ndarray,
    *,
    ledger: RoundLedger | None = None,
) -> tuple[BatchedFlatStates, int, RoundLedger]:
    """Run Khan et al.; returns ``(le_lists, iterations, round_ledger)``.

    The returned ``k = 1`` lists equal
    :func:`repro.frt.lelists.compute_le_lists_batch` with ``rank[None, :]``
    exactly; the ledger reports the simulated Congest rounds
    (``Σ_i max_v |x_v^{(i)}|``, the per-iteration transmission time).
    """
    spec = BatchedLEFilter(check_rank(G.n, [rank]))
    ledger = ledger if ledger is not None else RoundLedger()
    # One {v: 0} entry per node is already a canonical LE state.
    states = BatchedFlatStates.from_sources(1, G.n)
    fresh = None
    for iterations in range(1, G.n + 2):
        # Every node transmits its current list to all neighbours.
        ledger.local_exchange(int(states.counts().max()), label="khan-iteration")
        nxt, changed, fresh = dense_iteration_batched_ex(G, states, spec, fresh=fresh)
        if not changed[0]:
            return states, iterations, ledger
        states = nxt
    raise RuntimeError("LE lists did not reach a fixpoint within n+1 iterations")
