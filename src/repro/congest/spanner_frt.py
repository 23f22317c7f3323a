"""The spanner-based distributed FRT construction (Section 8.2, [22]).

The predecessor of the Section-8.3 algorithm: instead of a hop set +
simulated graph on the skeleton, build a Baswana–Sen ``(2k-1)``-spanner of
the skeleton graph and *broadcast it entirely* (it is small:
``O~(|S|^{1+1/k})`` edges), after which every node locally knows the
skeleton metric up to stretch ``2k-1`` and computes the skeleton LE lists
for free.  Rounds:

1. setup (BFS + ID threshold): ``O~(D(G))``;
2. skeleton graph via ``ℓ``-hop distances: ``O~(ℓ + |S|)``;
3. spanner construction + broadcast: ``|E'_S| + D(G)`` (its round cost is
   dominated by shipping the edges over the BFS tree — the ``n^{ε}``
   factor the paper's Section 8.3 removes);
4. jump-started local phase: exactly ``ℓ`` LE iterations on ``G`` with
   weights scaled by ``2k-1`` (Equation 8.9/8.10).

Expected stretch ``O(k·log n)`` — a factor ``k`` worse than Theorem 8.1,
in exchange for a simpler global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.congest.model import RoundLedger
from repro.congest.skeleton import jump_started_tree
from repro.frt.forest import FRTForest
from repro.graph.core import Graph
from repro.graph.shortest_paths import (
    dijkstra_distances,
    hop_diameter,
    hop_limited_distances,
)
from repro.mbf.dense import BatchedFlatStates
from repro.metric.spanner import baswana_sen_spanner
from repro.util.pairs import all_pairs, sample_distinct
from repro.util.rng import as_rng

__all__ = ["SpannerFRTResult", "spanner_frt"]


@dataclass
class SpannerFRTResult:
    """Output of the Section-8.2 spanner-based construction.

    ``tree`` is the sampled tree as a ``k = 1``
    :class:`~repro.frt.forest.FRTForest`.
    """

    tree: FRTForest
    rank: np.ndarray
    beta: float
    le_lists: BatchedFlatStates
    ledger: RoundLedger
    meta: dict = field(default_factory=dict)


def spanner_frt(
    G: Graph,
    *,
    k: int = 2,
    c: float = 1.0,
    ell: int | None = None,
    rng=None,
    beta: float | None = None,
) -> SpannerFRTResult:
    """Run the Section-8.2 algorithm; returns tree + round ledger."""
    if not G.is_connected():
        raise ValueError("spanner FRT requires a connected graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    g = as_rng(rng)
    n = G.n
    ledger = RoundLedger()
    D = hop_diameter(G)
    log_n = max(math.log2(n), 1.0)

    # -- step 1: setup -------------------------------------------------------
    ledger.bfs(D, label="bfs-setup")
    ledger.charge(int(math.ceil(log_n)) * max(D, 1), label="id-threshold-search")
    if ell is None:
        ell = int(math.ceil(math.sqrt(n)))
    target = int(min(n, max(2, math.ceil(c * math.sqrt(n) * log_n))))
    skeleton = np.sort(sample_distinct(n, target, g)).astype(np.int64)

    # -- step 2: skeleton graph ----------------------------------------------
    Dl = hop_limited_distances(G, ell, skeleton)
    ledger.charge(int(ell + target), label="partial-distance-estimation")
    sub = Dl[:, skeleton]
    iu, ju = all_pairs(target)
    finite = np.isfinite(sub[iu, ju])
    GS = Graph(
        target,
        np.stack([iu[finite], ju[finite]], axis=1),
        sub[iu, ju][finite],
        validate=False,
    )
    if not GS.is_connected():
        raise ValueError("skeleton graph disconnected — increase ell or c")

    # -- step 3: spanner + broadcast ------------------------------------------
    spanner = baswana_sen_spanner(GS, k, rng=g)
    # Constructing the spanner distributedly costs O~(ℓ) rounds on the
    # skeleton overlay [29]; shipping all its edges over the BFS tree
    # dominates and is the explicitly charged quantity in [22].
    ledger.charge(int(math.ceil(log_n)) * max(int(ell), 1), label="spanner-construction")
    ledger.broadcast(spanner.m, D, label="spanner-broadcast")
    # Every node now knows the spanner and computes the skeleton LE lists
    # locally (no communication).
    alpha = float(2 * k - 1)
    DS = dijkstra_distances(spanner)  # (2k-1)-approximate skeleton metric
    rank_s = g.permutation(target).astype(np.int64)
    dicts: list[dict] = [{v: 0.0} for v in range(n)]
    for i, s in enumerate(skeleton):
        entry: dict[int, float] = {}
        # staircase over skeleton nodes by (distance, rank)
        drow = DS[i]
        srt = np.lexsort((rank_s, drow))
        best_rank = None
        for j in srt:
            if not np.isfinite(drow[j]):
                continue
            if best_rank is None or rank_s[j] < best_rank:
                entry[int(skeleton[j])] = float(drow[j])
                best_rank = rank_s[j]
        dicts[int(s)] = entry

    # -- ranks: skeleton first ------------------------------------------------
    rank = np.empty(n, dtype=np.int64)
    rank[skeleton] = rank_s
    others = np.setdiff1d(np.arange(n, dtype=np.int64), skeleton)
    rank[others] = target + g.permutation(others.size)

    # -- step 4: exactly ell iterations on G with (2k-1)-scaled weights -------
    tree, b, cur, extra_iterations = jump_started_tree(
        G, BatchedFlatStates.from_dicts(dicts), rank, alpha, ell, ledger, rng=g, beta=beta
    )
    return SpannerFRTResult(
        tree=tree,
        rank=rank,
        beta=b,
        le_lists=cur,
        ledger=ledger,
        meta={
            "skeleton_size": target,
            "ell": int(ell),
            "spanner_k": k,
            "spanner_edges": spanner.m,
            "alpha": alpha,
            "hop_diameter": D,
            "local_iterations": int(ell),
            "extra_iterations": extra_iterations,
        },
    )
