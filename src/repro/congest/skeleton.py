"""The skeleton-based distributed FRT construction (Sections 8.2-8.3).

Pipeline (Theorem 8.1), with round accounting per the paper's protocol:

1. **Setup** — BFS tree, random IDs, threshold search for the bottom
   ``|S| ≈ c·sqrt(n)·log n`` IDs (the skeleton ``S``): ``O~(D(G))`` rounds.
2. **Skeleton graph** — ``ℓ``-hop-limited distances among ``S`` with
   ``ℓ = ceil(sqrt(n))`` (partial distance estimation [31]):
   ``O~(ℓ + |S|)`` rounds.  W.h.p. ``dist(·,·,G_S) = dist(·,·,G)``.
3. **Simulated skeleton graph** ``H_S`` — hub hop set + levels on ``G_S``
   (our stand-in for the Henzinger et al. [25] hop set, cf. DESIGN.md §2),
   built as :meth:`repro.api.Pipeline.oracle` builds the main pipeline's
   oracle, and LE lists of ``H_S`` via that oracle; each ``H_S``-iteration
   broadcasts all skeleton lists over the BFS tree:
   ``Σ_s |x_s| + D(G)`` rounds per iteration, ``O(log² n)`` iterations.
4. **Jump-started local phase** — ``ℓ`` LE iterations on ``G`` with edge
   weights scaled by ``α`` (the ``H_S`` distortion bound), starting from
   the skeleton lists (Equation 8.20): ``max_v |x_v|`` rounds each.
5. Build the FRT tree from the resulting lists (skeleton ranks ordered
   before non-skeleton ranks, Lemma 4.9 of [22]).

Total: ``(sqrt(n) + D(G)) · polylog(n)`` rounds — against Khan et al.'s
``O(SPD(G) log n)``; the crossover sits near ``SPD ≈ sqrt(n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.api.configs import HopsetConfig, PipelineConfig
from repro.api.pipeline import Pipeline
from repro.congest.model import RoundLedger
from repro.frt.forest import FRTForest, build_frt_forest
from repro.graph.core import Graph
from repro.graph.shortest_paths import hop_diameter, hop_limited_distances
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    aggregate_batched,
    dense_iteration_batched_ex,
)
from repro.oracle import ChainHistory
from repro.util.pairs import all_pairs, sample_distinct
from repro.util.rng import as_rng

__all__ = ["SkeletonFRTResult", "jump_started_tree", "skeleton_frt"]


@dataclass
class SkeletonFRTResult:
    """Output of the skeleton-based distributed FRT construction.

    ``tree`` is the sampled tree as a ``k = 1``
    :class:`~repro.frt.forest.FRTForest`.
    """

    tree: FRTForest
    rank: np.ndarray
    beta: float
    le_lists: BatchedFlatStates
    ledger: RoundLedger
    meta: dict = field(default_factory=dict)


def skeleton_frt(
    G: Graph,
    *,
    eps: float = 0.25,
    c: float = 1.0,
    ell: int | None = None,
    rng=None,
    beta: float | None = None,
) -> SkeletonFRTResult:
    """Run the Section-8.3 skeleton algorithm; returns tree + round ledger.

    ``eps`` rounds the ``H_S`` hop set as in the pipeline's
    :class:`~repro.api.configs.HopsetConfig`, which rejects a negative
    value with a ``ValueError``.
    """
    if not G.is_connected():
        raise ValueError("skeleton FRT requires a connected graph")
    hs_config = PipelineConfig(hopset=HopsetConfig(eps=eps))
    g = as_rng(rng)
    n = G.n
    ledger = RoundLedger()
    D = hop_diameter(G)
    log_n = max(math.log2(n), 1.0)

    # -- step 1: BFS + ID threshold search --------------------------------
    ledger.bfs(D, label="bfs-setup")
    ledger.charge(int(math.ceil(log_n)) * max(D, 1), label="id-threshold-search")
    if ell is None:
        ell = int(math.ceil(math.sqrt(n)))
    target = int(min(n, max(2, math.ceil(c * math.sqrt(n) * log_n))))
    skeleton = np.sort(sample_distinct(n, target, g)).astype(np.int64)
    s_index = {int(s): i for i, s in enumerate(skeleton)}

    # -- step 2: skeleton graph via ell-hop distances -----------------------
    Dl = hop_limited_distances(G, ell, skeleton)
    ledger.charge(int(ell + target), label="partial-distance-estimation")
    sub = Dl[:, skeleton]  # (|S|, |S|)
    iu, ju = all_pairs(target)
    finite = np.isfinite(sub[iu, ju])
    GS = Graph(
        target,
        np.stack([iu[finite], ju[finite]], axis=1),
        sub[iu, ju][finite],
        validate=False,
    )
    if not GS.is_connected():
        raise ValueError(
            "skeleton graph disconnected — increase ell or the sampling c"
        )

    # -- step 3: H_S LE lists via the oracle ------------------------------
    oracle = Pipeline(GS, hs_config, rng=g).oracle()
    rank_s = g.permutation(target).astype(np.int64)
    spec_s = BatchedLEFilter(rank_s[None, :])
    # One {v: 0} entry per node is already a canonical LE state.
    states = BatchedFlatStates.from_sources(1, target)
    history = ChainHistory()  # each H_S-iteration's chains start from the last's
    hs_iterations = 0
    for _ in range(target + 1):
        ledger.broadcast(states.total, D, label="skeleton-list-broadcast")
        nxt = oracle.h_iteration_batched(states, spec_s, history=history)
        hs_iterations += 1
        if nxt.equals(states):
            states = nxt
            break
        states = nxt
    else:  # pragma: no cover - guarded by oracle fixpoint theory
        raise RuntimeError("H_S LE lists did not converge")

    # -- ranks: skeleton before everyone else (Lemma 4.9 of [22]) ----------
    rank = np.empty(n, dtype=np.int64)
    rank[skeleton] = rank_s
    others = np.setdiff1d(np.arange(n, dtype=np.int64), skeleton)
    rank[others] = target + g.permutation(others.size)

    # -- jump-started state vector x̄(0) on V -------------------------------
    dicts: list[dict] = [{v: 0.0} for v in range(n)]
    for i, s in enumerate(skeleton):
        ids, dists = states.node(i)
        entry = {int(skeleton[j]): float(dv) for j, dv in zip(ids, dists)}
        entry[int(s)] = 0.0
        dicts[int(s)] = entry
    xbar = BatchedFlatStates.from_dicts(dicts)

    # -- steps 4-5: exactly ell iterations on G with alpha-scaled weights ----
    # Equation (8.20): r^V A_{G,α}^ℓ x̄(0).  Running to a fixpoint would
    # chase exact α-scaled distances for Θ(SPD) rounds; the paper's point
    # is that ℓ iterations already produce valid LE lists of the virtual
    # graph H (w.h.p. every ℓ-hop window of a shortest path hits a
    # skeleton vertex).
    alpha = oracle.penalty_base ** (oracle.Lambda + 1)
    tree, b, cur, extra_iterations = jump_started_tree(
        G, xbar, rank, alpha, ell, ledger, rng=g, beta=beta
    )
    return SkeletonFRTResult(
        tree=tree,
        rank=rank,
        beta=b,
        le_lists=cur,
        ledger=ledger,
        meta={
            "skeleton_size": target,
            "ell": int(ell),
            "hop_diameter": D,
            "hs_iterations": hs_iterations,
            "local_iterations": int(ell),
            "extra_iterations": extra_iterations,
            "local_iterations_within_ell": extra_iterations == 0,
            "alpha": float(alpha),
            "Lambda_S": oracle.Lambda,
        },
    )


def jump_started_tree(
    G: Graph,
    xbar: BatchedFlatStates,
    rank: np.ndarray,
    alpha: float,
    ell: int,
    ledger: RoundLedger,
    *,
    rng=None,
    beta: float | None = None,
) -> tuple[FRTForest, float, BatchedFlatStates, int]:
    """The local phase of Sections 8.2 and 8.3, then the FRT tree.

    Runs exactly ``ell`` LE iterations on ``G`` with weights scaled by
    ``alpha``, from the jump-started ``k = 1`` state vector ``xbar``
    (Equations 8.9/8.10 and 8.20), charging ``max_v |x_v|`` rounds each;
    each step propagates only the entries the previous one inserted.  A
    guard for unlucky small-scale sampling tops up while some list misses
    the common root (the global min-rank vertex).  Draws ``beta`` unless
    given and builds the tree, a ``k = 1`` forest.  Returns ``(tree, beta,
    lists, extra_iterations)``.
    """
    n = G.n
    spec = BatchedLEFilter(rank[None, :])
    own = np.repeat(np.arange(n, dtype=np.int64), xbar.counts())
    cur = aggregate_batched(1, n, own, xbar.ids, xbar.dists, spec)
    fresh = None
    for _ in range(int(ell)):
        ledger.local_exchange(int(cur.counts().max()), label="local-le-iteration")
        cur, _, fresh = dense_iteration_batched_ex(
            G, cur, spec, weight_scale=alpha, fresh=fresh
        )
    extra_iterations = 0
    root_vertex = int(np.flatnonzero(rank == 0)[0])
    while extra_iterations <= n:
        last = cur.offsets[1:] - 1
        if np.all(cur.counts() > 0) and np.all(cur.ids[last] == root_vertex):
            break
        ledger.local_exchange(int(cur.counts().max()), label="local-le-topup")
        cur, _, fresh = dense_iteration_batched_ex(
            G, cur, spec, weight_scale=alpha, fresh=fresh
        )
        extra_iterations += 1
    else:  # pragma: no cover
        raise RuntimeError("local LE phase failed to reach a common root")
    b = float(as_rng(rng).uniform(1.0, 2.0)) if beta is None else float(beta)
    wmin, _ = G.weight_bounds()
    tree = build_frt_forest(cur, rank[None, :], np.array([b]), wmin)
    return tree, b, cur, extra_iterations
