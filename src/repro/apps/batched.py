"""Forest-backed application kernels: the whole ensemble in one pass.

The Section 9-10 applications score every tree of a sampled ensemble; one
tree is the ``k = 1`` case of the same kernels (``forest.tree(s)``).

- :func:`hst_kmedian_dp_forest` runs the Theorem 9.2 k-median DP on the
  stacked :class:`~repro.frt.forest.FRTForest` arrays for *all* samples in
  one NumPy pass: a level-synchronous bottom-up merge over
  ``np.unique``-grouped parent keys folds each parent's children into a
  ``(total_nodes, k+1)`` DP tensor with ``O(levels · max_children · k)``
  vectorized operations instead of ``O(samples · nodes · k²)`` Python
  iterations, recording each fold's argmin split in a parallel choice
  tensor.  Backtracking then visits only the ``O(k · depth)`` nodes per
  sample that actually hold facilities, each a pure integer lookup.
- :func:`route_demands_on_forest` accumulates every demand's tree path
  through all stacked trees at once via LCA-by-level arithmetic (one
  ``bincount`` over masked ancestor ids per level) instead of per-demand
  Python walks.
- :func:`cable_costs_array` / :func:`forest_tree_costs` vectorize the
  per-edge cable purchase so buy-at-bulk scores the whole ensemble and
  keeps the best tree without a Python loop over edges.

The per-tree Python loops these kernels replace are kept as executable
references in ``tests/apps_reference.py``; costs, facility ids and flows
must agree with them exactly, not merely approximately (pinned by
``tests/test_apps_batched.py``).  Each sample's answer is independent of
the rest of the batch: the kernels on ``forest.tree(s)`` return sample
``s``'s answer of the whole forest bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.frt.forest import FRTForest

__all__ = [
    "hst_kmedian_dp_forest",
    "route_demands_on_forest",
    "cable_costs_array",
    "forest_tree_costs",
]

INF = math.inf


def _subtree_weights(forest: FRTForest, leaf_weights: np.ndarray) -> np.ndarray:
    """Client weight below every forest node, ``(total_nodes,)``.

    Each vertex contributes to its ancestor at every *real* level (padded
    levels replicate the root and are masked out).  ``bincount`` sums the
    contributions in flat ``(sample, vertex, level)`` order, i.e. by
    ascending vertex per node — the same accumulation order as the per-tree
    reference's ``W[level_ids[v]] += leaf_weights[v]`` loop, so the
    per-node sums are bit-identical.
    """
    size, n = forest.size, forest.n
    gids = forest.node_offsets[:-1, None, None] + forest.level_ids
    real = np.arange(forest.k_max + 1)[None, None, :] <= forest.depths[:, None, None]
    real = np.broadcast_to(real, gids.shape)
    w = np.broadcast_to(leaf_weights[None, :, None], gids.shape)
    return np.bincount(gids[real], weights=w[real], minlength=forest.total_nodes)


def hst_kmedian_dp_forest(
    forest: FRTForest,
    leaf_weights: np.ndarray,  # shape: (n,) float64 frozen
    k: int,  # shape: scalar
    *,
    allowed: np.ndarray | None = None,  # shape: (n,) bool frozen
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Optimal k-median on every tree of ``forest`` in one vectorized DP.

    ``leaf_weights[v]`` is the client weight at vertex ``v`` (shared by all
    samples — they embed the same clients), ``allowed[v]`` marks facility
    locations.  Returns ``(costs, facilities)``: ``costs[s]`` is sample
    ``s``'s optimal tree cost (every client pays its tree distance to the
    nearest open facility) and ``facilities[s]`` its sorted facility
    vertices, bit-identical to the per-tree reference loop
    (``tests/apps_reference.py``) and to this call on ``forest.tree(s)``.

    The DP tensor ``dp[node, j]`` (``j = 0..k`` facilities inside the
    node's subtree) is filled level-synchronously bottom-up: at level ``j``
    all samples' level-``j`` children are grouped by composite parent key
    and folded child-position by child-position, each fold a vectorized
    ``(min, +)`` convolution across every parent of every sample at once.
    Children fold in ascending node-id order — the per-tree reference's
    children order — so float addition order (and therefore every bit of
    the result) matches the per-tree loop.
    """
    n = forest.n
    leaf_weights = np.asarray(leaf_weights, dtype=np.float64)
    # Written so that NaN fails it too: a NaN weight made every cost NaN.
    if leaf_weights.shape != (n,) or not np.all(
        np.isfinite(leaf_weights) & (leaf_weights >= 0)
    ):
        raise ValueError("leaf_weights must be a finite, non-negative (n,) array")
    if allowed is None:
        allowed = np.ones(n, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    if allowed.shape != (n,):
        raise ValueError("allowed must be a boolean (n,) array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not allowed.any():
        raise ValueError("no facility locations allowed")

    size = forest.size
    offsets = forest.node_offsets
    total = forest.total_nodes
    sample_of = np.repeat(np.arange(size, dtype=np.int64), np.diff(offsets))
    W = _subtree_weights(forest, leaf_weights)

    # Leaves: dp = [0, 0, inf, ...] when the vertex may host a facility,
    # [0, inf, ...] otherwise (the per-tree [0.0, 0.0] / [0.0] arrays,
    # INF-padded to fixed width — padding never wins a min).
    leaf_gid = offsets[:-1, None] + forest.level_ids[:, :, 0]  # (size, n)
    dp = np.full((total, k + 1), INF)
    dp[leaf_gid.ravel(), 0] = 0.0
    dp[leaf_gid[:, allowed].ravel(), 1] = 0.0

    # Level-synchronous bottom-up merge.  Nodes are stored per sample in
    # creation (root-down) order, so within a level the flat node ids
    # ascend exactly like the per-tree children order.
    # ``choice[child, j]`` records the fold's argmin split — how many of
    # the ``j`` facilities went to the already-merged left siblings when
    # ``child`` was folded in — making backtracking pure array lookups.
    # ``np.argmin``'s first-occurrence tie-break over ascending ``j1`` is
    # exactly the per-tree loop's "first strictly smaller candidate wins".
    choice = np.zeros((total, k + 1), dtype=np.int64)
    parent_flat = forest.parent
    level_flat = forest.node_level
    for lvl in range(forest.k_max):
        ch = np.flatnonzero((level_flat == lvl) & (parent_flat >= 0))
        if ch.size == 0:
            continue
        s_ch = sample_of[ch]
        par = offsets[s_ch] + parent_flat[ch]  # global ids, non-decreasing
        cost = dp[ch]  # fancy indexing copies
        cost[:, 0] += 2.0 * forest.edge_weights[s_ch, lvl] * W[ch]
        uniq_par, counts = np.unique(par, return_counts=True)
        starts = np.concatenate([[0], np.cumsum(counts[:-1])])
        pos = np.arange(par.size) - np.repeat(starts, counts)
        acc = np.full((uniq_par.size, k + 1), INF)
        acc[:, 0] = 0.0
        for c in range(int(counts.max())):
            rows = np.flatnonzero(counts > c)  # parents with a c-th child
            sel = pos == c
            a = acc[rows]
            b = cost[sel]  # aligned: both ordered by parent
            # cand[r, j1, j] = a[r, j1] + b[r, j - j1] (INF where j < j1).
            cand = np.full((rows.size, k + 1, k + 1), INF)
            for j1 in range(k + 1):
                cand[:, j1, j1:] = a[:, j1 : j1 + 1] + b[:, : k + 1 - j1]
            acc[rows] = cand.min(axis=1)
            choice[ch[sel]] = cand.argmin(axis=1)
        dp[uniq_par] = acc

    # Root answers: argmin over the INF-padded row equals the per-tree argmin
    # over the (possibly shorter) finite prefix, first-minimum tie-break
    # included.
    root_gid = offsets[:-1] + forest.level_ids[np.arange(size), 0, forest.depths]
    rdp = dp[root_gid]
    best_j = np.argmin(rdp, axis=1)
    costs = rdp[np.arange(size), best_j]

    facilities = _backtrack(forest, choice, root_gid, best_j, sample_of)
    return costs, facilities


def _backtrack(
    forest: FRTForest,
    choice: np.ndarray,
    root_gid: np.ndarray,
    best_j: np.ndarray,
    sample_of: np.ndarray,
) -> list[np.ndarray]:
    """Recover per-sample facility sets from the recorded fold choices.

    A node's ``j`` facilities split over its children by unwinding the
    fold right-to-left: the last child's ``choice[child, j]`` says how
    many went to the left siblings, the difference is the child's own
    share.  Only the ``O(k · depth)`` nodes per sample that actually hold
    facilities are visited, each a pure integer lookup — and the recorded
    choices carry the per-tree loop's tie-break, so the facility ids match
    the reference exactly.
    """
    total = forest.total_nodes
    offsets = forest.node_offsets
    # Children CSR over global ids (ascending within each parent — the
    # per-tree reference's children order).
    nonroot = np.flatnonzero(forest.parent >= 0)
    par_g = offsets[sample_of[nonroot]] + forest.parent[nonroot]
    kids = nonroot[np.argsort(par_g, kind="stable")]
    kcounts = np.bincount(par_g, minlength=total)
    kstarts = np.concatenate([[0], np.cumsum(kcounts)])
    leaf_vertex = np.full(total, -1, dtype=np.int64)
    leaf_gid = offsets[:-1, None] + forest.level_ids[:, :, 0]
    leaf_vertex[leaf_gid.ravel()] = np.tile(np.arange(forest.n), forest.size)

    out: list[np.ndarray] = []
    for s in range(forest.size):
        fac: list[int] = []
        stack: list[tuple[int, int]] = [(int(root_gid[s]), int(best_j[s]))]
        while stack:
            node, j = stack.pop()
            children = kids[kstarts[node] : kstarts[node + 1]]
            if children.size == 0:  # leaf
                if j == 1:
                    fac.append(int(leaf_vertex[node]))
                continue
            for c in children[::-1]:
                c = int(c)
                j_left = int(choice[c, j])
                if j - j_left > 0:
                    stack.append((c, j - j_left))
                j = j_left
                if j == 0:
                    break  # the remaining left siblings hold nothing
        out.append(np.array(sorted(fac), dtype=np.int64))
    return out


def route_demands_on_forest(
    forest: FRTForest,
    demands,
) -> np.ndarray:  # shape: -> (total_nodes,) float64 owned
    """Aggregate per-tree-edge flows of all samples, ``(total_nodes,)``.

    Each demand's tree path climbs from both endpoints to their LCA,
    touching the ancestors strictly below the LCA level.  All
    ``(sample, demand, side)`` contributions of one level are gathered per
    pass and summed with a ``bincount`` over global node ids — per node in
    demand order, so the flows are bit-identical to the per-tree reference
    walks (index the result by ``forest.node_offsets[s] + local_node_id``;
    nodes off every demand path hold ``0.0``).
    """
    demands = list(demands)
    if not demands:
        raise ValueError("need at least one demand")
    srcs = np.array([d.source for d in demands], dtype=np.int64)
    tgts = np.array([d.target for d in demands], dtype=np.int64)
    amounts = np.array([d.amount for d in demands], dtype=np.float64)
    if np.any((srcs < 0) | (srcs >= forest.n) | (tgts < 0) | (tgts >= forest.n)):
        raise ValueError("demand endpoint out of range")
    lca = forest.lca_levels(srcs, tgts)  # (size, D)
    # One pass per climbing level: a level-``j`` node only ever receives
    # level-``j`` contributions, so partitioning the sum by level keeps
    # every node's accumulation order (demand-major, then side) — and its
    # float bits — identical to the per-tree walks, while the transient
    # gathers stay at ``(size, D, 2)`` instead of the full
    # ``(size, D, 2, k_max)`` tensor (the same bounded-transient policy as
    # the forest's blocked pair queries).
    flows = np.zeros(forest.total_nodes)
    for j in range(forest.k_max):
        climb = j < lca  # (size, D)
        if not climb.any():
            break  # levels only get shallower than every remaining LCA
        anc = np.stack(
            [forest.level_ids[:, srcs, j], forest.level_ids[:, tgts, j]], axis=2
        )
        gids = forest.node_offsets[:-1, None, None] + anc
        mask = np.broadcast_to(climb[:, :, None], gids.shape)
        w = np.broadcast_to(amounts[None, :, None], gids.shape)
        flows += np.bincount(
            gids[mask], weights=w[mask], minlength=forest.total_nodes
        )
    return flows


def cable_costs_array(
    flows: np.ndarray,  # shape: (m,) float64 frozen
    cables,
) -> np.ndarray:  # shape: -> (m,) float64 owned
    """Vectorized :func:`~repro.apps.buyatbulk.cable_cost` over a flow array.

    ``min_i c_i · ceil(f / u_i - 1e-12)`` per entry, ``0`` where ``f <= 0``
    — elementwise equal to the scalar reference (same guard epsilon, same
    candidate set under ``min``).
    """
    cables = list(cables)
    if not cables:
        raise ValueError("need at least one cable type")
    flows = np.asarray(flows, dtype=np.float64)
    out = np.full(flows.shape, INF)
    for c in cables:
        np.minimum(out, c.cost * np.ceil(flows / c.capacity - 1e-12), out=out)
    return np.where(flows > 0, out, 0.0)


def forest_tree_costs(
    forest: FRTForest,
    flows: np.ndarray,  # shape: (total_nodes,) float64 frozen
    cables,
) -> np.ndarray:
    """Per-sample tree routing cost, ``(size,)``.

    ``costs[s] = Σ_{used edges of sample s} cable_cost(flow) · ω_T(edge)``
    — the buy-at-bulk surrogate objective of every tree in the ensemble in
    one pass over the flat flow array (only nodes with positive flow are
    touched; roots never carry flow, so every used node has a parent
    edge).
    """
    flows = np.asarray(flows, dtype=np.float64)
    if flows.shape != (forest.total_nodes,):
        raise ValueError("flows must align with the forest's flat node array")
    used = np.flatnonzero(flows > 0)
    sample_of = np.searchsorted(forest.node_offsets, used, side="right") - 1
    weights = forest.edge_weights[sample_of, forest.node_level[used]]
    per_edge = cable_costs_array(flows[used], cables) * weights
    return np.bincount(sample_of, weights=per_edge, minlength=forest.size)
