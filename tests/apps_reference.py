"""Per-tree reference loops for the Section 9-10 applications, for tests.

The library runs the k-median DP and the demand routing of every tree of
an ensemble at once (:mod:`repro.apps.batched`); one tree is its
``k = 1`` case.  The functions here are the plain per-tree Python loops
those kernels replaced, kept as executable references: the parity tests
and the e14 benchmark compare each forest sample against them, bit for
bit.  Each takes one tree — a ``k = 1``
:class:`~repro.frt.forest.FRTForest` such as ``forest.tree(s)`` — and
reads its row 0.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.buyatbulk import Demand
from repro.frt.forest import FRTForest
from tests.frt_reference import children_lists, require_one_tree

__all__ = ["hst_kmedian_dp", "route_demands_on_tree"]

INF = math.inf


def hst_kmedian_dp(
    tree: FRTForest,
    leaf_weights: np.ndarray,
    k: int,
    *,
    allowed: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Optimal k-median on the HST metric of ``tree``, one node at a time.

    ``leaf_weights[v]`` is the client weight at vertex ``v``'s leaf;
    ``allowed[v]`` marks vertices usable as facilities (default: all).
    Returns ``(tree_cost, facility_vertices)`` — provably optimal for the
    tree metric (every client pays its tree distance to the nearest open
    facility).

    DP: ``dp[t][j]`` = cost of tree edges inside ``subtree(t)`` with ``j``
    facilities placed inside; merging child ``c`` adds
    ``W(c)·2·w(level(c))`` when ``c`` receives no facility (its clients pay
    the edge above ``c``).  Root answer: ``min_{j<=k} dp[root][j]`` —
    opening fewer can never help, but equal-cost smaller sets are legal.
    """
    require_one_tree(tree)
    n = tree.n
    leaf_weights = np.asarray(leaf_weights, dtype=np.float64)
    if leaf_weights.shape != (n,) or np.any(leaf_weights < 0):
        raise ValueError("leaf_weights must be a non-negative (n,) array")
    if allowed is None:
        allowed = np.ones(n, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not allowed.any():
        raise ValueError("no facility locations allowed")

    level_ids = tree.level_ids[0]
    edge_weights = tree.edge_weights[0]
    N = tree.total_nodes
    children = children_lists(tree)
    # Client weight below each node.
    W = np.zeros(N)
    for v in range(n):
        W[level_ids[v]] += leaf_weights[v]
    # leaf node -> vertex
    leaf_vertex = np.full(N, -1, dtype=np.int64)
    for v in range(n):
        leaf_vertex[level_ids[v, 0]] = v

    order = np.argsort(tree.node_level, kind="stable")  # leaves first
    dp: list[np.ndarray | None] = [None] * N
    # For backtracking: per node, per j, the list of (child, j_child).
    alloc: list[dict[int, list[tuple[int, int]]] | None] = [None] * N

    for node in order:
        node = int(node)
        if not children[node]:  # leaf
            v = int(leaf_vertex[node])
            if allowed[v]:
                dp[node] = np.array([0.0, 0.0])
                alloc[node] = {0: [], 1: [(node, 1)]}
            else:
                dp[node] = np.array([0.0])
                alloc[node] = {0: []}
            continue
        comb = np.array([0.0])
        comb_alloc: dict[int, list[tuple[int, int]]] = {0: []}
        for c in children[node]:
            cdp = dp[c]
            assert cdp is not None
            lvl_c = int(tree.node_level[c])
            penalty = 2.0 * edge_weights[lvl_c] * W[c]
            child_cost = cdp.copy()
            child_cost[0] += penalty  # no facility below c: clients pay up
            new_size = min(k, comb.size - 1 + cdp.size - 1) + 1
            new = np.full(new_size, INF)
            new_alloc: dict[int, list[tuple[int, int]]] = {}
            for j1 in range(comb.size):
                if not np.isfinite(comb[j1]):
                    continue
                for j2 in range(cdp.size):
                    j = j1 + j2
                    if j >= new_size:
                        break
                    cand = comb[j1] + child_cost[j2]
                    if cand < new[j]:
                        new[j] = cand
                        new_alloc[j] = comb_alloc[j1] + [(c, j2)]
            comb = new
            comb_alloc = new_alloc
        dp[node] = comb
        alloc[node] = comb_alloc

    root = int(level_ids[0, tree.k_max])
    rdp = dp[root]
    assert rdp is not None
    jmax = min(k, rdp.size - 1)
    best_j = int(np.argmin(rdp[: jmax + 1]))
    best_cost = float(rdp[best_j])

    # Backtrack facilities.
    facilities: list[int] = []
    stack = [(root, best_j)]
    while stack:
        node, j = stack.pop()
        a = alloc[node]
        assert a is not None
        if not children[node]:
            if j == 1:
                facilities.append(int(leaf_vertex[node]))
            continue
        for c, jc in a[j]:
            if jc > 0:
                stack.append((c, jc))
    return best_cost, np.array(sorted(facilities), dtype=np.int64)


def route_demands_on_tree(
    tree: FRTForest, demands: list[Demand]
) -> dict[int, float]:
    """Aggregate per-tree-edge flows (keyed by the edge's child node).

    The tree path between two leaves climbs from both sides to the LCA;
    with all leaves at depth ``k`` this touches the ancestors of both
    endpoints strictly below the LCA level.  Nodes appear in the order the
    demand walks first reach them.
    """
    require_one_tree(tree)
    level_ids = tree.level_ids[0]
    flows: dict[int, float] = {}
    for dm in demands:
        lvl = int(tree.lca_levels([dm.source], [dm.target])[0, 0])
        for side in (dm.source, dm.target):
            for j in range(lvl):
                node = int(level_ids[side, j])
                flows[node] = flows.get(node, 0.0) + dm.amount
    return flows
