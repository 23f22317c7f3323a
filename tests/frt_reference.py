"""The per-vertex reference FRT tree construction (Lemma 7.2), for tests.

:func:`build_frt_tree` builds one sample's tree with a per-vertex Python
loop, straight from the lemma, and returns it as a ``k = 1``
:class:`~repro.frt.forest.FRTForest`.  The library builds trees with
:func:`repro.frt.forest.build_frt_forest`, all samples in one vectorized
pass; the parity tests and the e13 benchmark compare each forest sample
against this reference, bit for bit.

The helpers below compare forests field by field
(:func:`assert_forests_equal`) and read one tree (:func:`children_lists`,
:func:`distance_matrix`, :func:`to_networkx` — a ``k = 1`` forest such
as ``forest.tree(s)``) for verification-scale checks.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.frt.forest import FRTForest
from repro.mbf.dense import BatchedFlatStates
from repro.util.pairs import all_pairs

__all__ = [
    "assert_forests_equal",
    "build_frt_tree",
    "children_lists",
    "distance_matrix",
    "require_one_tree",
    "to_networkx",
]


def build_frt_tree(
    le_lists: BatchedFlatStates,
    rank: np.ndarray,
    beta: float,
    wmin: float,
) -> FRTForest:
    """Construct the FRT tree from LE lists (Lemma 7.2), as a ``k = 1`` forest.

    Parameters
    ----------
    le_lists:
        One sample's LE lists w.r.t. ``rank``, a ``k = 1`` batch (entries
        per vertex in increasing-distance order, as produced by the dense
        engine).  The distances may come from ``G`` itself or from the
        simulated graph ``H``.
    rank:
        The random total order used for the lists.
    beta:
        The FRT radius multiplier, in ``[1, 2)``.
    wmin:
        A positive lower bound on the minimum pairwise distance (the
        minimum edge weight of ``G`` suffices); level-0 balls then contain
        only their center.
    """
    if le_lists.k != 1:
        raise ValueError("build_frt_tree builds one sample's tree (k = 1)")
    n = le_lists.n
    rank = np.asarray(rank, dtype=np.int64)
    if rank.shape != (n,):
        raise ValueError("rank shape mismatch")
    if not 1.0 <= beta < 2.0:
        raise ValueError("beta must lie in [1, 2)")
    if wmin <= 0:
        raise ValueError("wmin must be positive")
    counts = le_lists.counts()
    if np.any(counts == 0):
        raise ValueError("every vertex needs a non-empty LE list (connected input?)")

    scale = wmin / 2.0
    # Root distance: each list's last entry is the global min-rank vertex.
    last_idx = le_lists.offsets[1:] - 1
    root_dist = float(le_lists.dists[last_idx].max())
    root_vertex = le_lists.ids[last_idx]
    if np.unique(root_vertex).size != 1:
        raise ValueError("LE lists are not at their fixpoint (no common root)")
    if root_dist <= 0:  # single-vertex graph
        k = 1
    else:
        k = max(1, math.ceil(math.log2(root_dist / (beta * scale))))
    radii = beta * scale * np.power(2.0, np.arange(k + 1))
    # levels: labels[v, i] = v_i = id of the last list entry with dist <= r_i.
    labels = np.empty((n, k + 1), dtype=np.int64)
    for v in range(n):
        ids, dists = le_lists.node(v)
        # entries sorted ascending by dist; staircase → ranks descending.
        pos = np.searchsorted(dists, radii, side="right") - 1
        if pos[0] < 0:
            raise ValueError(f"vertex {v} lacks its own 0-distance entry")
        labels[v] = ids[pos]
    if not np.array_equal(labels[:, 0], np.arange(n)):
        raise ValueError(
            "level-0 centers are not the vertices themselves; "
            "wmin is not a lower bound on pairwise distances"
        )

    # Assign global node ids per suffix, root-down.  suffix_key holds the
    # node id of (v_i..v_k) per vertex; combining with labels[:, i-1]
    # identifies the level-(i-1) suffixes.
    level_ids = np.empty((n, k + 1), dtype=np.int64)
    node_parent_chunks: list[np.ndarray] = []
    node_level_chunks: list[np.ndarray] = []
    node_leading_chunks: list[np.ndarray] = []
    next_id = 0
    # Level k (root).
    uniq, inv = np.unique(labels[:, k], return_inverse=True)
    level_ids[:, k] = next_id + inv
    node_parent_chunks.append(np.full(uniq.size, -1, dtype=np.int64))
    node_level_chunks.append(np.full(uniq.size, k, dtype=np.int64))
    node_leading_chunks.append(uniq.astype(np.int64))
    next_id += uniq.size
    for i in range(k - 1, -1, -1):
        combo = level_ids[:, i + 1] * (n + 1) + labels[:, i]
        uniq, first, inv = np.unique(combo, return_index=True, return_inverse=True)
        level_ids[:, i] = next_id + inv
        node_parent_chunks.append(level_ids[first, i + 1])
        node_level_chunks.append(np.full(uniq.size, i, dtype=np.int64))
        node_leading_chunks.append(labels[first, i])
        next_id += uniq.size

    parent = np.concatenate(node_parent_chunks)
    node_level = np.concatenate(node_level_chunks)
    node_leading = np.concatenate(node_leading_chunks)
    edge_weights = radii[1:]
    cum_weights = np.concatenate([[0.0], np.cumsum(edge_weights)])
    return FRTForest(
        n=n,
        size=1,
        k_max=k,
        scale=scale,
        betas=np.array([beta], dtype=np.float64),
        depths=np.array([k], dtype=np.int64),
        radii=radii[None, :],
        edge_weights=edge_weights[None, :],
        cum_weights=cum_weights[None, :],
        level_ids=level_ids[None, :, :],
        node_offsets=np.array([0, parent.size], dtype=np.int64),
        parent=parent,
        node_level=node_level,
        node_leading=node_leading,
    )


def assert_forests_equal(got: FRTForest, want: FRTForest) -> None:
    """Every field equal: scalars by value, arrays by dtype, shape and bits."""
    for f in dataclasses.fields(FRTForest):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def require_one_tree(tree: FRTForest) -> None:
    """Reject a ``k``-forest where a per-tree helper expects one tree."""
    if tree.size != 1:
        raise ValueError("expected one tree (a k = 1 forest, e.g. forest.tree(s))")


def children_lists(tree: FRTForest) -> list[list[int]]:
    """Adjacency ``children[node] -> [child ids]`` (leaves empty).

    Children appear in increasing node-id order — the order the k-median
    DP folds them in.
    """
    require_one_tree(tree)
    children: list[list[int]] = [[] for _ in range(tree.total_nodes)]
    for node, p in enumerate(tree.parent.tolist()):
        if p >= 0:
            children[p].append(node)
    return children


def distance_matrix(tree: FRTForest) -> np.ndarray:
    """Dense ``(n, n)`` tree metric of one tree."""
    require_one_tree(tree)
    iu, ju = all_pairs(tree.n)
    d = tree.distances(iu, ju)[0]
    out = np.zeros((tree.n, tree.n))
    out[iu, ju] = d
    out[ju, iu] = d
    return out


def to_networkx(tree: FRTForest):
    """Export one tree with ``weight`` attributes; leaves carry ``vertex``."""
    import networkx as nx

    require_one_tree(tree)
    t = nx.Graph()
    for node in range(tree.total_nodes):
        t.add_node(node, level=int(tree.node_level[node]),
                   leading=int(tree.node_leading[node]))
    for node, p in enumerate(tree.parent.tolist()):
        if p >= 0:
            weight = float(tree.edge_weights[0, tree.node_level[node]])
            t.add_edge(node, p, weight=weight)
    for v in range(tree.n):
        t.nodes[int(tree.level_ids[0, v, 0])]["vertex"] = v
    return t
