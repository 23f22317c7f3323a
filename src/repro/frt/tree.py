"""FRT tree construction from LE lists (Section 7.1, Lemma 7.2).

Given LE lists w.r.t. a random order and ``β ∈ [1, 2)``, vertex ``v``'s
*decomposition sequence* is ``(v_0, v_1, ..., v_k)`` where

    ``v_i = min-rank vertex within distance r_i = β · 2^i · scale`` of ``v``

with ``scale = ω_min / 2`` (so ``r_0 < ω_min`` and ``v_0 = v``) and ``k``
minimal with ``r_k ≥ max_v dist(v, v_min)`` (so ``v_k`` is the global
min-rank vertex for everyone — a common root).  The tree's nodes are the
distinct suffixes ``(v_i..v_k)``; the leaf of ``v`` is its full sequence.

**Edge-weight convention** (see DESIGN.md §5): the edge from a level-``i``
node to its parent weighs ``r_{i+1} = β·2^{i+1}·scale`` (the parent ball
radius) rather than the paper's ``β·2^i``.  With the paper's weights,
domination ``dist_T ≥ dist`` can fail by an additive ``2β·scale`` when two
vertices share a level-``(i+1)`` center at distance ``≈ 2 r_{i+1}``; the
doubled weights make domination unconditional (tested exhaustively) at the
price of a factor ≤ 2 in expected stretch — still ``O(log n)``.

Because all leaves sit at depth ``k`` and level-``i`` edges all share one
weight, ``dist_T(u, v) = 2 · Σ_{j<ℓ} r_{j+1}`` where ``ℓ`` is the lowest
level at which ``u``'s and ``v``'s suffixes coincide — tree distance
queries are O(k) array comparisons and fully vectorizable.

Trees are built by :func:`repro.frt.forest.build_frt_forest`, which
constructs all samples' trees in one vectorized pass (one tree is the
``k = 1`` forest) and yields per-sample :class:`FRTTree` views via
:meth:`~repro.frt.forest.FRTForest.tree`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.pairs import all_pairs

__all__ = ["FRTTree"]


@dataclass
class FRTTree:
    """A sampled FRT tree over vertices ``0..n-1``.

    Structure arrays (``N`` = number of tree nodes, ``k`` = depth):

    - ``level_ids[v, i]`` — the tree-node id of ``v``'s level-``i``
      ancestor (``level_ids[v, 0]`` is ``v``'s leaf),
    - ``parent[node]`` — parent node id (root: ``-1``),
    - ``node_level[node]`` — level (leaves 0, root ``k``),
    - ``node_leading[node]`` — the node's *leading vertex* ``v_i``,
    - ``edge_weights[i]`` — weight of every level-``i`` → ``i+1`` edge,
    - ``cum_weights[ℓ] = Σ_{j<ℓ} edge_weights[j]`` — leaf-to-level-``ℓ``
      distance.
    """

    n: int
    k: int
    beta: float
    scale: float
    radii: np.ndarray  # (k+1,)
    edge_weights: np.ndarray  # (k,)
    cum_weights: np.ndarray  # (k+1,)
    level_ids: np.ndarray  # (n, k+1)
    parent: np.ndarray  # (N,)
    node_level: np.ndarray  # (N,)
    node_leading: np.ndarray  # (N,)

    # -- basic structure -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return int(self.parent.size)

    @property
    def root(self) -> int:
        return int(self.level_ids[0, self.k])

    def leaf_of(self, v: int) -> int:
        """Tree-node id of vertex ``v``'s leaf."""
        return int(self.level_ids[v, 0])

    def children_lists(self) -> list[list[int]]:
        """Adjacency ``children[node] -> [child ids]`` (leaves empty).

        Children appear in increasing node-id order.  Grouped by a stable
        argsort on ``parent`` rather than a per-node Python loop — the
        k-median HST DP walks this on every tree of every ensemble.
        """
        num = self.num_nodes
        order = np.argsort(self.parent, kind="stable")
        num_roots = int(np.count_nonzero(self.parent < 0))  # sorted first
        counts = np.bincount(self.parent[order[num_roots:]], minlength=num)
        bounds = num_roots + np.concatenate([[0], np.cumsum(counts)])
        return [order[bounds[p] : bounds[p + 1]].tolist() for p in range(num)]

    def edge_weight_above(self, node: int) -> float:
        """Weight of the edge from ``node`` to its parent."""
        lvl = int(self.node_level[node])
        if lvl >= self.k:
            raise ValueError("the root has no parent edge")
        return float(self.edge_weights[lvl])

    # -- distances -------------------------------------------------------------

    def lca_levels(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Lowest level at which each pair's ancestors coincide."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        eq = self.level_ids[us] == self.level_ids[vs]  # (P, k+1)
        return np.argmax(eq, axis=1)

    def distances(self, us, vs) -> np.ndarray:
        """``dist_T(u, v)`` for paired vertex arrays (vectorized)."""
        lvl = self.lca_levels(np.atleast_1d(us), np.atleast_1d(vs))
        return 2.0 * self.cum_weights[lvl]

    def distance(self, u: int, v: int) -> float:
        """``dist_T(u, v)`` for a single pair."""
        return float(self.distances([u], [v])[0])

    def distance_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` tree metric (verification-scale helper)."""
        iu, ju = all_pairs(self.n)
        d = self.distances(iu, ju)
        # reprolint: disable=quadratic-transient-flow (the (n, n) matrix is
        # the declared output of this verification-scale helper)
        out = np.zeros((self.n, self.n))
        out[iu, ju] = d
        out[ju, iu] = d
        return out

    # -- export -----------------------------------------------------------------

    def to_networkx(self):
        """Export the tree with ``weight`` attributes; leaves carry ``vertex``."""
        import networkx as nx

        t = nx.Graph()
        for node in range(self.num_nodes):
            t.add_node(node, level=int(self.node_level[node]),
                       leading=int(self.node_leading[node]))
        for node, p in enumerate(self.parent):
            if p >= 0:
                t.add_edge(node, int(p), weight=self.edge_weight_above(node))
        for v in range(self.n):
            t.nodes[self.leaf_of(v)]["vertex"] = v
        return t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FRTTree(n={self.n}, depth={self.k}, nodes={self.num_nodes}, "
            f"beta={self.beta:.4f})"
        )
