"""Mapping tree edges back to graph paths (Section 7.5).

An FRT tree edge ``e`` between the level-``i`` node and its level-``i+1``
parent must map to a ``G``-path ``p`` with ``ω(p) ≤ 3·ω_T(e)``-ish weight so
that tree solutions (buy-at-bulk, Section 10) transfer to ``G``.  Following
Section 7.5 we route via a common descendant leaf: identify each tree node
with its *leading vertex*; for the edge ``(x_i..x_k) → (x_{i+1}..x_k)`` pick
a descendant leaf ``v``; then ``dist(v, x_i, H) ≤ r_i`` and
``dist(v, x_{i+1}, H) ≤ r_{i+1}``, so the concatenated ``x_i ⤳ v ⤳ x_{i+1}``
path weighs at most ``r_i + r_{i+1} ≤ 1.5·ω_T(e)`` (our parent-radius
edge weights make this even slacker than the paper's factor 3).

Substitution note (DESIGN.md §2): the paper reconstructs these paths from
stored LE-list predecessor pointers and hop-set lookup tables; we
re-derive them with Dijkstra predecessor traces on ``G``, which yields
*shortest* connecting paths — the same objects with at-least-as-good
weight, without carrying per-iteration state.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.frt.forest import FRTForest
from repro.graph.core import Graph

__all__ = ["reconstruct_graph_path", "tree_edge_to_graph_path", "PathOracle"]


class PathOracle:
    """Cached Dijkstra predecessor traces on ``G``.

    ``path(u, v)`` returns the vertex sequence of a shortest ``u``-``v``
    path; predecessor arrays are computed per source on demand and cached
    (at most one ``O(m log n)`` Dijkstra per distinct source).
    """

    def __init__(self, G: Graph):
        self.G = G
        self._pred: dict[int, np.ndarray] = {}

    def _predecessors(self, source: int) -> np.ndarray:
        pred = self._pred.get(source)
        if pred is None:
            _, pred = _csgraph_dijkstra(
                self.G.adjacency(), directed=False, indices=[source],
                return_predecessors=True,
            )
            pred = pred[0]
            self._pred[source] = pred
        return pred

    def path(self, u: int, v: int) -> list[int]:
        """Vertex sequence of a shortest ``u``-``v`` path (inclusive)."""
        if u == v:
            return [u]
        pred = self._predecessors(u)
        if pred[v] < 0:
            raise ValueError(f"vertices {u} and {v} are disconnected")
        out = [v]
        cur = v
        while cur != u:
            cur = int(pred[cur])
            out.append(cur)
        out.reverse()
        return out

    def path_weight(self, path: list[int]) -> float:
        """Total ``G``-weight of a vertex sequence."""
        A = self.G.adjacency()
        return float(sum(A[a, b] for a, b in zip(path[:-1], path[1:])))


def reconstruct_graph_path(G: Graph, u: int, v: int) -> list[int]:
    """One-shot shortest-path reconstruction (see :class:`PathOracle`)."""
    return PathOracle(G).path(u, v)


def tree_edge_to_graph_path(
    tree: FRTForest,
    child: int,
    G: Graph,
    oracle: PathOracle | None = None,
) -> list[int]:
    """Map the tree edge above ``child`` to a ``G``-path (Section 7.5).

    ``tree`` is one tree — a ``k = 1`` forest such as ``forest.tree(s)`` —
    and ``child`` one of its node ids.  Routes between the leading vertices
    of ``child`` and its parent through a common descendant leaf.  Returns
    the vertex sequence; its weight is at most
    ``dist(x_i, v, G) + dist(v, x_{i+1}, G) ≤ r_i + r_{i+1}`` because ``H``
    dominates ``G``.
    """
    if tree.size != 1:
        raise ValueError("pass one tree (a k = 1 forest, e.g. forest.tree(s))")
    p = int(tree.parent[child])
    if p < 0:
        raise ValueError("the root has no parent edge")
    oracle = oracle or PathOracle(G)
    lead_child = int(tree.node_leading[child])
    lead_parent = int(tree.node_leading[p])
    # Any leaf below `child` is also below the parent; use child's leading
    # vertex's own leaf, which is a descendant of `child` by construction
    # of the decomposition sequence when child is a leaf; otherwise pick
    # the first vertex whose level-ids include child.
    lvl = int(tree.node_level[child])
    descendants = np.flatnonzero(tree.level_ids[0, :, lvl] == child)
    via = int(descendants[0])
    first = oracle.path(lead_child, via)
    second = oracle.path(via, lead_parent)
    return first + second[1:]
