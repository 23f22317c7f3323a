"""Distance computations: exact, hop-limited, SPD, hop diameter.

Implements the quantities of Section 1.2:

- ``dist(v, w, G)`` — exact distances (SciPy Dijkstra, the sequential
  ground truth),
- ``dist^h(v, w, G)`` — *h-hop distances*: minimum weight over paths with at
  most ``h`` edges, via vectorized Moore-Bellman-Ford,
- ``SPD(G)`` — the shortest path diameter: maximum over pairs of the minimum
  hop count of a shortest path (the number of MBF iterations to fixpoint),
- ``D(G)`` — the unweighted hop diameter,
- ``hop(v, ·, G)`` — per-source min-hop-of-shortest-path vector.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
from scipy.sparse.csgraph import shortest_path as _csgraph_shortest_path

from repro.graph.core import Graph

__all__ = [
    "dijkstra_distances",
    "hop_limited_distances",
    "shortest_path_diameter",
    "hop_diameter",
    "min_hop_of_shortest_path",
    "grouped_inedges",
]

_REL_TOL = 1e-9


def dijkstra_distances(G: Graph, sources=None) -> np.ndarray:
    """Exact distances ``dist(s, v, G)`` for ``s`` in ``sources``.

    Returns an ``(|sources|, n)`` float array (``inf`` for unreachable).
    ``sources=None`` means all vertices (full APSP ground truth).
    """
    A = G.adjacency()
    if sources is None:
        return _csgraph_dijkstra(A, directed=False)
    return _csgraph_dijkstra(A, directed=False, indices=_as_sources(sources, G.n))


def grouped_inedges(G: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges grouped by target, for reduceat-style aggregation.

    Returns ``(src, dst_unique, starts, w)`` where the directed edges sorted
    by target are ``(src[i] -> ·, w[i])`` and the block of edges entering
    ``dst_unique[j]`` is ``src[starts[j] : starts[j+1]]`` (with an implicit
    final boundary at the end).  :meth:`Graph.directed_edges` is already
    grouped by target.
    """
    s, d, w = G.directed_edges()
    dst_unique, starts = np.unique(d, return_index=True)
    return s, dst_unique, starts, w


def _as_sources(sources, n: int) -> np.ndarray:
    """``sources`` as an int64 id array (``None`` = every vertex).

    Rejects ids outside ``[0, n)`` up front: NumPy would wrap a negative id
    to a row counted from the end, a silently wrong answer.
    """
    if sources is None:
        return np.arange(n, dtype=np.int64)
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    bad = (sources < 0) | (sources >= n)
    if bad.any():
        raise ValueError(f"source id {int(sources[bad][0])} is not a vertex of [0, {n})")
    return sources


def _block_starts(count: int, block: int) -> range:
    """Start offsets of the ``block``-row source blocks covering ``count`` rows."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    return range(0, count, block)


def _unit_rows(sources: np.ndarray, n: int) -> np.ndarray:
    """``dist^0`` from each source: 0 at the source, ``inf`` elsewhere."""
    D = np.full((sources.size, n), np.inf)
    D[np.arange(sources.size), sources] = 0.0
    return D


def _relax_to_fixpoint(D: np.ndarray, inedges, h: int) -> int:
    """Run up to ``h`` MBF rounds on the rows of ``D`` in place.

    Stops at the first round that improves no entry: a round is a function
    of ``D`` alone, so one that changes nothing repeats unchanged forever,
    and the stop is exact.  A block thus runs at most ``min(h, SPD + 1)``
    rounds.  Each round gathers the target block once and writes it back
    only if an entry improved.  Returns the number of improving rounds.
    """
    src, dst_unique, starts, w = inedges
    rounds = 0
    for _ in range(h if src.size else 0):
        cand = np.take(D, src, axis=1)
        cand += w[None, :]
        best = np.minimum.reduceat(cand, starts, axis=1)
        cur = np.take(D, dst_unique, axis=1)
        improved = best < cur
        if not improved.any():
            break  # fixpoint: every further round is the identity
        np.copyto(cur, best, where=improved)
        D[:, dst_unique] = cur
        rounds += 1
    return rounds


def hop_limited_distances(
    G: Graph,
    h: int,
    sources=None,
    *,
    block: int = 128,
) -> np.ndarray:
    """``dist^h(s, v, G)`` for each ``s`` in ``sources`` — vectorized MBF.

    This is the distance product ``A^h x^(0)`` over the min-plus semiring
    (Lemma 3.1), computed as up to ``h`` rounds of edge relaxations.
    Sources are processed in blocks of ``block`` rows to bound the
    ``(block, 2m)`` scratch matrix.  Each block stops at its fixpoint: a
    round that improves nothing leaves the rows as they were, so every
    later round repeats it unchanged, and stopping there is bit-identical
    to running all ``h`` rounds.  Rows reach that fixpoint after at most
    ``SPD(G)`` improving rounds (Definition 2.11), so the cost is
    O(min(h, SPD+1)·|sources|·m) rather than O(h·|sources|·m).

    Returns an ``(|sources|, n)`` array; ``dist^0`` is 0 on the diagonal and
    ``inf`` elsewhere.  Raises ``ValueError`` for ``h < 0``, ``block < 1``
    or a source id outside ``[0, n)``.
    """
    if h < 0:
        raise ValueError("h must be non-negative")
    sources = _as_sources(sources, G.n)
    inedges = grouped_inedges(G)
    out = np.empty((sources.size, G.n))
    for lo in _block_starts(sources.size, block):
        D = _unit_rows(sources[lo : lo + block], G.n)
        _relax_to_fixpoint(D, inedges, h)
        out[lo : lo + block] = D
    return out


def shortest_path_diameter(G: Graph, *, max_h: int | None = None, block: int = 128) -> int:
    """``SPD(G)``: iterations of all-sources MBF until a fixpoint.

    ``SPD(G) = max_{v,w} hop(v, w, G)`` equals the smallest ``h`` with
    ``dist^h = dist`` (= ``dist^n``).  Each source block runs the same
    relaxation loop as :func:`hop_limited_distances`, which stops at the
    first stable round; SPD is the max over blocks of the improving rounds.

    Raises ``ValueError`` if ``G`` is disconnected (SPD undefined) or the
    ``max_h`` cap is exceeded.
    """
    n = G.n
    if max_h is None:
        max_h = n
    if G.m == 0:
        if n == 1:
            return 0
        raise ValueError("SPD undefined for disconnected graphs")
    inedges = grouped_inedges(G)
    spd = 0
    for lo in _block_starts(n, block):
        D = _unit_rows(np.arange(lo, min(lo + block, n), dtype=np.int64), n)
        h = _relax_to_fixpoint(D, inedges, max_h + 1)
        if h > max_h:
            raise ValueError("SPD exceeds max_h (disconnected graph?)")
        if np.any(np.isinf(D)):
            raise ValueError("SPD undefined for disconnected graphs")
        spd = max(spd, h)
    return spd


def hop_diameter(G: Graph) -> int:
    """``D(G)``: the unweighted hop diameter (max BFS eccentricity)."""
    A = G.adjacency()
    ones = sp.csr_matrix(
        (np.ones_like(A.data), A.indices, A.indptr), shape=A.shape
    )
    D = _csgraph_shortest_path(ones, method="D", directed=False, unweighted=True)
    if np.any(np.isinf(D)):
        raise ValueError("hop diameter undefined for disconnected graphs")
    return int(D.max())


def min_hop_of_shortest_path(G: Graph, source: int) -> np.ndarray:
    """``hop(source, v, G)`` for all ``v``: min hops over shortest paths.

    Computed by a single pass over the *tight-edge DAG*: an edge ``u -> v``
    is tight iff ``dist[u] + ω(u,v) = dist[v]`` (up to a relative float
    tolerance); processing vertices in increasing distance order gives each
    vertex the minimum predecessor hop count + 1.

    Returns an ``(n,)`` int array; unreachable vertices get ``-1``.
    """
    n = G.n
    dist = dijkstra_distances(G, [source])[0]
    hops = np.full(n, -1, dtype=np.int64)
    hops[source] = 0
    src, dst, w = G.directed_edges()
    if src.size == 0:
        return hops
    finite_mask = np.isfinite(dist[src]) & np.isfinite(dist[dst])
    tol = _REL_TOL * np.maximum(1.0, np.abs(dist[dst][finite_mask]))
    tight = np.zeros(src.size, dtype=bool)
    tight[finite_mask] = (
        np.abs(dist[src][finite_mask] + w[finite_mask] - dist[dst][finite_mask]) <= tol
    )
    # Tight in-edges, grouped by target like the directed edges.
    ts, td = src[tight], dst[tight]
    boundaries = np.flatnonzero(np.diff(td)) + 1
    groups = np.split(np.arange(td.size), boundaries)
    in_edges: dict[int, np.ndarray] = {}
    for grp in groups:
        if grp.size:
            in_edges[int(td[grp[0]])] = ts[grp]
    for v in np.argsort(dist, kind="stable"):
        v = int(v)
        if v == source or not np.isfinite(dist[v]):
            continue
        preds = in_edges.get(v)
        if preds is None:
            continue
        ph = hops[preds]
        valid = ph >= 0
        if np.any(valid):
            hops[v] = int(ph[valid].min()) + 1
    return hops
