"""The :class:`Graph` data structure.

A weighted undirected graph ``G = (V, E, ω)`` with ``V = {0..n-1}``, stored as
an edge list (two parallel NumPy arrays) plus lazily-built symmetric CSR
adjacency.  This mirrors the paper's "adjacency list" input model while the
CSR form serves the vectorized kernels.

Invariants enforced at construction (Section 1.2 conventions):

- no self-loops, no parallel edges (an edge ``{u,v}`` appears once),
- strictly positive, finite weights.

Connectivity is *not* enforced (Section 3.4 explicitly drops it for the
connectivity example); use :meth:`Graph.is_connected` where it matters.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["Graph"]


class Graph:
    """Weighted undirected graph on vertices ``{0..n-1}``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        ``(m, 2)`` integer array of endpoints (each undirected edge once,
        order of endpoints irrelevant).
    weights:
        ``(m,)`` array of strictly positive edge weights.
    validate:
        Skip invariant checks when ``False`` (trusted internal callers).
    """

    __slots__ = ("n", "edges", "weights", "_csr", "_directed_cache")

    def __init__(
        self,
        n: int,
        edges: np.ndarray | Sequence[tuple[int, int]],
        weights: np.ndarray | Sequence[float],
        *,
        validate: bool = True,
    ):
        self.n = int(n)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if validate:
            if self.n <= 0:
                raise ValueError("graph needs at least one vertex")
            if edges.shape[0] != weights.shape[0]:
                raise ValueError(
                    f"edge/weight count mismatch: {edges.shape[0]} vs {weights.shape[0]}"
                )
            if edges.size and (edges.min() < 0 or edges.max() >= self.n):
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
            if np.any(~np.isfinite(weights)) or np.any(weights <= 0):
                raise ValueError("edge weights must be finite and > 0")
            key = np.minimum(edges[:, 0], edges[:, 1]) * self.n + np.maximum(
                edges[:, 0], edges[:, 1]
            )
            if np.unique(key).size != key.size:
                raise ValueError("parallel edges are not allowed")
        self.edges = edges
        self.weights = weights
        self._csr: sp.csr_matrix | None = None
        self._directed_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_edge_list(
        cls, n: int, triples: Iterable[tuple[int, int, float]]
    ) -> "Graph":
        """Build from ``(u, v, weight)`` triples."""
        triples = list(triples)
        if triples:
            e = np.array([(u, v) for u, v, _ in triples], dtype=np.int64)
            w = np.array([w for _, _, w in triples], dtype=np.float64)
        else:
            e = np.empty((0, 2), dtype=np.int64)
            w = np.empty(0, dtype=np.float64)
        return cls(n, e, w)

    @classmethod
    def from_networkx(cls, g, weight: str = "weight") -> "Graph":
        """Import from a networkx graph with integer nodes ``0..n-1``."""
        n = g.number_of_nodes()
        triples = [(u, v, float(d.get(weight, 1.0))) for u, v, d in g.edges(data=True)]
        return cls.from_edge_list(n, triples)

    def to_networkx(self):
        """Export to :class:`networkx.Graph` (used for ground-truth tests)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for (u, v), w in zip(self.edges, self.weights):
            g.add_edge(int(u), int(v), weight=float(w))
        return g

    # -- basic accessors -----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.edges.shape[0]

    def weight_bounds(self) -> tuple[float, float]:
        """``(ω_min, ω_max)`` over the edge set (``(inf, 0)`` if edgeless)."""
        if self.m == 0:
            return float("inf"), 0.0
        return float(self.weights.min()), float(self.weights.max())

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric CSR adjacency with weights as values (cached)."""
        if self._csr is None:
            u, v, w = self.edges[:, 0], self.edges[:, 1], self.weights
            rows = np.concatenate([u, v])
            cols = np.concatenate([v, u])
            vals = np.concatenate([w, w])
            self._csr = sp.csr_matrix(
                (vals, (rows, cols)), shape=(self.n, self.n)
            )
        return self._csr

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both orientations of every edge: ``(sources, targets, weights)``.

        This is the propagation structure of an MBF iteration: information at
        ``sources[i]`` flows to ``targets[i]`` at cost ``weights[i]``.  The
        edges are grouped by target: ``targets`` is non-decreasing.  The
        sort is stable, so within one target the ``u -> v`` orientations of
        the stored edges ``(u, v)`` come first, in storage order, then the
        ``v -> u`` ones.  Kernels that aggregate per target rely on this
        grouping.  Cached.
        """
        if self._directed_cache is None:
            u, v, w = self.edges[:, 0], self.edges[:, 1], self.weights
            src = np.concatenate([u, v])
            dst = np.concatenate([v, u])
            wts = np.concatenate([w, w])
            order = np.argsort(dst, kind="stable")
            self._directed_cache = (src[order], dst[order], wts[order])
        return self._directed_cache

    def degrees(self) -> np.ndarray:
        """Vertex degrees as an ``(n,)`` int array."""
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, edge_weights)`` of vertex ``v``."""
        a = self.adjacency()
        lo, hi = a.indptr[v], a.indptr[v + 1]
        return a.indices[lo:hi], a.data[lo:hi]

    def is_connected(self) -> bool:
        """Whether ``G`` is connected (singletons count as connected)."""
        if self.n == 1:
            return True
        ncomp, _ = sp.csgraph.connected_components(self.adjacency(), directed=False)
        return ncomp == 1

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test ``{u,v} ∈ E`` (via CSR lookup)."""
        ids, _ = self.neighbors(u)
        return bool(np.any(ids == v))

    # -- modification (functional) --------------------------------------------

    def with_extra_edges(
        self, extra_edges: np.ndarray, extra_weights: np.ndarray
    ) -> "Graph":
        """Return ``G'`` = ``G`` augmented with ``extra_edges``.

        If an extra edge duplicates an existing one (hop sets often shortcut
        an existing edge), the *minimum* weight is kept — the natural
        semantics for min-plus graphs.

        The extra edges are validated here (endpoints in range, no
        self-loops, finite positive weights): the combined graph is built
        with ``validate=False`` for speed, so a buggy hop-set construction
        must not be able to smuggle in zero/negative/``inf``/NaN weights.
        """
        extra_edges = np.asarray(extra_edges, dtype=np.int64).reshape(-1, 2)
        extra_weights = np.asarray(extra_weights, dtype=np.float64).reshape(-1)
        if extra_edges.shape[0] != extra_weights.shape[0]:
            raise ValueError("edge/weight count mismatch in extra edges")
        if extra_edges.size == 0:
            return Graph(self.n, self.edges, self.weights, validate=False)
        if extra_edges.min() < 0 or extra_edges.max() >= self.n:
            raise ValueError("extra edge endpoint out of range")
        if np.any(extra_edges[:, 0] == extra_edges[:, 1]):
            raise ValueError("self-loops are not allowed in extra edges")
        if np.any(~np.isfinite(extra_weights)) or np.any(extra_weights <= 0):
            raise ValueError("extra edge weights must be finite and > 0")
        all_e = np.concatenate([self.edges, extra_edges], axis=0)
        all_w = np.concatenate([self.weights, extra_weights])
        # Canonicalize endpoint order and deduplicate to min weight.
        lo = np.minimum(all_e[:, 0], all_e[:, 1])
        hi = np.maximum(all_e[:, 0], all_e[:, 1])
        key = lo * self.n + hi
        order = np.lexsort((all_w, key))
        key_s, lo_s, hi_s, w_s = key[order], lo[order], hi[order], all_w[order]
        first = np.ones(key_s.size, dtype=bool)
        first[1:] = key_s[1:] != key_s[:-1]
        dedup_e = np.stack([lo_s[first], hi_s[first]], axis=1)
        dedup_w = w_s[first]
        return Graph(self.n, dedup_e, dedup_w, validate=False)

    # -- dunder ----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False

        def canon(g: Graph):
            lo = np.minimum(g.edges[:, 0], g.edges[:, 1])
            hi = np.maximum(g.edges[:, 0], g.edges[:, 1])
            order = np.lexsort((hi, lo))
            return lo[order], hi[order], g.weights[order]

        a, b = canon(self), canon(other)
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def __hash__(self):  # Graphs are mutable-ish containers; identity hash.
        return id(self)
