"""Hub-sampling hop set: an exact ``(2·d0+1, 0)``-hop set w.h.p.

Construction (Ullman–Yannakakis-style sampling, the same principle behind
the skeleton graph of the paper's Section 8):

1. Sample each vertex as a *hub* independently with probability
   ``p = min(1, c·ln(n)/d0)``.  W.h.p. every min-hop shortest path with at
   least ``d0`` hops contains a hub within every window of ``d0``
   consecutive vertices.
2. Compute ``d0``-hop-limited distances from all hubs (vectorized MBF).
   The relaxation stops at its fixpoint, so it runs ``min(d0, SPD+1)``
   rounds: on low-SPD graphs (SPD 7–8 against ``d0 = 38`` for
   ``random_graph(256, 768)``) that is a few rounds, not ``d0``.
3. Form the *hub graph*: hubs with edge weights ``dist^{d0}(r, r', G)``.
   W.h.p. shortest paths in the hub graph equal exact ``G``-distances
   (segment the ``G``-shortest path at consecutive hubs ≤ ``d0`` hops
   apart).  Close it with Dijkstra.
4. Add a hub-clique edge ``{r, r'}`` of weight ``dist(r, r', G)`` for every
   hub pair.

Then every shortest path decomposes into (≤ ``d0`` hops to the first hub) +
(1 clique edge) + (≤ ``d0`` hops from the last hub), so
``dist^{2·d0+1}(v, w, G') = dist(v, w, G)`` w.h.p. — an exact hop set.

Defaults choose ``d0 ≈ sqrt(n·ln n)``, balancing the hop bound against the
``O((n ln n / d0)²)`` clique size.  Deterministic guarantee knob: passing
``force_hubs`` overrides sampling (used by tests).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.graph.core import Graph
from repro.graph.shortest_paths import hop_limited_distances
from repro.hopsets.base import HopSetResult
from repro.util.pairs import all_pairs
from repro.util.rng import as_rng

__all__ = ["hub_hopset", "default_d0"]


def default_d0(n: int) -> int:
    """The default segment length ``d0 ≈ sqrt(n · ln n)`` (capped to [2, n])."""
    return int(min(max(2, math.ceil(math.sqrt(n * max(math.log(n), 1.0)))), n))


def hub_hopset(
    G: Graph,
    d0: int | None = None,
    *,
    c: float = 2.0,
    rng=None,
    force_hubs: np.ndarray | None = None,
) -> HopSetResult:
    """Build the hub hop set; returns an exact ``(2·d0+1, 0)``-hop set w.h.p.

    Parameters
    ----------
    d0:
        Segment length (hop-limited search radius).  Default
        :func:`default_d0`.
    c:
        Oversampling constant in ``p = c·ln(n)/d0`` (``c >= 1``; larger
        means higher success probability, more hubs).
    force_hubs:
        Explicit hub vertex array (overrides sampling) — for deterministic
        tests and ablations.
    """
    if not G.is_connected():
        raise ValueError("hub hop set requires a connected graph")
    n = G.n
    g = as_rng(rng)
    if d0 is None:
        d0 = default_d0(n)
    d0 = int(d0)
    if d0 < 1:
        raise ValueError("d0 must be >= 1")
    if not (math.isfinite(c) and c >= 1):
        raise ValueError(f"hopset sampling constant c must be finite and >= 1, got {c!r}")

    if force_hubs is not None:
        hubs = np.unique(np.asarray(force_hubs, dtype=np.int64))
        if hubs.size and (hubs.min() < 0 or hubs.max() >= n):
            raise ValueError("hub index out of range")
        p = float("nan")
    else:
        p = min(1.0, c * max(math.log(n), 1.0) / d0)
        mask = g.random(n) < p
        hubs = np.flatnonzero(mask)
    if hubs.size == 0:
        # Degenerate sample: promote one arbitrary vertex — correctness is
        # unaffected (the hop bound claim is w.h.p. anyway).
        hubs = np.array([int(g.integers(0, n))], dtype=np.int64)

    # d0-hop-limited distances from every hub (vectorized MBF).
    Dh = hop_limited_distances(G, d0, hubs)
    hub_d0 = Dh[:, hubs]  # (R, R) d0-hop hub-to-hub distances

    # Close the hub graph: shortest paths over d0-segment edges are exact
    # G-distances w.h.p.
    finite = np.isfinite(hub_d0)
    np.fill_diagonal(finite, False)
    rows, cols = np.nonzero(finite)
    hub_graph = sp.csr_matrix(
        (hub_d0[rows, cols], (rows, cols)), shape=(hubs.size, hubs.size)
    )
    hub_exact = _csgraph_dijkstra(hub_graph, directed=False)

    # Hub clique edges with exact distances.
    iu, ju = all_pairs(hubs.size)
    w = hub_exact[iu, ju]
    ok = np.isfinite(w)
    extra = np.stack([hubs[iu[ok]], hubs[ju[ok]]], axis=1)
    before = G.m
    graph = G.with_extra_edges(extra, w[ok])
    return HopSetResult(
        graph=graph,
        d=2 * d0 + 1,
        eps=0.0,
        extra_edges=graph.m - before,
        meta={
            "construction": "hub",
            "d0": d0,
            "hubs": int(hubs.size),
            "sampling_probability": p,
            "hub_ids": hubs,
        },
    )
