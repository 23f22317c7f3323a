"""Empirical verification of hop-set guarantees and Observation 1.1.

``verify_hopset`` measures the achieved ``(d, eps)`` property of a
construction against exact distances; ``count_triangle_violations`` counts
triples breaking the (subtractive) triangle inequality in a ``d``-hop
distance matrix — the quantity Observation 1.1 is about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_distances, hop_limited_distances
from repro.hopsets.base import HopSetResult
from repro.util.pairs import sample_distinct
from repro.util.rng import as_rng

__all__ = ["HopSetReport", "verify_hopset", "count_triangle_violations"]


@dataclass
class HopSetReport:
    """Measured quality of a hop set on sampled sources.

    ``max_ratio`` is the empirical stretch ``max dist^d(G')/dist(G)``;
    ``dominated`` confirms ``dist^d(G') >= dist(G)`` (no under-estimation);
    ``ok`` is the full ``(d, eps)`` verdict with tolerance ``rtol``.
    """

    d: int
    eps_claimed: float
    max_ratio: float
    dominated: bool
    sources_checked: int
    ok: bool


def verify_hopset(
    result: HopSetResult,
    G: Graph,
    *,
    sample_sources: int | None = None,
    rng=None,
    rtol: float = 1e-9,
) -> HopSetReport:
    """Check ``dist(G) <= dist^d(G') <= (1+eps)·dist(G)`` on sampled sources.

    ``sample_sources=None`` (or ``>= n``) checks every source; fewer than 1
    is rejected, since an empty sample would pass any ``d``.
    """
    if sample_sources is not None and sample_sources < 1:
        raise ValueError(f"sample_sources must be >= 1 (or None for all), got {sample_sources}")
    g = as_rng(rng)
    n = G.n
    if sample_sources is None or sample_sources >= n:
        sources = np.arange(n, dtype=np.int64)
    else:
        sources = np.sort(sample_distinct(n, sample_sources, g))
    exact = dijkstra_distances(G, sources)
    hop = hop_limited_distances(result.graph, result.d, sources)
    finite = np.isfinite(exact) & (exact > 0)
    dominated = bool(np.all(hop >= exact - rtol * np.maximum(exact, 1.0)))
    ratios = hop[finite] / exact[finite]
    max_ratio = float(ratios.max()) if ratios.size else 1.0
    ok = dominated and max_ratio <= (1.0 + result.eps) * (1.0 + rtol)
    # Also require reachability: every finite exact distance must be finite
    # within d hops in G'.
    ok = ok and bool(np.all(np.isfinite(hop[finite])))
    return HopSetReport(
        d=result.d,
        eps_claimed=result.eps,
        max_ratio=max_ratio,
        dominated=dominated,
        sources_checked=int(sources.size),
        ok=ok,
    )


def count_triangle_violations(
    D: np.ndarray, *, rtol: float = 1e-9, return_example: bool = False
):
    """Count ordered triples ``(u, v, w)`` with ``D[u,w] > D[u,v] + D[v,w]``.

    ``D`` is a symmetric (pseudo-)distance matrix (e.g. ``dist^d`` of a
    rounded hop set).  Observation 1.1: if ``D = dist^d`` of a hop set and
    the count is zero, then ``D`` equals the exact metric.  Returns the
    count, or ``(count, example_triple | None)`` with ``return_example``.

    O(n³) — verification-scale inputs only.
    """
    D = np.asarray(D, dtype=np.float64)
    n = D.shape[0]
    if D.shape != (n, n):
        raise ValueError("D must be square")
    count = 0
    example = None
    for v in range(n):
        # through-v path lengths for all (u, w) at once
        via = D[:, v][:, None] + D[v, :][None, :]
        bad = D > via * (1.0 + rtol) + 0.0
        np.fill_diagonal(bad, False)
        bad[:, v] = False
        bad[v, :] = False
        c = int(bad.sum())
        if c and example is None:
            u, w = np.argwhere(bad)[0]
            example = (int(u), int(v), int(w))
        count += c
    if return_example:
        return count, example
    return count
