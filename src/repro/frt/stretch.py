"""Stretch evaluation for tree embeddings (Definition 7.1).

A metric (tree) embedding must dominate (``dist_T ≥ dist_G`` for every
pair) and have small *expected* stretch
``max_{v≠w} E[dist_T(v,w)] / dist(v,w)`` over the embedding distribution.
:func:`evaluate_stretch` estimates both over repeated samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.frt.forest import FRTForest
from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_distances
from repro.util.pairs import all_pairs, sample_distinct, unrank_pairs
from repro.util.rng import as_rng

__all__ = ["StretchReport", "evaluate_stretch", "sample_pairs", "all_pairs"]


@dataclass
class StretchReport:
    """Stretch statistics over sampled trees and vertex pairs.

    - ``dominating``: ``dist_T ≥ dist_G`` held for every sample and pair
      (up to float tolerance) — must be True for a valid embedding;
    - ``max_expected_stretch``: ``max_pair mean_tree(dist_T/dist_G)`` — the
      Definition 7.1 quantity (finite-sample estimate);
    - ``mean_stretch``: grand mean over pairs and trees;
    - ``max_stretch_single``: worst single-tree pair stretch (may be large:
      only the expectation is bounded);
    - ``trees``, ``pairs``: sample sizes.
    """

    dominating: bool
    max_expected_stretch: float
    mean_stretch: float
    max_stretch_single: float
    trees: int
    pairs: int

    def expected_stretch_vs_log(self, n: int) -> float:
        """``max_expected_stretch / log2(n)`` — the O(log n) constant."""
        return self.max_expected_stretch / max(np.log2(n), 1.0)


def sample_pairs(n: int, count: int | None, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Sample distinct vertex pairs (all pairs when ``count`` is None/large).

    Keys are drawn without replacement by rejection (O(count) memory — no
    length-``total`` permutation) and unranked to upper-triangular indices
    with exact integer arithmetic (no float ``sqrt``, whose rounding near
    triangular-row boundaries can select the wrong row).
    """
    g = as_rng(rng)
    total = n * (n - 1) // 2
    if count is not None and count < 0:
        raise ValueError("count must be non-negative")
    if count is None or count >= total:
        return all_pairs(n)
    return unrank_pairs(n, sample_distinct(total, count, g))


def evaluate_stretch(
    G: Graph,
    sampler: Callable[[], FRTForest],
    *,
    trees: int = 8,
    pairs: int | None = None,
    rng=None,
    rtol: float = 1e-9,
) -> StretchReport:
    """Estimate embedding stretch of ``sampler()`` trees against ``G``.

    ``sampler`` returns one tree — a ``k = 1`` forest such as
    ``pipe.sample().tree`` — and is called ``trees`` times; stretch is
    measured on ``pairs`` sampled vertex pairs (all pairs by default).
    An empty pair set (``pairs=0``, or a single-vertex graph) raises
    ``ValueError`` before any tree is sampled.
    """
    if trees < 1:
        raise ValueError("need at least one tree")
    g = as_rng(rng)
    us, vs = sample_pairs(G.n, pairs, g)
    if us.size == 0:
        raise ValueError(
            f"empty pair set (pairs={pairs}, n={G.n}): stretch needs at "
            "least one vertex pair"
        )
    # Dijkstra from the pairs' distinct sources only: (|sources|, n), not
    # the (n, n) all-pairs matrix a handful of sampled pairs would waste.
    sources = np.unique(us)
    base = dijkstra_distances(G, sources)[np.searchsorted(sources, us), vs]
    if np.any(~np.isfinite(base)) or np.any(base <= 0):
        raise ValueError("stretch undefined for disconnected pairs")
    ratios = np.empty((trees, us.size))
    dominating = True
    for t in range(trees):
        dT = sampler().distances(us, vs)  # (1, P): one tree's row
        if np.any(dT < base * (1.0 - rtol)):
            dominating = False
        ratios[t] = dT / base
    exp_per_pair = ratios.mean(axis=0)
    return StretchReport(
        dominating=dominating,
        max_expected_stretch=float(exp_per_pair.max()),
        mean_stretch=float(ratios.mean()),
        max_stretch_single=float(ratios.max()),
        trees=trees,
        pairs=int(us.size),
    )
