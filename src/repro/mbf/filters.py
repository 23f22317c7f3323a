"""Representative projections (filters) for the reference engine.

Each factory returns a callable ``r : M -> M``.  All of these satisfy the
congruence conditions of Lemma 2.8 for their respective semimodules; the
test suite verifies this with
:func:`repro.algebra.laws.check_congruence_on_samples`.

Every filter has a vectorized counterpart in the dense engines (the parity
suite pins the equivalence on all zoo problems):

======================  ===========================================  ==========
reference filter        dense counterpart                            paper ref
======================  ===========================================  ==========
:func:`identity`        :class:`~repro.mbf.dense.MinFilter`          Ex. 3.5
:func:`source_detection`  :class:`~repro.mbf.dense.TopKFilter`       Ex. 3.2
:func:`le_list`         :class:`~repro.mbf.dense.BatchedLEFilter`    Def. 7.3
:func:`distance_range`  ``dmax`` cap of :mod:`repro.mbf.scalar`      Ex. 3.7
:func:`k_shortest_paths`  — (all-paths family is reference-only)     Eq. 3.22
======================  ===========================================  ==========

Filters for distance-map states (dicts ``{vertex: distance}``):

- :func:`identity` — no filtering (APSP, Example 3.5),
- :func:`source_detection` — Lenzen-Peleg ``(S, h, d, k)``-source detection
  (Example 3.2): k smallest ``(dist, id)`` with id ∈ S and dist ≤ d,
- :func:`le_list` — the FRT least-element filter (Definition 7.3).

Filters for scalar min-plus states (floats):

- :func:`distance_range` — drop values exceeding ``d`` (forest fire,
  Example 3.7).

Filters for all-paths states (dicts ``{path: weight}``):

- :func:`k_shortest_paths` — the k-SDP filter (Equations 3.22-3.24),
- with ``distinct=True`` the k-DSDP variant (Equations 3.26-3.27).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

INF = math.inf

__all__ = [
    "identity",
    "source_detection",
    "le_list",
    "distance_range",
    "k_shortest_paths",
]


def identity() -> Callable:
    """``r = id`` — the trivial representative projection."""

    def r(x):
        return x

    return r


def source_detection(
    sources: Iterable[int], k: int, dmax: float = INF
) -> Callable[[dict], dict]:
    """The ``(S, h, d, k)``-source detection filter (Example 3.2).

    Keeps, per node state, the ``k`` lexicographically smallest
    ``(distance, source)`` pairs among sources within distance ``dmax``;
    everything else becomes infinite (= absent).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    S = frozenset(int(s) for s in sources)

    def r(x: dict) -> dict:
        cand = [(d, v) for v, d in x.items() if v in S and d <= dmax]
        cand.sort()
        return {v: d for d, v in cand[:k]}

    return r


def le_list(rank: Sequence[int] | np.ndarray) -> Callable[[dict], dict]:
    """The least-element filter of Definition 7.3.

    ``rank`` is the random total order (``rank[v]`` = position of vertex
    ``v``).  An entry ``(v, x_v)`` survives iff there is no ``w`` with
    ``rank[w] < rank[v]`` and ``x_w <= x_v`` — i.e. the staircase of strict
    running rank minima in order of increasing distance.
    """
    rank = np.asarray(rank, dtype=np.int64)

    def r(x: dict) -> dict:
        items = [(d, int(rank[v]), v) for v, d in x.items() if d != INF]
        items.sort()
        out: dict = {}
        best = None
        for d, rk, v in items:
            if best is None or rk < best:
                out[v] = d
                best = rk
        return out

    return r


def distance_range(dmax: float) -> Callable[[float], float]:
    """Scalar range filter (forest fire, Example 3.7): keep iff ≤ ``dmax``."""

    def r(x: float) -> float:
        return x if x <= dmax else INF

    return r


def k_shortest_paths(
    k: int, sink: int, *, distinct: bool = False
) -> Callable[[dict], dict]:
    """The k-SDP / k-DSDP filter over the all-paths semiring (Section 3.3).

    For each start vertex ``v`` keeps (at most) ``k`` smallest-weight
    ``v``-``sink`` paths (ties broken by lexicographic path order,
    Equation 3.23).  With ``distinct=True`` keeps one representative per
    *distinct weight* (Equations 3.26-3.27), the k-DSDP variant.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sink = int(sink)

    def r(x: dict) -> dict:
        by_start: dict[int, list[tuple[float, tuple]]] = {}
        for path, w in x.items():
            if path[-1] != sink or w == INF:
                continue
            by_start.setdefault(path[0], []).append((w, path))
        out: dict = {}
        for cands in by_start.values():
            cands.sort()
            if distinct:
                kept = 0
                last_w = None
                for w, p in cands:
                    if last_w is not None and w == last_w:
                        continue  # only the lexicographically smallest per weight
                    if kept == k:
                        break
                    out[p] = w
                    last_w = w
                    kept += 1
            else:
                for w, p in cands[:k]:
                    out[p] = w
        return out

    return r
