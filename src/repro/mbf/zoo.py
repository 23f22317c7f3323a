"""The Section-3 zoo: classic algorithms expressed as MBF-like problems.

Each factory returns an :class:`~repro.mbf.problem.MBFProblem` bundling the
:class:`~repro.mbf.algorithm.MBFAlgorithm`, the initial state vector
``x^(0)``, a ``decode`` function, the declared *state family*, and (for
every family but all-paths) a vectorized dense form.  Run it through
:func:`~repro.mbf.problem.solve`, which picks the dense engine whenever
the problem has a dense form::

    from repro.api import solve
    inst = zoo.sssp(G.n, source=0)
    dists, iterations = solve(G, inst)            # engine="auto": dense

or explicitly through the reference engine::

    states, iterations = mbf.run_to_fixpoint(G, inst.algo, inst.x0)
    dists = inst.decode(states)

Implemented examples (paper reference in parentheses):

====================  ==============  ==============  =======================
factory               semiring        family          answer
====================  ==============  ==============  =======================
``sssp``              min-plus        min-plus        h-hop distances (Ex. 3.3)
``source_detection``  min-plus        distance-map    (S, h, d, k)-detection (Ex. 3.2)
``k_ssp``             min-plus        distance-map    k closest vertices (Ex. 3.4)
``apsp``              min-plus        distance-map    all-pairs distances (Ex. 3.5)
``mssp``              min-plus        min-plus        distances to sources (Ex. 3.6)
``forest_fire``       min-plus        min-plus        "fire within d?" flag (Ex. 3.7)
``sswp``              max-min         max-min         single-source widest (Ex. 3.13)
``apwp``              max-min         max-min         all-pairs widest (Ex. 3.14)
``mswp``              max-min         max-min         multi-source widest (Ex. 3.15)
``k_sdp``             all-paths       all-paths       k shortest v-s paths (Ex. 3.23)
``k_dsdp``            all-paths       all-paths       k distinct weights (Ex. 3.24)
``connectivity``      Boolean         boolean         h-hop reachability (Ex. 3.25)
``le_lists``          min-plus        distance-map    LE lists (Def. 7.3)
====================  ==============  ==============  =======================
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

import numpy as np

from repro.algebra.semiring import AllPaths, MaxMin, MinPlus
from repro.algebra.semimodule import (
    DistanceMapModule,
    SemiringAsModule,
    SetModule,
    WidthMapModule,
)
from repro.mbf import filters
from repro.mbf.algorithm import MBFAlgorithm, boolean_edge_entry
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    MinFilter,
    TopKFilter,
    check_rank,
)
from repro.mbf.problem import FlatForm, MBFProblem, ScalarForm

INF = math.inf

__all__ = [
    "sssp",
    "source_detection",
    "k_ssp",
    "apsp",
    "mssp",
    "forest_fire",
    "sswp",
    "apwp",
    "mswp",
    "k_sdp",
    "k_dsdp",
    "connectivity",
    "le_lists",
]

# ---------------------------------------------------------------------------
# Parameter validation helpers
# ---------------------------------------------------------------------------


def _check_vertex(n: int, v, label: str) -> int:
    v = operator.index(v)  # rejects floats instead of silently truncating
    if not 0 <= v < n:
        raise ValueError(f"{label} {v} out of range for n={n}")
    return v


def _check_sources(n: int, sources: Iterable[int], label: str = "source") -> list[int]:
    """Validated, deduplicated, sorted source list.

    Duplicates are dropped — a repeated source must not occupy two of the
    k slots of a ``(dist, source)`` cut.
    """
    return sorted({_check_vertex(n, s, label) for s in sources})


def _decode_distance_matrix(n: int):
    """Decoder for distance-map states: the ``(n, n)`` matrix, inf = absent."""

    def decode(states: list) -> np.ndarray:
        out = np.full((n, n), INF)
        for v, st in enumerate(states):
            for w, d in st.items():
                out[v, w] = d
        return out

    return decode


def _decode_width_matrix(n: int):
    """Decoder for width-map states: the ``(n, n)`` matrix, 0 = absent."""

    def decode(states: list) -> np.ndarray:
        out = np.zeros((n, n))
        for v, st in enumerate(states):
            for w, width in st.items():
                out[v, w] = width
        return out

    return decode


# ---------------------------------------------------------------------------
# Min-plus family
# ---------------------------------------------------------------------------


def sssp(n: int, source: int) -> MBFProblem:
    """Single-Source Shortest Paths (Example 3.3): ``M = S_min,+``, r = id."""
    source = _check_vertex(n, source, "source")
    module = SemiringAsModule(MinPlus())
    x0 = [0.0 if v == source else INF for v in range(n)]

    def decode(states: list) -> np.ndarray:
        return np.array(states, dtype=np.float64)

    init = np.full((n, 1), INF)
    init[source, 0] = 0.0
    return MBFProblem(
        MBFAlgorithm(module, name="SSSP"),
        x0,
        decode,
        family="min-plus",
        dense_form=ScalarForm("min-plus", init, decode=lambda X: X[:, 0].copy()),
    )


def source_detection(
    n: int, sources: Iterable[int], k: int, dmax: float = INF
) -> MBFProblem:
    """(S, h, d, k)-source detection (Example 3.2).

    Decodes to an ``(n, n)`` matrix with ``dist`` for detected (node, source)
    pairs and ``inf`` elsewhere.
    """
    module = DistanceMapModule(n)
    src = _check_sources(n, sources)
    r = filters.source_detection(src, k, dmax)
    src_set = set(src)
    x0 = [{v: 0.0} if v in src_set else {} for v in range(n)]
    decode = _decode_distance_matrix(n)
    if len(src) == n:
        mask = None  # every vertex allowed: skip the mask gather
    else:
        mask = np.zeros(n, dtype=bool)
        mask[src] = True
    return MBFProblem(
        MBFAlgorithm(module, filter=r, name=f"source-detection(k={k})"),
        x0,
        decode,
        family="distance-map",
        dense_form=FlatForm(
            BatchedFlatStates.from_sources(1, n, src),
            TopKFilter(k, dmax, mask),
            decode=lambda flat: flat.to_matrix(),
        ),
    )


def k_ssp(n: int, k: int) -> MBFProblem:
    """k-Source Shortest Paths = (V, h, inf, k)-source detection (Ex. 3.4)."""
    return source_detection(n, range(n), k)


def apsp(n: int) -> MBFProblem:
    """All-Pairs Shortest Paths = (V, h, inf, n)-source detection (Ex. 3.5).

    The filter degenerates to the identity; decode yields the full ``(n, n)``
    h-hop distance matrix.
    """
    module = DistanceMapModule(n)
    x0 = [{v: 0.0} for v in range(n)]
    return MBFProblem(
        MBFAlgorithm(module, name="APSP"),
        x0,
        _decode_distance_matrix(n),
        family="distance-map",
        dense_form=FlatForm(
            BatchedFlatStates.from_sources(1, n),
            MinFilter(),
            decode=lambda flat: flat.to_matrix(),
        ),
    )


def mssp(n: int, sources: Iterable[int]) -> MBFProblem:
    """Multi-Source Shortest Paths = (S, h, inf, |S|)-source detection (Ex. 3.6).

    With ``k = |S|`` and no distance cap the detection filter keeps every
    source entry, so the states are |S| independent scalar distances — the
    problem is declared scalar min-plus and runs as ``(n, |S|)`` stacked
    column fixpoints on the dense engine.
    """
    src = _check_sources(n, sources)
    module = DistanceMapModule(n)
    src_set = set(src)
    x0 = [{v: 0.0} if v in src_set else {} for v in range(n)]
    decode = _decode_distance_matrix(n)
    cols = np.asarray(src, dtype=np.int64)
    init = np.full((n, cols.size), INF)
    init[cols, np.arange(cols.size)] = 0.0

    def decode_dense(X: np.ndarray) -> np.ndarray:
        out = np.full((n, n), INF)
        out[:, cols] = X
        return out

    return MBFProblem(
        MBFAlgorithm(module, name=f"MSSP(|S|={len(src)})"),
        x0,
        decode,
        family="min-plus",
        dense_form=ScalarForm("min-plus", init, decode=decode_dense),
    )


def forest_fire(n: int, burning: Iterable[int], dmax: float) -> MBFProblem:
    """Forest fire detection (Example 3.7): is a burning node within ``dmax``?

    Anonymous variant: ``M = S_min,+`` with the range filter; decodes to a
    Boolean array.
    """
    if not dmax > 0:
        raise ValueError(f"forest fire needs a positive detection radius, got dmax={dmax}")
    burning_sorted = _check_sources(n, burning, "burning node")
    fire = set(burning_sorted)
    module = SemiringAsModule(MinPlus())
    r = filters.distance_range(dmax)
    x0 = [0.0 if v in fire else INF for v in range(n)]

    def decode(states: list) -> np.ndarray:
        # s != INF guards the degenerate dmax=inf instance: a vertex with
        # no reachable burning node (distance inf) must not report a fire.
        return np.array([s != INF and s <= dmax for s in states], dtype=bool)

    init = np.full((n, 1), INF)
    init[burning_sorted, 0] = 0.0
    return MBFProblem(
        MBFAlgorithm(module, filter=r, name=f"forest-fire(d={dmax})"),
        x0,
        decode,
        family="min-plus",
        dense_form=ScalarForm(
            "min-plus",
            init,
            decode=lambda X: np.isfinite(X[:, 0]) & (X[:, 0] <= dmax),
            dmax=dmax,
        ),
    )


# ---------------------------------------------------------------------------
# Max-min (widest path) family — note the adjacency convention of Eq. (3.9):
# the diagonal is one = inf (handled by the engine), off-diagonal entries are
# the edge weights, non-edges are zero = 0.
# ---------------------------------------------------------------------------


def sswp(n: int, source: int) -> MBFProblem:
    """Single-Source Widest Paths (Example 3.13)."""
    source = _check_vertex(n, source, "source")
    module = SemiringAsModule(MaxMin())
    x0 = [INF if v == source else 0.0 for v in range(n)]

    def decode(states: list) -> np.ndarray:
        return np.array(states, dtype=np.float64)

    init = np.zeros((n, 1))
    init[source, 0] = INF
    return MBFProblem(
        MBFAlgorithm(module, name="SSWP"),
        x0,
        decode,
        family="max-min",
        dense_form=ScalarForm("max-min", init, decode=lambda X: X[:, 0].copy()),
    )


def apwp(n: int) -> MBFProblem:
    """All-Pairs Widest Paths (Example 3.14): ``M = W``, r = id.

    Decodes to the ``(n, n)`` h-hop width matrix (0 = unreachable,
    ``width(v,v) = inf``).
    """
    module = WidthMapModule(n)
    x0 = [{v: INF} for v in range(n)]

    def init() -> np.ndarray:
        # Lazy: the (n, n) matrix is only materialized by the dense engine.
        out = np.zeros((n, n))
        np.fill_diagonal(out, INF)
        return out

    return MBFProblem(
        MBFAlgorithm(module, name="APWP"),
        x0,
        _decode_width_matrix(n),
        family="max-min",
        dense_form=ScalarForm("max-min", init, decode=lambda X: X.copy()),
    )


def mswp(n: int, sources: Iterable[int]) -> MBFProblem:
    """Multi-Source Widest Paths (Example 3.15)."""
    src = _check_sources(n, sources)
    module = WidthMapModule(n)
    src_set = set(src)
    x0 = [{v: INF} if v in src_set else {} for v in range(n)]
    decode = _decode_width_matrix(n)
    cols = np.asarray(src, dtype=np.int64)
    init = np.zeros((n, cols.size))
    init[cols, np.arange(cols.size)] = INF

    def decode_dense(X: np.ndarray) -> np.ndarray:
        out = np.zeros((n, n))
        out[:, cols] = X
        return out

    return MBFProblem(
        MBFAlgorithm(module, name=f"MSWP(|S|={len(src)})"),
        x0,
        decode,
        family="max-min",
        dense_form=ScalarForm("max-min", init, decode=decode_dense),
    )


# ---------------------------------------------------------------------------
# All-paths family (Section 3.3)
# ---------------------------------------------------------------------------


def _all_paths_instance(n: int, k: int, sink: int, distinct: bool) -> MBFProblem:
    if k < 1:
        raise ValueError("k must be >= 1")
    sink = _check_vertex(n, sink, "sink")
    semiring = AllPaths(n)
    module = SemiringAsModule(semiring)
    r = filters.k_shortest_paths(k, sink, distinct=distinct)

    def edge_entry(target: int, source: int, weight: float) -> dict:
        # Equation (3.18): a_vw contains exactly the path (v, w).
        return {(target, source): weight}

    x0: list = [{(v,): 0.0} for v in range(n)]

    def decode(states: list) -> list[list[tuple[float, tuple]]]:
        """Per start vertex: sorted list of ``(weight, path)`` to the sink."""
        out: list[list[tuple[float, tuple]]] = []
        for v, st in enumerate(states):
            paths = sorted((w, p) for p, w in st.items() if p[0] == v and p[-1] == sink)
            out.append(paths)
        return out

    name = f"k-{'D' if distinct else ''}SDP(k={k}, s={sink})"
    return MBFProblem(
        MBFAlgorithm(module, filter=r, edge_entry=edge_entry, name=name),
        x0,
        decode,
        family="all-paths",
    )


def k_sdp(n: int, k: int, sink: int) -> MBFProblem:
    """k-Shortest Distance Problem (Definition 3.21 / Example 3.23).

    Decodes, per vertex ``v``, the sorted ``(weight, path)`` list of the
    ``k`` lightest ``v``-``sink`` paths (the actual paths come for free,
    as the paper remarks).

    .. warning:: Reproduction erratum (DESIGN.md §6): the paper's filter is
       not a true congruence because concatenation of loop-free paths is
       partial; on rare adversarial instances the reported ``j``-th distance
       (``j ≥ 2``) can exceed the true ``j``-th lightest simple-path weight.
       ``k = 1`` is always exact.
    """
    return _all_paths_instance(n, k, sink, distinct=False)


def k_dsdp(n: int, k: int, sink: int) -> MBFProblem:
    """k-Distinct-Shortest Distance Problem (Example 3.24)."""
    return _all_paths_instance(n, k, sink, distinct=True)


# ---------------------------------------------------------------------------
# Boolean family (Section 3.4)
# ---------------------------------------------------------------------------


def connectivity(n: int) -> MBFProblem:
    """h-hop connectivity (Example 3.25): ``S = B``, states = vertex sets.

    Decodes to a Boolean ``(n, n)`` matrix: ``out[v, w]`` iff a ``v``-``w``
    path with at most ``h`` hops exists.  Works on disconnected graphs.

    Dense form: Equation (3.28) puts 1 on every edge, so reachability is
    hop counting — the min-plus kernel over unit weights, decoded through
    ``isfinite``.  A hop-count entry is finite after iteration ``i`` iff an
    ``≤ i``-hop path exists and never changes once finite, so the fixpoint
    (and its iteration count) coincides with the Boolean one.
    """
    module = SetModule(n)
    x0 = [frozenset([v]) for v in range(n)]

    def decode(states: list) -> np.ndarray:
        out = np.zeros((n, n), dtype=bool)
        for v, st in enumerate(states):
            for w in st:
                out[v, w] = True
        return out

    def init() -> np.ndarray:
        # Lazy: the (n, n) matrix is only materialized by the dense engine.
        out = np.full((n, n), INF)
        np.fill_diagonal(out, 0.0)
        return out

    return MBFProblem(
        MBFAlgorithm(module, edge_entry=boolean_edge_entry, name="connectivity"),
        x0,
        decode,
        family="boolean",
        dense_form=ScalarForm(
            "min-plus", init, decode=lambda X: np.isfinite(X), unit_weights=True
        ),
    )


# ---------------------------------------------------------------------------
# Distance-map family: LE lists (Section 7) as "just another zoo problem"
# ---------------------------------------------------------------------------


def le_lists(n: int, rank: np.ndarray) -> MBFProblem:
    """Least-element lists w.r.t. the random order ``rank`` (Definition 7.3).

    The FRT pipeline's workhorse query, expressed as an ordinary zoo
    problem: distance-map semimodule + LE filter.  Decodes to the
    canonical ``k = 1`` :class:`~repro.mbf.dense.BatchedFlatStates`
    (entries in ascending ``(dist, rank)`` order) on both engines, so
    decoded outputs are directly comparable via
    :meth:`~repro.mbf.dense.BatchedFlatStates.equals`.
    """
    ranks = check_rank(n, [rank])
    rank = ranks[0]
    module = DistanceMapModule(n)
    r = filters.le_list(rank)
    x0: list = [{v: 0.0} for v in range(n)]

    def decode(states: list) -> BatchedFlatStates:
        counts = np.zeros(n, dtype=np.int64)
        ids_parts: list[int] = []
        dist_parts: list[float] = []
        for v, d in enumerate(states):
            items = sorted(d.items(), key=lambda kv: (kv[1], rank[kv[0]]))
            counts[v] = len(items)
            ids_parts.extend(w for w, _ in items)
            dist_parts.extend(val for _, val in items)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return BatchedFlatStates(
            1,
            n,
            offsets,
            np.array(ids_parts, dtype=np.int64),
            np.array(dist_parts, dtype=np.float64),
        )

    return MBFProblem(
        MBFAlgorithm(module, filter=r, name="LE-lists"),
        x0,
        decode,
        family="distance-map",
        dense_form=FlatForm(
            BatchedFlatStates.from_sources(1, n),
            BatchedLEFilter(ranks),
            decode=lambda flat: flat,
        ),
    )
