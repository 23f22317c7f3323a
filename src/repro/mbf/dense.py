"""Vectorized MBF iterations for distance-map states (semimodule ``D``).

This is the "production" engine behind the core results.  Node states are
sparse distance maps stored *flat*: all entries of all nodes in three parallel
arrays plus per-node offsets (CSR layout).  One MBF iteration is

1. **propagate**  — every directed edge ``u -> v`` of weight ``w`` emits a
   copy of ``u``'s entries shifted by ``w`` and addressed to ``v``; every node
   additionally emits its own entries to itself (the diagonal ``a_vv = 0``);
2. **aggregate + filter** — one global lexsort groups entries by target and
   a vectorized filter keeps the representative sub-list per node.

Costs are charged to a :class:`~repro.pram.cost.CostLedger` following
Lemma 2.3 (aggregation of lists via parallel sorting: ``O(Σ|x_i| log n)``
work, ``O(log n)`` depth) so benchmarks can report paper-model work/depth.

Supported filters (all congruence-compatible, see ``tests/test_dense.py``
for the equivalence with the reference engine):

- :class:`MinFilter` — per (target, id) keep the minimum distance (identity
  filter on canonical representations; used by APSP / MSSP),
- :class:`TopKFilter` — source detection (Example 3.2),
- :class:`BatchedLEFilter` — least-element lists (Definition 7.3).

**One state type**: :class:`BatchedFlatStates` holds ``k`` independent
state vectors over the same graph, stored back to back, entries keyed by
the composite segment id ``sample * n + target``; a single run is the
``k = 1`` batch.  The kernels (:func:`propagate_batched`,
:func:`aggregate_batched`, :func:`dense_iteration_batched_ex`,
:func:`run_dense_batched`) advance all ``k`` samples in one NumPy pass;
:class:`BatchedLEFilter` carries one rank permutation per sample (a
``(k, n)`` matrix indexed per-entry through the composite segment id).
For LE lists the iteration uses an *incremental* aggregation — propagated
entries that are dominated
by (or duplicates of) the target's current staircase can never survive the
filter (the self-contribution puts their dominator in every merge), so
they are pruned before any sort.  The directed edges come grouped by
target, so the candidates do too, and one vectorized bisection inside
each candidate's target segment finds the last current entry no farther
than it: that index decides the prune and, for a survivor, its merge
position.  Only the small survivor set is sorted — one near-linear
stable sort of already target-grouped ``(segment, dist)`` keys — and
staircase-merged into the current lists.  Aggregation is per target and
the filter is a congruence, so the step runs propagate → prune → merge
over contiguous blocks of composite targets, each holding at most
``_LE_BLOCK_ENTRIES`` candidates plus current entries: the transient
memory is bounded by that budget plus the state, not by the candidate
count, and the lists are the same bit for bit.

**Two kernels, one result.**  The LE step runs in C where a compiler
works: ``_lestep.c`` does propagate, prune, survivor sort and merge in
one pass per target, writing the next lists straight into state-sized
buffers (:func:`_le_iteration_native`; built on the first LE step and
cached, see :mod:`repro.mbf.native`).  Without a working compiler the
step runs the NumPy kernel above (:func:`_le_iteration_incremental`) and
warns once.  The two give the same lists, flags and ledger charges bit
for bit, and the parity tests run on both; :func:`le_kernel` says which
one runs.

The iteration is also *semi-naive* (Moore's refinement of Bellman-Ford:
relax only from labels that changed).  Each LE step reports which entries
it inserted, and the next step propagates only those.  This is exact in
the algebraic view: the filter is a congruence (Corollary 2.17) and
``⊕ = min`` is idempotent, so an entry already present in ``x_u^(i-1)``
re-emits candidates that ``x_v^(i)`` already holds or dominates — the prune
would drop every one of them.  The fixpoint drivers thread this delta mask
from step to step and slice it by sample when converged samples drop out;
a step given no mask propagates everything, which is always exact.  The
result is bit-identical to the generic full-sort iteration (pinned by
tests); the per-sample cost ledgers still charge the *model* cost of
Lemma 2.3 (propagate + sort + filter over every entry of every list).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.graph.core import Graph
from repro.mbf import native
from repro.mbf.engine import fixpoint_error
from repro.pram.cost import CostLedger

INF = math.inf

# Load cap of one target block of the LE step: the block's candidates plus
# its targets' current entries.  Every candidate-sized array of the step
# lives for one block, so the step's transient is O(budget) + O(state)
# instead of O(candidates).  Chosen by a peak-RSS scan over six direct
# random_graph(4096, 12288), k=16 builds per process (2-core VM, two
# rounds): 2^14 / 2^15 / 2^16 / 2^17 / 2^18 / 2^19 read 135-136 /
# 133-135 / 132 / 137 / 138-141 / 153-154 MiB, unblocked 201-205 MiB,
# at about equal build times.  Smaller blocks put their arrays near
# glibc's mmap threshold, where freed memory is reused worse, and pay
# more per-block dispatch; larger ones grow toward the unblocked peak.
_LE_BLOCK_ENTRIES = 1 << 16

__all__ = [
    "BatchedFlatStates",
    "check_rank",
    "FilterSpec",
    "MinFilter",
    "TopKFilter",
    "BatchedLEFilter",
    "propagate_batched",
    "aggregate_batched",
    "dense_iteration_batched_ex",
    "take_active_samples",
    "charge_emission",
    "run_batched_fixpoint",
    "prepare_batch_run",
    "run_dense_batched",
    "segmented_searchsorted",
    "le_kernel",
]


def _segment_keys(seg: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Composite ``(segment, value)`` keys, ordered lexicographically.

    NumPy orders complex numbers by real part, then imaginary part, so a
    complex array holding the segment id in ``real`` and the value in
    ``imag`` sorts and searches exactly like the pair — no additive offset
    tricks that could perturb float ordering.  ``seg`` broadcasts against
    ``values``.  The keys are assembled by field, not arithmetic: ``1j *
    inf`` would produce a NaN real part and break the order.  Segment ids
    must stay below ``2**53`` (exact in float64).  Used by
    :func:`segmented_searchsorted` and by the LE iteration's survivor
    sort; the LE prune searches plain distances (:func:`_last_at_most`).
    """
    keys = np.empty(np.shape(values), dtype=np.complex128)
    keys.real = seg
    keys.imag = values
    return keys


def _last_at_most(
    offsets: np.ndarray,  # shape: (s+1,) int64 frozen
    counts: np.ndarray,  # shape: (s,) int64 frozen
    dists: np.ndarray,  # shape: (total,) float64 frozen
    seg: np.ndarray,  # shape: (m,) int64 frozen
    q: np.ndarray,  # shape: (m,) float64 frozen
    steps: int,  # shape: scalar
) -> np.ndarray:  # shape: -> (m,) int64
    """Per query, the flat index of the last ``dists`` entry ``<= q`` in its segment.

    ``dists[offsets[j] : offsets[j] + counts[j]]`` is segment ``j``,
    sorted ascending.  Query ``i`` searches segment ``seg[i]`` for
    ``q[i]`` and gets ``offsets[seg[i]] - 1`` if no entry is ``<= q[i]``
    (that index belongs to an earlier segment, or wraps to ``-1``).  One
    vectorized bisection inside each query's own segment: the answer lies
    in ``[base, base + span)``, each step tests the midpoint and halves
    ``span``, so ``steps >= max(counts).bit_length()`` steps over plain
    float64 values settle every query.  A settled query (``span == 1``)
    re-tests its own ``base`` and keeps it, so extra steps change nothing;
    the caller computes ``steps`` once for all the searches it makes.
    """
    base = offsets[seg] - 1
    span = counts[seg] + 1
    idx = np.empty_like(base)
    at_most = np.empty(base.shape, dtype=bool)
    for _ in range(steps):
        np.right_shift(span, 1, out=idx)
        span -= idx
        idx += base
        np.less_equal(dists[idx], q, out=at_most)
        np.copyto(base, idx, where=at_most)
    return base


def segmented_searchsorted(
    offsets: np.ndarray,  # shape: (s+1,) int64 frozen
    values: np.ndarray,  # shape: (total,) float64 frozen
    queries: np.ndarray,  # shape: (s, q) float64 frozen
    side: str = "right",  # shape: scalar
) -> np.ndarray:  # shape: -> (s, q) int64
    """Per-segment :func:`numpy.searchsorted` over a CSR array, in one call.

    ``values[offsets[j]:offsets[j+1]]`` is segment ``j``, sorted ascending;
    ``queries[j]`` holds segment ``j``'s query values (one row per segment,
    any fixed number of queries).  Returns the insertion positions *within*
    each segment, shape ``queries.shape`` — exactly
    ``searchsorted(values[offsets[j]:offsets[j+1]], queries[j], side)`` for
    every ``j``, but as a single flat binary search over
    :func:`_segment_keys`.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    num_segments = offsets.size - 1
    if queries.ndim != 2 or queries.shape[0] != num_segments:
        raise ValueError(
            f"queries must have shape (num_segments={num_segments}, q)"
        )
    seg = np.arange(num_segments, dtype=np.float64)
    keys = _segment_keys(np.repeat(seg, np.diff(offsets)), values)
    pos = np.searchsorted(keys, _segment_keys(seg[:, None], queries).ravel(), side=side)
    return pos.reshape(queries.shape) - offsets[:-1, None]


@dataclass
class BatchedFlatStates:
    """CSR-layout states of ``k`` independent samples over the same graph.

    The sample axis is folded into the segment structure: segment
    ``s * n + v`` holds sample ``s``'s state at node ``v`` (``offsets`` has
    ``k * n + 1`` entries).  ``ids`` are *actual* vertex ids ``0..n-1`` —
    propagation never crosses samples, so only targets need the composite
    addressing.  Entries within a segment are kept in the order the
    producing filter emits (deterministic), so two batches are comparable
    array-wise.  A single state vector is the ``k = 1`` batch, whose
    segments are the ``n`` nodes.
    """

    k: int
    n: int
    offsets: np.ndarray  # (k*n+1,) int64
    ids: np.ndarray  # (total,) int64, values in 0..n-1
    dists: np.ndarray  # (total,) float64

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_sources(
        cls, k: int, n: int, sources: Iterable[int] | None = None
    ) -> "BatchedFlatStates":
        """``k`` copies of the canonical initialization ``x^(0)``.

        ``{v: 0}`` for every source; ``sources=None`` means every vertex is
        a source (Equation 3.1).
        """
        if k < 1:
            raise ValueError("batch size k must be >= 1")
        if sources is None:
            src = np.arange(n, dtype=np.int64)
        else:
            src = np.unique(np.asarray(list(sources), dtype=np.int64))
            if src.size and (src.min() < 0 or src.max() >= n):
                raise ValueError("source out of range")
        counts = np.zeros(n, dtype=np.int64)
        counts[src] = 1
        offsets = np.concatenate([[0], np.cumsum(np.tile(counts, k))])
        return cls(k, n, offsets, np.tile(src, k), np.zeros(k * src.size))

    @classmethod
    def from_dicts(cls, dicts: Sequence[dict]) -> "BatchedFlatStates":
        """The ``k = 1`` batch of reference-engine states (one dict per node)."""
        n = len(dicts)
        ids_parts, dist_parts, counts = [], [], np.zeros(n, dtype=np.int64)
        for v, d in enumerate(dicts):
            items = sorted((k, val) for k, val in d.items() if val != INF)
            counts[v] = len(items)
            ids_parts.extend(k for k, _ in items)
            dist_parts.extend(val for _, val in items)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return cls(
            1,
            n,
            offsets,
            np.array(ids_parts, dtype=np.int64),
            np.array(dist_parts, dtype=np.float64),
        )

    @classmethod
    def concat(
        cls,
        batches: Sequence["BatchedFlatStates"],  # shape: (b,) object frozen
    ) -> "BatchedFlatStates":  # shape: -> object owned
        """Concatenate batches along the *sample* axis, zero re-encoding.

        The inverse of sharding: ``concat([B.take(range(0, j)),
        B.take(range(j, k))])`` equals ``B`` bit for bit, for any split
        point — entries are already stored sample-major, so the payload
        arrays concatenate verbatim and only the offsets are rebased by
        each predecessor's running entry total.  All batches must share
        ``n``; this is what the sharded ensemble path uses to re-assemble
        per-worker shard results into the single-process layout.
        """
        if not batches:
            raise ValueError("need at least one batch")
        n = batches[0].n
        if any(b.n != n for b in batches):
            raise ValueError("all batches must share the same node count")
        totals = np.cumsum([0] + [b.total for b in batches])
        offsets = np.concatenate(
            [[0]] + [b.offsets[1:] + base for b, base in zip(batches, totals)]
        )
        return cls(
            sum(b.k for b in batches),
            n,
            offsets.astype(np.int64, copy=False),
            np.concatenate([b.ids for b in batches]),
            np.concatenate([b.dists for b in batches]),
        )

    # -- accessors ----------------------------------------------------------

    @property
    def total(self) -> int:
        """Total stored entries across all samples and nodes."""
        return int(self.ids.size)

    def counts(self) -> np.ndarray:
        """Per-(sample, node) entry counts, flat ``(k*n,)``."""
        return np.diff(self.offsets)

    def sample_totals(self) -> np.ndarray:
        """Total entries per sample, ``(k,)``."""
        bounds = self.offsets[:: self.n]
        return np.diff(bounds)

    def segment_last(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, dists)`` of every segment's *last* entry, each ``(k, n)``.

        For LE lists (entries ascending by distance) this is the farthest —
        i.e. globally minimum-rank — entry per (sample, node).  Every
        segment must be non-empty.
        """
        if np.any(np.diff(self.offsets) == 0):
            raise ValueError("segment_last requires non-empty segments")
        last = self.offsets[1:] - 1
        return (
            self.ids[last].reshape(self.k, self.n),
            self.dists[last].reshape(self.k, self.n),
        )

    def node(self, seg: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, dists)`` of segment ``seg = s * n + v`` (node ``v`` at ``k = 1``)."""
        lo, hi = self.offsets[seg], self.offsets[seg + 1]
        return self.ids[lo:hi], self.dists[lo:hi]

    def to_dicts(self) -> list[dict]:
        """Reference-engine representation: one dict per segment, ``k * n``."""
        return [
            dict(zip(self.ids[lo:hi].tolist(), self.dists[lo:hi].tolist()))
            for lo, hi in zip(self.offsets[:-1], self.offsets[1:])
        ]

    def to_matrix(self) -> np.ndarray:
        """Dense ``(k * n, n)`` matrix with ``inf`` for absent entries."""
        out = np.full((self.k * self.n, self.n), INF)
        owner = np.repeat(np.arange(self.k * self.n), self.counts())
        out[owner, self.ids] = self.dists
        return out

    def sample_states(self, s: int) -> "BatchedFlatStates":
        """Sample ``s``'s state vector as a standalone ``k = 1`` batch (a copy)."""
        return self.take([s])

    def take(self, sample_idx: np.ndarray) -> "BatchedFlatStates":
        """Sub-batch of the given samples, in the given order (a copy)."""
        return _take_samples(self, sample_idx)[0]

    def restrict(self, keep_mask: np.ndarray) -> "BatchedFlatStates":
        """Projection ``P`` applied to every sample (Equation 5.2).

        Entries of non-selected nodes are dropped wholesale (their state
        becomes ⊥).  O(total).
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.n,):
            raise ValueError("mask must have shape (n,)")
        keep = np.tile(keep_mask, self.k)
        counts = self.counts()
        entry_keep = np.repeat(keep, counts)
        offsets = np.concatenate([[0], np.cumsum(counts * keep)])
        return BatchedFlatStates(
            self.k, self.n, offsets, self.ids[entry_keep], self.dists[entry_keep]
        )

    def equals(self, other: "BatchedFlatStates") -> bool:
        """Exact equality of the whole batch."""
        return (
            self.k == other.k
            and self.n == other.n
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.dists, other.dists)
        )

    def sample_equal(self, other: "BatchedFlatStates") -> np.ndarray:
        """Per-sample exact equality, ``(k,)`` bool."""
        if self.k != other.k or self.n != other.n:
            raise ValueError("batch shape mismatch")
        k, n = self.k, self.n
        eq = (
            (self.counts().reshape(k, n) == other.counts().reshape(k, n))
            .all(axis=1)
        )
        for s in np.flatnonzero(eq):
            lo_a, hi_a = self.offsets[s * n], self.offsets[(s + 1) * n]
            lo_b, hi_b = other.offsets[s * n], other.offsets[(s + 1) * n]
            eq[s] = np.array_equal(
                self.ids[lo_a:hi_a], other.ids[lo_b:hi_b]
            ) and np.array_equal(self.dists[lo_a:hi_a], other.dists[lo_b:hi_b])
        return eq


def _take_samples(
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    sample_idx: np.ndarray,  # shape: (j,) int64 frozen
) -> tuple[BatchedFlatStates, list[slice]]:
    """The given samples, in the given order, and their entry ranges.

    A sample's entries are one contiguous range of ``states``, so the
    sub-batch copies each kept range once (contiguous copies beat an
    element gather), and ``ranges`` slices any per-entry array the same
    way.  Its offsets are the kept samples' offset rows, rebased.
    """
    sample_idx = np.asarray(sample_idx, dtype=np.int64)
    n = states.n
    seg = states.offsets[sample_idx[:, None] * n + np.arange(n + 1)]  # (j, n+1)
    sizes = seg[:, -1] - seg[:, 0]
    shift = seg[:, 0] - (np.cumsum(sizes) - sizes)  # old minus new entry position
    ranges = [slice(lo, hi) for lo, hi in zip(seg[:, 0].tolist(), seg[:, -1].tolist())]
    taken = BatchedFlatStates(
        sample_idx.size,
        n,
        np.append((seg[:, :-1] - shift[:, None]).ravel(), sizes.sum()),
        np.concatenate([states.ids[r] for r in ranges]),
        np.concatenate([states.dists[r] for r in ranges]),
    )
    return taken, ranges


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


class FilterSpec:
    """Base class: a vectorized representative projection.

    Subclasses implement :meth:`sort_keys` (secondary/tertiary sort keys
    within a target group) and :meth:`keep_mask` (given globally sorted
    entries and their segment structure, which survive).
    """

    def sort_keys(
        self, ids: np.ndarray, dists: np.ndarray, tgt: np.ndarray
    ) -> tuple:
        """Keys sorted *before* the target key in ``np.lexsort`` order.

        ``tgt`` carries the (possibly composite ``sample * n + target``)
        segment key of each entry — sample-aware filters derive the sample
        from it; sample-oblivious filters ignore it.
        """
        raise NotImplementedError

    def keep_mask(
        self,
        tgt: np.ndarray,
        ids: np.ndarray,
        dists: np.ndarray,
        seg_id: np.ndarray,
        n: int,
    ) -> np.ndarray:
        """Boolean survival mask over the (sorted) entries."""
        raise NotImplementedError

    def take(self, sample_idx: np.ndarray) -> "FilterSpec":
        """The filter for a sub-batch of samples (batched drivers only).

        Sample-oblivious filters apply identically to every sample and
        return ``self``; per-sample filters re-slice their state.
        """
        return self


class MinFilter(FilterSpec):
    """Keep the minimum distance per (target, id): the canonical identity.

    This is plain aggregation (Lemma 2.3) — no information is discarded
    beyond duplicate/dominated copies of the same key.
    """

    def sort_keys(
        self, ids: np.ndarray, dists: np.ndarray, tgt: np.ndarray
    ) -> tuple:
        # lexsort uses the *last* key as primary; caller appends targets.
        return (dists, ids)

    def keep_mask(self, tgt, ids, dists, seg_id, n) -> np.ndarray:
        keep = np.ones(tgt.size, dtype=bool)
        if tgt.size > 1:
            same = (tgt[1:] == tgt[:-1]) & (ids[1:] == ids[:-1])
            keep[1:] = ~same
        return keep


class TopKFilter(FilterSpec):
    """Source detection (Example 3.2): k smallest ``(dist, id)`` pairs.

    ``source_mask[v]`` marks allowed sources; ``dmax`` is the distance cap.
    Entries are sorted dist-major within a target (``(target, dist, id)``),
    deduplicated per (target, id) to their minimum distance, and the first
    ``k`` survivors per target are kept.

    Note: with entries sorted by ``(target, dist, id)``, duplicates of an id
    within a target are *not* adjacent; we remove them with an auxiliary
    first-occurrence pass before ranking.
    """

    def __init__(self, k: int, dmax: float = INF, source_mask: np.ndarray | None = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.dmax = float(dmax)
        self.source_mask = source_mask

    def sort_keys(
        self, ids: np.ndarray, dists: np.ndarray, tgt: np.ndarray
    ) -> tuple:
        return (ids, dists)

    def keep_mask(self, tgt, ids, dists, seg_id, n) -> np.ndarray:
        # Drop disallowed sources / too-far entries up front.
        ok = dists <= self.dmax
        if self.source_mask is not None:
            ok &= self.source_mask[ids]
        # First occurrence per (target, id) — entries are sorted by
        # (target, dist, id) so we detect duplicates via a (target, id) key.
        pair_key = seg_id.astype(np.int64) * n + ids
        order = np.argsort(pair_key, kind="stable")  # stable: keeps dist order
        first_in_pair = np.ones(tgt.size, dtype=bool)
        pk_sorted = pair_key[order]
        first_sorted = np.ones(tgt.size, dtype=bool)
        if tgt.size > 1:
            first_sorted[1:] = pk_sorted[1:] != pk_sorted[:-1]
        first_in_pair[order] = first_sorted
        ok &= first_in_pair
        # Rank surviving entries within their target segment.
        surv_idx = np.flatnonzero(ok)
        if surv_idx.size == 0:
            return ok
        surv_seg = seg_id[surv_idx]
        seg_start = np.ones(surv_idx.size, dtype=bool)
        seg_start[1:] = surv_seg[1:] != surv_seg[:-1]
        start_pos = np.maximum.accumulate(np.where(seg_start, np.arange(surv_idx.size), 0))
        within = np.arange(surv_idx.size) - start_pos
        ok[surv_idx[within >= self.k]] = False
        return ok


def check_rank(
    n: int,  # shape: scalar
    ranks: np.ndarray,  # shape: (k, n) int64 frozen
) -> np.ndarray:  # shape: -> (k, n) int64
    """Validate LE random orders: a ``(k, n)`` int64 matrix, ``k >= 1``,
    each row a permutation of ``0..n-1``.

    The one rank validation, shared by the LE drivers
    (:mod:`repro.frt.lelists`), the reference engine's LE path, the
    congest layer and ``zoo.le_lists``; one order is the ``k = 1`` matrix
    ``[rank]``.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.ndim != 2 or ranks.shape[1] != n:
        raise ValueError(f"rank must be a (k, {n}) matrix, got shape {ranks.shape}")
    if ranks.shape[0] < 1:
        raise ValueError("rank must hold at least one sample")
    if not np.array_equal(np.sort(ranks, axis=1), np.broadcast_to(np.arange(n), ranks.shape)):
        raise ValueError(f"every rank row must be a permutation of 0..{n - 1}")
    return ranks


class BatchedLEFilter(FilterSpec):
    """The least-element filter of Definition 7.3, one order per sample.

    ``ranks`` is a ``(k, n)`` matrix — one random total order per ensemble
    sample (one order is ``rank[None, :]``).  An entry addressed to the
    composite target ``s * n + v`` is keyed by ``ranks[s, id]``; deriving
    ``s`` from the target is what lets one global sort aggregate all ``k``
    samples at once.  Within a segment, after sorting by ``(dist, rank)``,
    an entry survives iff its rank is a *strict* running minimum — the
    staircase.  The per-segment prefix minimum uses the offset trick:
    later segments get smaller bases (``rank - segment * (n + 1)``), so
    segments occupy disjoint descending value ranges and one global
    ``np.minimum.accumulate`` suffices.  The dense drivers run this
    filter through the incremental prune/merge step
    (:func:`_le_iteration_incremental`); ``sort_keys``/``keep_mask`` are
    its full-sort form, which the generic iteration applies.
    """

    def __init__(self, ranks: np.ndarray):
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.ndim != 2:
            raise ValueError("ranks must be a (k, n) matrix")
        self.ranks = ranks
        self.k, self.n = ranks.shape
        self._flat = np.ascontiguousarray(ranks).reshape(-1)

    def entry_ranks(self, tgt: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Per-entry rank under the entry's *own sample's* order."""
        return self._flat[(tgt // self.n) * self.n + ids]

    def sort_keys(
        self, ids: np.ndarray, dists: np.ndarray, tgt: np.ndarray
    ) -> tuple:
        return (self.entry_ranks(tgt, ids), dists)

    def keep_mask(self, tgt, ids, dists, seg_id, n) -> np.ndarray:
        if tgt.size == 0:
            return np.zeros(0, dtype=bool)
        adjusted = self.entry_ranks(tgt, ids) - seg_id.astype(np.int64) * (
            self.n + 1
        )
        run_min = np.minimum.accumulate(adjusted)
        keep = np.ones(tgt.size, dtype=bool)
        keep[1:] = adjusted[1:] < run_min[:-1]
        return keep

    def take(self, sample_idx: np.ndarray) -> "BatchedLEFilter":
        return BatchedLEFilter(self.ranks[np.asarray(sample_idx, dtype=np.int64)])


# ---------------------------------------------------------------------------
# Iteration kernels
# ---------------------------------------------------------------------------


def _virtual_edges(
    k: int, n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicate the directed edge set across ``k`` virtual node blocks."""
    if k == 1:
        return src, dst, w
    base = (np.arange(k, dtype=np.int64) * n)[:, None]
    vsrc = (base + src[None, :]).reshape(-1)
    vdst = (base + dst[None, :]).reshape(-1)
    vw = np.broadcast_to(w, (k, w.size)).reshape(-1)
    return vsrc, vdst, vw


def _stable_lexsort(keys: tuple) -> np.ndarray:
    """``np.lexsort`` semantics via composed stable argsorts.

    Identical permutation (stable lexicographic order is unique); integer
    keys get NumPy's radix path, which is what makes the batched global
    sort competitive with many small per-sample sorts.
    """
    order: np.ndarray | None = None
    for key in keys:
        key = np.asarray(key)
        sub = key if order is None else key[order]
        o = np.argsort(sub, kind="stable")
        order = o if order is None else order[o]
    assert order is not None
    return order


def charge_emission(
    ledgers: Sequence[CostLedger] | None,
    emitted: np.ndarray,  # shape: (k,) int64 frozen
) -> None:
    """Charge the Lemma 2.3 model cost of one iteration to each sample.

    Charges what the generic iteration charges (:func:`propagate_batched`
    then :func:`aggregate_batched`): ``emitted[s]`` parallel work for
    propagation, an ``emitted[s]``-key sort plus an ``emitted[s]``-item
    filter scan for aggregation; samples that emitted nothing (empty
    states) are charged nothing.  The LE step charges it for full
    emission whatever it emits, and so does the oracle for a chain step
    it derives without the kernel.
    """
    if ledgers is None:
        return
    for led, e in zip(ledgers, emitted):
        e = int(e)
        if e == 0:
            continue
        led.parallel_for(e, 1, 1)
        led.sort(e)
        led.parallel_for(e, 1, 1)


def propagate_batched(
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    src: np.ndarray,  # shape: (E,) int64 frozen
    dst: np.ndarray,  # shape: (E,) int64 frozen
    w: np.ndarray,  # shape: (E,) float64 frozen
    *,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Emit all propagated entries: returns flat ``(targets, ids, dists)``.

    For each directed edge ``src[e] -> dst[e]`` every entry of each
    sample's ``states[src[e]]`` is re-addressed to ``dst[e]`` with distance
    increased by ``w[e]`` (the semimodule action ``w ⊙ x``); each node's
    own entries are also emitted (diagonal ``a_vv = 0``).  Targets are
    composite ``sample*n + v``, entry ids remain actual vertex ids;
    per-sample model costs are charged to ``ledgers`` (one per sample)
    when given.
    """
    k, n = states.k, states.n
    vsrc, vdst, vw = _virtual_edges(k, n, src, dst, w)
    counts = states.counts()
    edge_counts = counts[vsrc]
    rep_edge = np.repeat(np.arange(vsrc.size), edge_counts)
    cum = np.concatenate([[0], np.cumsum(edge_counts)])
    gather = states.offsets[vsrc[rep_edge]] + np.arange(rep_edge.size) - cum[rep_edge]
    own_tgt = np.repeat(np.arange(k * n, dtype=np.int64), counts)
    vtgt = np.concatenate([vdst[rep_edge], own_tgt])
    ids = np.concatenate([states.ids[gather], states.ids])
    dists = np.concatenate([states.dists[gather] + vw[rep_edge], states.dists])
    if ledgers is not None:
        per = np.bincount(vtgt // n, minlength=k)
        for led, e in zip(ledgers, per):
            led.parallel_for(int(e), 1, 1)
    return vtgt, ids, dists


def aggregate_batched(
    k: int,  # shape: scalar
    n: int,  # shape: scalar
    vtgt: np.ndarray,  # shape: (m,) int64 frozen
    ids: np.ndarray,  # shape: (m,) int64 frozen
    dists: np.ndarray,  # shape: (m,) float64 frozen
    spec: FilterSpec,
    *,
    ledgers: Sequence[CostLedger] | None = None,
) -> BatchedFlatStates:  # shape: -> csr(k*n)
    """Group flat entries by target and apply the filter ``spec``.

    One global stable lexsort by ``(target, <spec keys>)`` realizes the
    paper's parallel-merge aggregation (Lemma 2.3): ``O(E log E)`` work at
    ``O(log E)`` depth for ``E`` entries.  The composite target
    ``sample * n + v`` is the primary sort key, so one pass groups every
    sample's every node; sample-aware filters (:class:`BatchedLEFilter`)
    recover the sample from the composite id, so each sample's result
    does not depend on the rest of the batch.
    """
    kn = k * n
    E = int(vtgt.size)
    if ledgers is not None and E:
        per = np.bincount(vtgt // n, minlength=k)
        for led, e in zip(ledgers, per):
            e = int(e)
            if e:
                led.sort(e)
                led.parallel_for(e, 1, 1)
    if E == 0:
        return BatchedFlatStates(
            k, n, np.zeros(kn + 1, dtype=np.int64), ids[:0], dists[:0]
        )
    keys = spec.sort_keys(ids, dists, vtgt)
    order = _stable_lexsort(keys + (vtgt,))
    tgt_s, ids_s, dists_s = vtgt[order], ids[order], dists[order]
    seg_start = np.ones(E, dtype=bool)
    seg_start[1:] = tgt_s[1:] != tgt_s[:-1]
    seg_id = np.cumsum(seg_start) - 1
    keep = spec.keep_mask(tgt_s, ids_s, dists_s, seg_id, kn)
    kept_tgt = tgt_s[keep]
    counts = np.bincount(kept_tgt, minlength=kn)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return BatchedFlatStates(k, n, offsets, ids_s[keep], dists_s[keep])


def _charge_le_step(
    G: Graph, states: BatchedFlatStates, ledgers: Sequence[CostLedger] | None
) -> None:
    """Charge one LE step's model cost, whatever either kernel emits.

    Full emission sends every entry of ``states`` along every out-edge plus
    its own entries, and sorts them all; this charges that per sample.
    """
    if ledgers is None:
        return
    out_degree = np.bincount(G.directed_edges()[0], minlength=states.n)
    emitted = np.diff(states.offsets).reshape(states.k, states.n) @ out_degree
    charge_emission(ledgers, emitted + states.sample_totals())


def _le_iteration_incremental(
    G: Graph,
    states: BatchedFlatStates,
    spec: BatchedLEFilter,
    *,
    weight_scale: float = 1.0,
    ledgers: Sequence[CostLedger] | None = None,
    fresh: np.ndarray | None = None,
    base: BatchedFlatStates | None = None,
) -> tuple[BatchedFlatStates, np.ndarray, np.ndarray]:
    """One batched LE iteration: semi-naive emission, prune, staircase merge.

    Blocks: the call walks contiguous blocks of composite targets
    ``s * n + v`` and runs emission, prune, survivor sort and merge on one
    block at a time.  Aggregation is per target and the filter is a
    congruence (Corollary 2.17), so any partition of the targets gives the
    same lists.  A block's load — its candidates plus its targets' current
    entries — stays at or under ``_LE_BLOCK_ENTRIES``; a target heavier
    than that forms a block of its own.  The directed edges come grouped by
    target and the samples' edge copies are stacked in order, so a block's
    candidates are those of one contiguous edge slice.  Every
    candidate-sized array lives for one block, which bounds the step's
    transient memory by the budget plus the state instead of by the
    candidate count; the budget's value comes from a peak-RSS scan (see
    its comment).  A call whose whole load fits the budget runs as one
    block, with no bounds computed and nothing concatenated.

    Prune: the self-contribution puts the target's current list in
    every merge, so a propagated entry that some current entry ``(d', r')``
    dominates (``d' <= d`` and ``r' <= r``; equal rank means the identical
    vertex) can never survive the staircase — the dominator precedes it in
    ``(dist, rank)`` order and pins the running minimum below its rank.
    Along a staircase ranks fall as distances rise, so the one entry to
    test is the last one no farther than the candidate
    (:func:`_last_at_most`); the same index places a survivor in the merge.

    Survivor order: the candidates come grouped by target (the directed
    edges are), so one stable sort by ``(target, dist)`` only merges
    sorted runs.  The full sort would also order by rank; instead each
    equal-``(target, dist)`` run keeps just its minimum-rank entries, the
    only ones the staircase can keep, and copies of one vertex are
    identical.  The merged lists therefore equal the full sort's, bit for
    bit.

    Delta: ``fresh`` marks the entries of ``states`` that the previous
    iteration (same graph, filter and ``weight_scale``) inserted; ``None``
    means every entry and is always exact.  Only fresh entries are
    propagated.  An entry that is not fresh was already in its node's list
    one step earlier, so every candidate it emits now was emitted then,
    and the filtered list that absorbed it — the target's current list —
    holds it or a dominator of it: the prune would drop it anyway.  The
    ledgers are still charged the full Lemma 2.3 emission, computed from
    the list lengths, once per call.

    Base: with ``base`` given, the current lists that candidates are
    merged into are ``base``'s, not ``states``'; the fresh entries of
    ``states`` are then also emitted to their own node (a zero-weight
    loop, last in each target's edge group), since ``base`` need not hold
    them.  The result is ``r(base ⊕ F ⊕ A·F)`` for the fresh entries
    ``F``: the oracle's warm chain step (:mod:`repro.oracle.oracle`).
    ``base`` must hold or dominate every entry of ``states`` that is not
    fresh, as there: then an entry of ``states`` that dominates a
    candidate, or a dominator of that entry, is in the merge, so the prune
    tests candidates against ``states`` first — far fewer survive it than
    a test against ``base`` alone, which lacks the fresh entries — and
    the survivors against ``base``.  The ledgers are charged from
    ``states`` as without ``base``.

    Returns ``(next_states, changed, inserted)``: ``inserted`` marks the
    entries of ``next_states`` this iteration inserted into the current
    lists (the next call's ``fresh`` when there is no ``base``), and
    ``changed[s]`` says sample ``s`` inserted any (``False`` == fixpoint
    reached, without ``base``).  A call without survivors returns the
    current lists' batch itself.
    """
    k, n = states.k, states.n
    kn = k * n
    src, dst, w = G.directed_edges()
    _charge_le_step(G, states, ledgers)
    scounts = np.diff(states.offsets)
    if base is not None:
        loops = np.arange(n, dtype=np.int64)
        at = np.searchsorted(dst, loops, side="right")
        src, dst, w = np.insert(src, at, loops), np.insert(dst, at, loops), np.insert(w, at, 0.0)
    if weight_scale != 1.0:
        w = w * weight_scale
    # Rebuilt per call; measured 2-5% of an iteration, and any cross-call
    # cache would need invalidation on every active-set compaction.
    vsrc, vdst, vw = _virtual_edges(k, n, src, dst, w)
    src_own = np.repeat(np.arange(kn, dtype=np.int64), scounts)
    src_rank = spec.entry_ranks(src_own, states.ids)
    ssteps = int(scounts.max()).bit_length() if kn else 0
    # The lists candidates are merged into: ``states``' own, or ``base``'s.
    if base is None:
        into, ccounts, cur_rank, steps = states, scounts, src_rank, ssteps
    else:
        into, ccounts = base, np.diff(base.offsets)
        cur_rank = spec.entry_ranks(np.repeat(np.arange(kn, dtype=np.int64), ccounts), base.ids)
        steps = int(ccounts.max()).bit_length() if kn else 0
    if fresh is None:
        fslots, fcounts, foffsets = None, scounts, states.offsets
    else:
        fslots = np.flatnonzero(fresh)
        fcounts = np.bincount(src_own[fslots], minlength=kn)
        foffsets = np.concatenate([[0], np.cumsum(fcounts)])
    del src_own
    # Edge e emits the candidates [cstart[e], cstart[e + 1]).
    ecounts = fcounts[vsrc]
    cstart = np.concatenate([[0], np.cumsum(ecounts)])

    def merge_block(t_lo: int, t_hi: int, e_lo: int, e_hi: int):
        """Targets ``[t_lo, t_hi)``, fed by edges ``[e_lo, e_hi)``: their
        kept ids, dists, inserted flags and counts plus the samples that
        kept an insertion, or ``None`` if no candidate survives the prune."""
        # -- lazy emission: (source slot, dist, target) per candidate ---------
        emits = ecounts[e_lo:e_hi]
        slot = np.repeat(foffsets[vsrc[e_lo:e_hi]] - (cstart[e_lo:e_hi] - cstart[e_lo]), emits)
        slot += np.arange(slot.size)
        if fslots is not None:
            slot = fslots[slot]
        cd = states.dists[slot] + np.repeat(vw[e_lo:e_hi], emits)
        # The directed edges are grouped by target, so the candidates are too.
        ct = np.repeat(vdst[e_lo:e_hi], emits)
        # -- prune against the current staircases, one in-segment bisection --
        # The last current entry no farther than a candidate is the lowest-
        # rank one among those (ranks fall along a staircase); if there is
        # none, nothing dominates the candidate.  Ranks are gathered only
        # after the search, which keeps them out of its peak memory.
        pred = _last_at_most(states.offsets, scounts, states.dists, ct, cd, ssteps)
        if base is None:
            surv = np.flatnonzero((pred < states.offsets[ct]) | (src_rank[pred] > src_rank[slot]))
        else:
            # A self-candidate finds itself (pred == slot) and must stay, as
            # ``base`` need not hold it; the few survivors are then tested
            # against ``base``, the lists merged into.
            surv = np.flatnonzero(
                (pred < states.offsets[ct]) | (src_rank[pred] > src_rank[slot]) | (pred == slot)
            )
            bp = _last_at_most(into.offsets, ccounts, into.dists, ct[surv], cd[surv], steps)
            ok = (bp < into.offsets[ct[surv]]) | (cur_rank[bp] > src_rank[slot[surv]])
            surv = surv[ok]
            pred[surv] = bp[ok]
        if surv.size == 0:
            return None
        # -- order the (small) survivor set by (segment, dist) ----------------
        # Survivors keep the candidates' target grouping, so this stable sort
        # only merges each target's sorted runs (one per in-edge).
        bkey = _segment_keys(ct[surv], cd[surv])
        order = np.argsort(bkey, kind="stable")
        surv, bkey = surv[order], bkey[order]
        # An equal-(segment, dist) run keeps only its minimum-rank entries,
        # the only ones the staircase can keep (the full sort's rank key
        # would put them first).  Exact copies of one vertex stay; the
        # staircase drops the duplicate.
        run_start = np.ones(surv.size, dtype=bool)
        run_start[1:] = bkey[1:] != bkey[:-1]
        slot = slot[surv]
        br = src_rank[slot]
        if not run_start.all():
            run_min = np.minimum.reduceat(br, np.flatnonzero(run_start))
            lowest = br == run_min[np.cumsum(run_start) - 1]
            surv, slot, br = surv[lowest], slot[lowest], br[lowest]
        bd, bt, bpred = cd[surv], ct[surv], pred[surv]
        # -- merge into the block's current staircases ------------------------
        # Survivors precede an equal-dist current entry (their rank is
        # strictly smaller, or the prune would have caught them), so each
        # goes after the current entries with a *strictly* smaller dist.  The
        # prune's index ends the entries <= it; distances strictly increase
        # along a staircase, so at most that last one ties.
        blo = into.offsets[bt]
        # reprolint: disable=float-distance-eq (the tie decides merge order
        # exactly as the full sort's (dist, rank) key would: bit-identity
        # needs the exact comparison, both operands are stored float64 sums)
        tie = (bpred >= blo) & (into.dists[bpred] == bd)
        loc = bpred + 1 - blo - tie
        # From here on, targets and offsets are local to the block.
        bt -= t_lo
        bcounts = np.bincount(bt, minlength=t_hi - t_lo)
        boffsets = np.concatenate([[0], np.cumsum(bcounts)])
        within_b = np.arange(bt.size) - boffsets[bt]
        mcounts = ccounts[t_lo:t_hi] + bcounts
        moffsets = np.concatenate([[0], np.cumsum(mcounts)])
        mtotal = int(moffsets[-1])
        bpos = moffsets[bt] + loc + within_b
        m_ids = np.empty(mtotal, dtype=np.int64)
        m_dists = np.empty(mtotal, dtype=np.float64)
        m_rank = np.empty(mtotal, dtype=np.int64)
        is_new = np.zeros(mtotal, dtype=bool)
        is_new[bpos] = True
        cpos = np.flatnonzero(~is_new)
        olo, ohi = into.offsets[t_lo], into.offsets[t_hi]
        m_ids[bpos], m_dists[bpos], m_rank[bpos] = states.ids[slot], bd, br
        m_ids[cpos], m_dists[cpos] = into.ids[olo:ohi], into.dists[olo:ohi]
        m_rank[cpos] = cur_rank[olo:ohi]
        # -- staircase over the merged lists ----------------------------------
        # Later segments get smaller bases, so the running minimum never
        # leaks forward from an earlier segment (see BatchedLEFilter).
        m_tgt = np.repeat(np.arange(t_hi - t_lo, dtype=np.int64), mcounts)
        adjusted = m_rank - m_tgt * (n + 1)
        run_min = np.minimum.accumulate(adjusted)
        keep = np.ones(mtotal, dtype=bool)
        keep[1:] = adjusted[1:] < run_min[:-1]
        kept_tgt = m_tgt[keep]
        inserted = is_new[keep]
        # -- per-sample fixpoint detection, for free --------------------------
        # Current entries are mutually non-dominating, so one only drops
        # under a kept insertion: a sample changed iff it kept an insertion.
        changed = np.bincount((kept_tgt[inserted] + t_lo) // n, minlength=k) > 0
        kept = np.bincount(kept_tgt, minlength=t_hi - t_lo)
        return m_ids[keep], m_dists[keep], inserted, kept, changed

    if int(cstart[-1]) + into.total <= _LE_BLOCK_ENTRIES:
        load = None
    else:
        # The first edge of each target, and the load before each target.
        tedge = np.searchsorted(vdst, np.arange(kn + 1))
        load = cstart[tedge] + into.offsets
    ids, dists, inserted = [], [], []
    kept_counts = ccounts.copy()
    changed = np.zeros(k, dtype=bool)
    merged = False
    t_lo = 0
    while t_lo < kn:
        if load is None:
            t_hi, e_lo, e_hi = kn, 0, vdst.size
        else:
            t_hi = int(np.searchsorted(load, load[t_lo] + _LE_BLOCK_ENTRIES, side="right"))
            t_hi = max(t_hi - 1, t_lo + 1)
            e_lo, e_hi = int(tedge[t_lo]), int(tedge[t_hi])
        block = merge_block(t_lo, t_hi, e_lo, e_hi)
        if block is None:
            olo, ohi = into.offsets[t_lo], into.offsets[t_hi]
            ids.append(into.ids[olo:ohi])
            dists.append(into.dists[olo:ohi])
            inserted.append(np.zeros(ohi - olo, dtype=bool))
        else:
            merged = True
            block_ids, block_dists, block_new, kept_counts[t_lo:t_hi], block_changed = block
            ids.append(block_ids)
            dists.append(block_dists)
            inserted.append(block_new)
            changed |= block_changed
        t_lo = t_hi
    if not merged:
        return into, changed, np.zeros(into.total, dtype=bool)
    if len(ids) > 1:
        ids, dists, inserted = (np.concatenate(p) for p in (ids, dists, inserted))
    else:
        ids, dists, inserted = ids[0], dists[0], inserted[0]
    noffsets = np.concatenate([[0], np.cumsum(kept_counts)])
    return BatchedFlatStates(k, n, noffsets, ids, dists), changed, inserted


def _le_iteration_native(
    lib,
    G: Graph,
    states: BatchedFlatStates,
    spec: BatchedLEFilter,
    *,
    weight_scale: float = 1.0,
    ledgers: Sequence[CostLedger] | None = None,
    fresh: np.ndarray | None = None,
    base: BatchedFlatStates | None = None,
) -> tuple[BatchedFlatStates, np.ndarray, np.ndarray]:
    """:func:`_le_iteration_incremental` in one C pass per target (``_lestep.c``).

    Same arguments, results and charges, bit for bit.  The C code walks
    each target's in-edges (and, with ``base``, the target's own fresh
    entries at weight 0, so no loop edges are built), prunes each candidate
    with one bisection in the target's staircase, sorts the few survivors
    and merges them, writing the next lists straight into buffers sized
    from the state: no candidate-sized array exists.  The buffers start at
    the merged-into lists plus the fresh entries; a step that outgrows them
    doubles them and resumes at the target that did not fit.  ``lib`` is
    :func:`repro.mbf.native.library`'s result.
    """
    k, n = states.k, states.n
    into = states if base is None else base
    _charge_le_step(G, states, ledgers)
    src, dst, w = G.directed_edges()
    if weight_scale != 1.0:
        w = w * weight_scale
    edges = (
        np.searchsorted(dst, np.arange(n + 1)),
        np.ascontiguousarray(src, dtype=np.int64),
        np.ascontiguousarray(w, dtype=np.float64),
    )
    lists = _csr_arrays(states)
    if fresh is None:
        fresh_lists = (lists[0], None)
        cap = into.total + states.total
    else:
        fresh = np.ascontiguousarray(fresh, dtype=bool)
        fresh_lists = native.fresh_lists(lib, lists[0], fresh)
        cap = into.total + fresh_lists[1].size
    ids, dists, inserted, counts, changed, any_survivor = native.le_step(
        lib,
        n,
        spec._flat,
        edges,
        lists,
        fresh_lists,
        None if base is None else _csr_arrays(base),
        cap,
    )
    if not any_survivor:
        return into, changed, np.zeros(into.total, dtype=bool)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return BatchedFlatStates(k, n, offsets, ids, dists), changed, inserted


def _csr_arrays(
    b: BatchedFlatStates,  # shape: csr(k*n) frozen
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``b``'s offsets, ids and dists as contiguous int64 / int64 / float64 (no copy if so)."""
    return (
        np.ascontiguousarray(b.offsets, dtype=np.int64),
        np.ascontiguousarray(b.ids, dtype=np.int64),
        np.ascontiguousarray(b.dists, dtype=np.float64),
    )


def le_kernel() -> str:  # shape: -> scalar
    """Which LE step runs: ``"native"`` (``_lestep.c``) or ``"numpy"``.

    Builds the compiled step if no LE step has yet (see
    :mod:`repro.mbf.native`); ``"numpy"`` means no compiler works here, and
    the NumPy kernel computes the same lists bit for bit.
    """
    return "numpy" if native.library() is None else "native"


def _le_step(
    G: Graph, states: BatchedFlatStates, spec: BatchedLEFilter, **kwargs
) -> tuple[BatchedFlatStates, np.ndarray, np.ndarray]:
    """One LE step on the compiled kernel, or on NumPy without a compiler."""
    lib = native.library()
    if lib is None:
        return _le_iteration_incremental(G, states, spec, **kwargs)
    return _le_iteration_native(lib, G, states, spec, **kwargs)


def _check_batch_filter(spec: FilterSpec, states: BatchedFlatStates) -> bool:
    """Whether ``spec`` takes the incremental LE path (validating shape)."""
    if not isinstance(spec, BatchedLEFilter):
        return False
    if spec.k != states.k or spec.n != states.n:
        raise ValueError(
            f"filter batch shape ({spec.k}, {spec.n}) does not match "
            f"states ({states.k}, {states.n})"
        )
    return True


def _generic_iteration_batched(
    G: Graph,
    states: BatchedFlatStates,
    spec: FilterSpec,
    weight_scale: float,
    ledgers: Sequence[CostLedger] | None,
) -> BatchedFlatStates:
    """The generic (sample-oblivious filter) batched iteration body."""
    src, dst, w = G.directed_edges()
    if weight_scale != 1.0:
        w = w * weight_scale
    vtgt, ids, dists = propagate_batched(states, src, dst, w, ledgers=ledgers)
    return aggregate_batched(
        states.k, states.n, vtgt, ids, dists, spec, ledgers=ledgers
    )


def dense_iteration_batched_ex(
    G: Graph,
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    spec: FilterSpec,
    *,
    weight_scale: float = 1.0,
    ledgers: Sequence[CostLedger] | None = None,
    fresh: np.ndarray | None = None,  # shape: (total,) bool frozen
    base: BatchedFlatStates | None = None,  # shape: csr(k*n) frozen
) -> tuple[BatchedFlatStates, np.ndarray, np.ndarray | None]:
    """One batched iteration, plus per-sample ``changed`` flags and a delta.

    This is the contract batched fixpoint drivers (here and in
    :meth:`repro.oracle.HOracle.h_iteration_batched`) build on.  Returns
    ``(next, changed, inserted)``.  The incremental LE path derives the
    ``(k,)`` ``changed`` flags for free, so drivers should use them instead
    of re-comparing states; the generic path pays a state-sized comparison
    for them.

    ``fresh`` is the ``inserted`` mask the previous call returned for
    ``states``, on the same graph, filter and ``weight_scale``; ``None``
    means every entry and is always exact.  The LE path then propagates
    only those entries (semi-naive, bit-identical — see
    :func:`_le_iteration_incremental`) and returns the mask of the entries
    it inserted; the generic path always propagates everything and
    returns ``inserted=None``.

    ``base`` (LE filters only) is a batch of the same shape whose lists
    the fresh entries are merged into instead of ``states``': the result
    is ``r(base ⊕ F ⊕ A·F)`` for the fresh entries ``F`` of ``states``,
    and ``changed``/``inserted`` are relative to ``base``.  ``base`` must
    hold or dominate every entry of ``states`` outside ``F``.  The
    ledgers are charged from ``states`` either way.  The oracle's
    warm-started level chains use it (:mod:`repro.oracle.oracle`).
    """
    if _check_batch_filter(spec, states):
        if fresh is not None and np.shape(fresh) != (states.total,):
            raise ValueError(f"fresh must be a ({states.total},) entry mask")
        if base is not None and (base.k, base.n) != (states.k, states.n):
            raise ValueError(
                f"base batch shape ({base.k}, {base.n}) does not match "
                f"states ({states.k}, {states.n})"
            )
        return _le_step(
            G, states, spec, weight_scale=weight_scale, ledgers=ledgers, fresh=fresh, base=base
        )
    if base is not None:
        raise ValueError("base applies to the LE filter only")
    nxt = _generic_iteration_batched(G, states, spec, weight_scale, ledgers)
    return nxt, ~states.sample_equal(nxt), None


def take_active_samples(
    keep: np.ndarray,  # shape: (j,) int64 frozen
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    spec: FilterSpec,
    ledgers: Sequence[CostLedger] | None,
    fresh: np.ndarray | None = None,  # shape: (total,) bool frozen
) -> tuple[BatchedFlatStates, FilterSpec, list[CostLedger] | None, np.ndarray | None]:
    """Re-slice a batch to the still-active sample positions.

    The per-sample fixpoint-masking drivers (``run_dense_batched``,
    ``HOracle.run_batch``, the oracle's inner early-exit chains) all
    compact the batch the same way — states, filter, per-sample ledgers
    and the per-entry ``fresh`` delta mask (if any) must shrink in
    lockstep, or samples silently swap ledgers or deltas.
    """
    taken, ranges = _take_samples(states, keep)
    return (
        taken,
        spec.take(keep),
        None if ledgers is None else [ledgers[int(p)] for p in keep],
        None if fresh is None else np.concatenate([fresh[r] for r in ranges]),
    )


def run_batched_fixpoint(
    step,
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    spec: FilterSpec,
    ledgers: Sequence[CostLedger] | None,
    cap: int,  # shape: scalar
    *,
    error: str | None = None,
    on_take=None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """Iterate ``step`` with per-sample convergence masking.

    The one masked-fixpoint loop shared by every batched driver
    (:func:`run_dense_batched`, ``HOracle.run_batch``, and the oracle's
    inner early-exit chains).  ``step(states, spec, ledgers, fresh)``
    advances the whole batch and returns ``(next, changed, inserted)``,
    the :func:`dense_iteration_batched_ex` contract: ``changed`` may be
    ``None`` (the loop then compares states itself), and ``inserted`` is
    the delta mask handed back as the next step's ``fresh`` (``None`` on
    the first step, and whenever the step reports none).  Samples whose
    ``changed`` flag clears are frozen at their state, which the
    confirming step reproduced bit for bit, and masked out of further
    steps, so their ledgers stop accruing.  ``on_take(keep)``, if given,
    is called with the kept batch positions each time the batch shrinks,
    so a caller holding per-sample state of its own (the oracle's chain
    history) slices it in step.

    Returns ``(final, iterations)`` over all samples in original order.
    With ``error`` set, samples still unconverged after ``cap`` steps
    raise ``RuntimeError(error)``; with ``error=None`` they keep their
    last state and report ``iterations = cap``.
    """
    k = states.k
    iters = np.zeros(k, dtype=np.int64)
    done: list[BatchedFlatStates | None] = [None] * k
    active = np.arange(k)
    cur, cur_spec, cur_ledgers, fresh = states, spec, ledgers, None
    for i in range(cap):
        nxt, changed, fresh = step(cur, cur_spec, cur_ledgers, fresh)
        if changed is None:
            changed = ~cur.sample_equal(nxt)
        if changed.all():
            cur = nxt
            continue
        for pos in np.flatnonzero(~changed):
            s = int(active[pos])
            done[s] = cur.sample_states(int(pos))
            iters[s] = i
        keep = np.flatnonzero(changed)
        if keep.size == 0:
            active = active[:0]
            break
        active = active[keep]
        cur, cur_spec, cur_ledgers, fresh = take_active_samples(
            keep, nxt, cur_spec, cur_ledgers, fresh
        )
        if on_take is not None:
            on_take(keep)
    if active.size:
        if error is not None:
            raise RuntimeError(error)
        for pos, s in enumerate(active):
            done[int(s)] = cur.sample_states(pos)
            iters[int(s)] = cap
    return BatchedFlatStates.concat([st for st in done if st is not None]), iters


def prepare_batch_run(
    n: int,  # shape: scalar
    spec: FilterSpec,
    k: int,  # shape: scalar
    *,
    sources: Iterable[int] | None,
    h: int | None,
    x0: BatchedFlatStates | None,  # shape: csr(k*n)
    max_iterations: int | None,
    ledgers: Sequence[CostLedger] | None,
) -> tuple[BatchedFlatStates, list[CostLedger] | None, int]:
    """Validate a batched driver's arguments; returns ``(x0, ledgers, cap)``.

    The checks :func:`run_dense_batched` and ``HOracle.run_batch`` share:
    a :class:`BatchedLEFilter` of ``k`` orders over ``n`` vertices, a
    non-negative ``h``, one ledger per sample, and an ``x0`` of ``k``
    samples over ``n`` nodes (default: ``k`` copies of the sources).
    ``cap`` is the fixpoint-mode iteration cap, ``max_iterations`` or
    ``n + 1``, and must be >= 1 unless ``h`` is given.  Each driver
    canonicalizes ``x0`` through its filter itself.
    """
    if isinstance(spec, BatchedLEFilter) and (spec.k != k or spec.n != n):
        raise ValueError(
            f"filter batch shape ({spec.k}, {spec.n}) does not match (k={k}, n={n})"
        )
    if h is not None and h < 0:
        raise ValueError("h must be non-negative")
    ledger_list = list(ledgers) if ledgers is not None else None
    if ledger_list is not None and len(ledger_list) != k:
        raise ValueError(f"need one ledger per sample ({k}), got {len(ledger_list)}")
    states = x0 if x0 is not None else BatchedFlatStates.from_sources(k, n, sources)
    if states.k != k or states.n != n:
        raise ValueError("x0 batch shape mismatch")
    cap = (n + 1) if max_iterations is None else max_iterations
    if h is None and cap < 1:
        raise ValueError("max_iterations must be >= 1")
    return states, ledger_list, cap


def run_dense_batched(
    G: Graph,
    spec: FilterSpec,
    k: int,
    *,
    sources: Iterable[int] | None = None,
    h: int | None = None,
    x0: BatchedFlatStates | None = None,  # shape: csr(k*n)
    max_iterations: int | None = None,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """Run the dense engine for ``h`` iterations or to the fixpoint.

    ``k`` samples run at once (a single run is ``k = 1``); fixpoints are
    detected per sample and converged samples are masked out of
    subsequent iterations, so their ledgers stop accruing after the
    confirming iteration.  With ``h=None`` each sample iterates until its
    filtered state vector stabilizes (at most ``SPD(G) + 1`` iterations
    per Definition 2.11), performing at most ``max_iterations`` iterations
    (default ``n + 1``) — the same cap semantics as
    :func:`repro.mbf.engine.run_to_fixpoint` and
    :meth:`repro.oracle.HOracle.run_batch`.  Returns ``(states,
    iterations)`` with one iteration count per sample; ``ledgers``, when
    given, must hold one :class:`CostLedger` per sample, and each sample's
    result, count and charges do not depend on the rest of the batch.
    """
    n = G.n
    states, ledger_list, cap = prepare_batch_run(
        n, spec, k, sources=sources, h=h, x0=x0,
        max_iterations=max_iterations, ledgers=ledgers,
    )
    # Canonicalize the initial vector through the filter (r^V x^(0)).
    states = aggregate_batched(
        k,
        n,
        np.repeat(np.arange(k * n, dtype=np.int64), states.counts()),
        states.ids,
        states.dists,
        spec,
        ledgers=ledger_list,
    )
    if h is not None:
        fresh = None
        for _ in range(h):
            states, _, fresh = dense_iteration_batched_ex(
                G, states, spec, ledgers=ledger_list, fresh=fresh
            )
        return states, np.full(k, h, dtype=np.int64)
    return run_batched_fixpoint(
        lambda s, sp, led, fr: dense_iteration_batched_ex(
            G, s, sp, ledgers=led, fresh=fr
        ),
        states,
        spec,
        ledger_list,
        cap,
        error=fixpoint_error(cap, n, max_iterations),
    )
