"""FRT trees from LE lists (Section 7.1, Lemma 7.2), all samples in one pass.

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

Lemma 7.2 read literally walks the vertices of one sample in a Python
loop; for an ensemble of ``k`` samples that is ``k · n`` Python-level
iterations.  :func:`build_frt_forest` instead takes the ensemble's LE
lists as one :class:`~repro.mbf.dense.BatchedFlatStates` plus per-sample
``(rank, beta)`` draws and constructs every tree with a fixed number of
array operations per *level* (one tree is the ``k = 1`` forest):

1. **Level labels** — one flat
   :func:`~repro.mbf.dense.segmented_searchsorted` over the CSR ``dists``
   resolves ``labels[s, v, i] = v_i`` (the min-rank vertex within radius
   ``r_i^{(s)}`` of ``v``) for all samples, vertices, and levels at once.
2. **Ragged depths** — each sample has its own depth ``k_s`` (its ``beta``
   and root distance decide when the balls swallow the graph); levels are
   padded to ``k_max = max_s k_s``.  Padded levels replicate the root
   (radii beyond the root distance select the last list entry), so the
   padding is inert for distance queries.
3. **Node ids** — suffix → node-id assignment walks levels root-down once,
   fusing all samples per level through one :func:`numpy.unique` over
   composite ``(sample, parent_id, label)`` keys.  Per sample, the
   resulting ids, parents, levels, and leading vertices are *bit-identical*
   to the per-vertex reference construction in ``tests/frt_reference.py``
   (pinned by ``tests/test_frt_forest.py``).

The resulting :class:`FRTForest` answers ensemble distance queries
(``distances`` / ``distance_upper_bounds`` / ``median_distances``), and
:meth:`FRTForest.tree` cuts any sample out as a read-only ``k = 1``
forest whose arrays are zero-copy slices of the stacked storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mbf.dense import BatchedFlatStates, segmented_searchsorted
from repro.util.freeze import freeze, freeze_enabled

__all__ = ["FRTForest", "build_frt_forest"]

# Cap on the per-block element count of the (size, block, k_max+1) gathers
# behind lca_levels: keeps the transient memory of huge pair queries (e.g.
# all pairs at large n) bounded at a few tens of MiB instead of scaling the
# whole query by the ensemble size, without giving up vectorization.
_QUERY_BLOCK_ELEMS = 1 << 22


@dataclass
class FRTForest:
    """``size`` FRT trees over the same ``n`` vertices, stacked.

    Structure arrays (``k_max`` = maximum tree depth over samples;
    ``total_nodes`` = sum of per-sample node counts):

    - ``depths[s]`` — sample ``s``'s depth ``k_s`` (its root lives at
      level ``k_s``); levels above are padding,
    - ``level_ids[s, v, i]`` — node id of ``v``'s level-``i`` ancestor in
      sample ``s``; for ``i > depths[s]`` the root id is replicated,
    - ``radii[s, i] = beta_s · 2^i · scale`` (``i > depths[s]``: padding),
    - ``edge_weights[s, i]`` — weight of every level-``i`` → ``i+1`` edge
      of sample ``s`` (the module docstring's convention), and
      ``cum_weights[s, ℓ] = Σ_{j<ℓ} edge_weights[s, j]`` — the
      leaf-to-level-``ℓ`` distance,
    - ``node_offsets`` — CSR bounds of the per-sample node arrays:
      ``parent`` / ``node_level`` / ``node_leading`` of sample ``s`` live
      at ``[node_offsets[s]:node_offsets[s+1]]``, with *sample-local* node
      ids (the ids :attr:`level_ids` uses).
    """

    n: int
    size: int
    k_max: int
    scale: float
    betas: np.ndarray  # (size,)
    depths: np.ndarray  # (size,) int64
    radii: np.ndarray  # (size, k_max+1)
    edge_weights: np.ndarray  # (size, k_max)
    cum_weights: np.ndarray  # (size, k_max+1)
    level_ids: np.ndarray  # (size, n, k_max+1) int64
    node_offsets: np.ndarray  # (size+1,) int64
    parent: np.ndarray  # (total_nodes,) int64, sample-local ids
    node_level: np.ndarray  # (total_nodes,) int64
    node_leading: np.ndarray  # (total_nodes,) int64

    # -- basic structure -----------------------------------------------------

    def num_nodes(self, s: int) -> int:
        """Number of tree nodes of sample ``s``."""
        return int(self.node_offsets[s + 1] - self.node_offsets[s])

    @property
    def total_nodes(self) -> int:
        """Total nodes across all samples."""
        return int(self.parent.size)

    def tree(self, s: int) -> "FRTForest":  # shape: -> object view
        """Sample ``s`` as a ``k = 1`` forest.

        Equal in every field — shapes, dtypes and values, node ids
        included — to :func:`build_frt_forest` of sample ``s`` alone, and
        to the per-vertex reference construction (``tests/frt_reference.py``).
        Every array except the 2-entry ``node_offsets`` is a zero-copy
        slice of this forest's stacked storage, returned **read-only**
        (writing through one tree would silently corrupt all ``size``
        samples and every server cache keyed on this forest's fingerprint;
        a write raises ``ValueError`` instead).  Storing one copy keeps an
        ensemble's memory flat even when every sample is materialized as
        a tree; ``.copy()`` an array if a sample needs mutating.
        """
        if not 0 <= s < self.size:
            raise IndexError(f"sample index {s} out of range [0, {self.size})")
        k = int(self.depths[s])
        lo, hi = self.node_offsets[s], self.node_offsets[s + 1]
        row = slice(s, s + 1)
        return FRTForest(
            n=self.n,
            size=1,
            k_max=k,
            scale=self.scale,
            betas=freeze(self.betas[row]),
            depths=freeze(self.depths[row]),
            radii=freeze(self.radii[row, : k + 1]),
            edge_weights=freeze(self.edge_weights[row, :k]),
            cum_weights=freeze(self.cum_weights[row, : k + 1]),
            level_ids=freeze(self.level_ids[row, :, : k + 1]),
            node_offsets=freeze(np.array([0, hi - lo], dtype=np.int64)),
            parent=freeze(self.parent[lo:hi]),
            node_level=freeze(self.node_level[lo:hi]),
            node_leading=freeze(self.node_leading[lo:hi]),
        )

    def trees(self) -> list["FRTForest"]:  # shape: -> object view
        """All samples as ``k = 1`` forests (see :meth:`tree`)."""
        return [self.tree(s) for s in range(self.size)]

    @classmethod
    def concat(
        cls,
        forests: Sequence["FRTForest"],  # shape: (b,) object frozen
    ) -> "FRTForest":  # shape: -> object owned
        """Concatenate forests along the *sample* axis.

        The inverse of sharding the ensemble build: concatenating the
        per-shard forests of any contiguous partition of the samples is
        *bit-identical* — every stacked array, per-tree view, and distance
        query — to one :func:`build_frt_forest` over the whole batch
        (pinned by ``tests/test_frt_forest.py``).  Three ingredients make
        that exact:

        - per-sample node ids are *sample-local*, so ``parent`` /
          ``node_level`` / ``node_leading`` concatenate verbatim and only
          ``node_offsets`` is rebased by each predecessor's running node
          total;
        - ragged per-shard depths re-pad to the global ``k_max`` with the
          root-replicating inert padding: a shard's own padding already
          replicates each sample's root id through its last level, so the
          extension columns are that last column repeated;
        - ``radii`` / ``edge_weights`` / ``cum_weights`` are *recomputed*
          from the concatenated betas via the exact expressions
          :func:`build_frt_forest` uses (same elementwise operations on
          the same float64 values — extending a row's ``cumsum`` any other
          way could change summation order and drift bits).

        All forests must embed the same graph: equal ``n`` and equal
        ``scale`` (= ``wmin / 2``).
        """
        if not forests:
            raise ValueError("need at least one forest")
        n, scale = forests[0].n, forests[0].scale
        for f in forests:
            if f.n != n:
                raise ValueError(
                    f"all forests must share n (got {f.n} != {n})"
                )
            if f.scale != scale:
                raise ValueError(
                    "all forests must share the same scale (= wmin / 2); "
                    "they do not embed the same graph"
                )
            if int(f.depths.max()) != f.k_max:
                raise ValueError("forest k_max inconsistent with its depths")
        size = sum(f.size for f in forests)
        betas = np.concatenate([f.betas for f in forests])
        depths = np.concatenate([f.depths for f in forests])
        k_max = int(depths.max())
        # The build expressions, verbatim (see build_frt_forest): padding
        # columns continue the per-sample geometric radii, and cum_weights
        # rows re-run the full cumsum so summation order matches a
        # single-process build bit for bit.
        radii = (betas[:, None] * scale) * np.power(2.0, np.arange(k_max + 1))
        edge_weights = radii[:, 1:]
        cum_weights = np.concatenate(
            [np.zeros((size, 1)), np.cumsum(edge_weights, axis=1)], axis=1
        )
        level_ids = np.empty((size, n, k_max + 1), dtype=np.int64)
        lo = 0
        for f in forests:
            hi = lo + f.size
            level_ids[lo:hi, :, : f.k_max + 1] = f.level_ids
            # Levels above a shard's k_max replicate each sample's root id
            # — the shard's last padded column already holds it.
            level_ids[lo:hi, :, f.k_max + 1 :] = f.level_ids[:, :, -1:]
            lo = hi
        node_totals = np.cumsum([0] + [f.total_nodes for f in forests])
        node_offsets = np.concatenate(
            [[0]]
            + [f.node_offsets[1:] + base for f, base in zip(forests, node_totals)]
        ).astype(np.int64)
        parent = np.concatenate([f.parent for f in forests])
        node_level = np.concatenate([f.node_level for f in forests])
        node_leading = np.concatenate([f.node_leading for f in forests])
        if freeze_enabled():
            # Same sanitizer convention as build_frt_forest: the stacked
            # storage is shared by every tree view, so writes hard-fail.
            for arr in (betas, depths, radii, edge_weights, cum_weights,
                        level_ids, node_offsets, parent, node_level,
                        node_leading):
                freeze(arr)
        return cls(
            n=n,
            size=size,
            k_max=k_max,
            scale=scale,
            betas=betas,
            depths=depths,
            radii=radii,
            edge_weights=edge_weights,
            cum_weights=cum_weights,
            level_ids=level_ids,
            node_offsets=node_offsets,
            parent=parent,
            node_level=node_level,
            node_leading=node_leading,
        )

    # -- distances -------------------------------------------------------------

    def lca_levels(
        self, us: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:  # shape: -> (s, p) int64 owned
        """Per-sample lowest common ancestor levels, ``(size, P)``.

        Padded levels replicate the root id, so the argmax over the full
        padded axis equals each sample's own ``(k_s + 1)``-level argmax.
        Large pair sets are processed in blocks so the transient
        ``(size, block, k_max + 1)`` gathers stay at a few tens of MiB
        regardless of ``P`` (the per-tree loop this replaces only ever
        held one tree's slice at a time).  Ids outside ``[0, n)`` raise
        ``ValueError``: NumPy would wrap a negative id to a vertex counted
        from the end, a silently wrong answer.
        """
        us = np.atleast_1d(np.asarray(us, dtype=np.int64))
        vs = np.atleast_1d(np.asarray(vs, dtype=np.int64))
        for ids in (us, vs):
            if ids.size and (ids.min() < 0 or ids.max() >= self.n):
                bad = int(ids[(ids < 0) | (ids >= self.n)][0])
                raise ValueError(f"vertex id {bad} is not a vertex of [0, {self.n})")
        out = np.empty((self.size, us.size), dtype=np.int64)
        per_pair = self.size * (self.k_max + 1)
        block = max(1, _QUERY_BLOCK_ELEMS // per_pair)
        for lo in range(0, us.size, block):
            sl = slice(lo, lo + block)
            eq = self.level_ids[:, us[sl], :] == self.level_ids[:, vs[sl], :]
            out[:, sl] = np.argmax(eq, axis=2)
        return out

    def distances(self, us, vs) -> np.ndarray:  # shape: -> (s, p) float64 owned
        """``(size, P)`` matrix of tree distances — every sample, one pass.

        Row ``s`` is bit-identical to the ``(1, P)`` answer of
        ``self.tree(s).distances(us, vs)``.
        """
        lvl = self.lca_levels(us, vs)
        return 2.0 * np.take_along_axis(self.cum_weights, lvl, axis=1)

    def distance_upper_bounds(
        self, us, vs
    ) -> np.ndarray:  # shape: -> (p,) float64 owned
        """Per-pair min over samples — dominating, tightening with size."""
        return self.distances(us, vs).min(axis=0)

    def median_distances(
        self, us, vs
    ) -> np.ndarray:  # shape: -> (p,) float64 owned
        """Per-pair median over samples — a robust, concentrated estimate."""
        return np.median(self.distances(us, vs), axis=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FRTForest(size={self.size}, n={self.n}, "
            f"depths={self.depths.min()}..{self.depths.max()}, "
            f"nodes={self.total_nodes})"
        )


def build_frt_forest(
    le_lists: BatchedFlatStates,  # shape: csr(k*n) frozen
    ranks: np.ndarray,  # shape: (k, n) int64 frozen
    betas: np.ndarray,  # shape: (k,) float64 frozen
    wmin: float,  # shape: scalar
) -> FRTForest:  # shape: -> object owned
    """Construct all ``k`` FRT trees of an ensemble in one vectorized pass.

    Parameters
    ----------
    le_lists:
        The ensemble's LE lists as one batch (sample ``s``'s lists w.r.t.
        ``ranks[s]``, entries per vertex ascending by distance, as produced
        by the batched dense engine or :meth:`HOracle.run_batch`).
    ranks:
        ``(k, n)`` matrix of random total orders, one row per sample.
    betas:
        ``(k,)`` FRT radius multipliers, each in ``[1, 2)``.
    wmin:
        A positive lower bound on the minimum pairwise distance (shared by
        all samples — they embed the same graph).

    Sample ``s`` of the result is bit-identical to the ``k = 1`` forest of
    ``le_lists.sample_states(s)``, ``ranks[s : s + 1]`` and
    ``betas[s : s + 1]``, and to the per-vertex reference construction
    (``tests/frt_reference.py``).
    """
    k, n = le_lists.k, le_lists.n
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.shape != (k, n):
        raise ValueError(f"ranks must have shape ({k}, {n})")
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (k,):
        raise ValueError(f"betas must have shape ({k},)")
    # Written so that NaN fails it too.
    if not np.all((betas >= 1.0) & (betas < 2.0)):
        raise ValueError("every beta must lie in [1, 2)")
    if wmin <= 0:
        raise ValueError("wmin must be positive")
    counts = le_lists.counts()
    if np.any(counts == 0):
        bad = int(np.argmax(counts == 0))
        raise ValueError(
            f"every vertex needs a non-empty LE list (connected input?); "
            f"sample {bad // n}, vertex {bad % n} is empty"
        )
    # The level extraction binary-searches each list; entries must be
    # ascending by distance within every segment (the engines' contract).
    interior = np.ones(le_lists.total, dtype=bool)
    interior[le_lists.offsets[:-1]] = False
    if np.any(np.diff(le_lists.dists, prepend=0.0)[interior] < 0):
        raise ValueError("LE-list entries must be ascending by distance")

    scale = wmin / 2.0
    # Per-sample root distance; each list's last entry is the sample's
    # global min-rank vertex.
    root_vertex, last_dists = le_lists.segment_last()
    root_dists = last_dists.max(axis=1)
    if np.any(root_vertex != root_vertex[:, :1]):
        bad = int(np.argmax(np.any(root_vertex != root_vertex[:, :1], axis=1)))
        raise ValueError(
            f"LE lists are not at their fixpoint (no common root in sample {bad})"
        )
    # Per-sample depths (the one-sample scalar formula — ceil/log2 on
    # Python floats so ties at exact powers of two match bit for bit).
    depths = np.array(
        [
            1
            if rd <= 0  # single-vertex graph
            else max(1, math.ceil(math.log2(rd / (b * scale))))
            for rd, b in zip(root_dists.tolist(), betas.tolist())
        ],
        dtype=np.int64,
    )
    k_max = int(depths.max())
    # radii[s, i] = (beta_s * scale) * 2^i — the one-sample expression's
    # operation order, so each prefix equals that sample's radii array.
    radii = (betas[:, None] * scale) * np.power(2.0, np.arange(k_max + 1))

    # Level labels: labels[s, v, i] = id of the last list entry of (s, v)
    # with dist <= radii[s, i], for all (s, v, i) in one flat searchsorted.
    queries = np.repeat(radii, n, axis=0)  # (k*n, k_max+1), row = segment
    pos = segmented_searchsorted(le_lists.offsets, le_lists.dists, queries) - 1
    if np.any(pos[:, 0] < 0):
        bad = int(np.argmax(pos[:, 0] < 0))
        raise ValueError(
            f"vertex {bad % n} (sample {bad // n}) lacks its own "
            "0-distance entry"
        )
    labels = le_lists.ids[le_lists.offsets[:-1, None] + pos].reshape(
        k, n, k_max + 1
    )
    if not np.array_equal(
        labels[:, :, 0], np.broadcast_to(np.arange(n), (k, n))
    ):
        raise ValueError(
            "level-0 centers are not the vertices themselves; "
            "wmin is not a lower bound on pairwise distances"
        )

    level_ids, node_offsets, parent, node_level, node_leading = _assign_node_ids(
        labels, depths
    )
    edge_weights = radii[:, 1:]
    cum_weights = np.concatenate(
        [np.zeros((k, 1)), np.cumsum(edge_weights, axis=1)], axis=1
    )
    if freeze_enabled():
        # REPRO_FREEZE sanitizer: the stacked storage is shared by every
        # tree view and server cache — freeze it so any later in-place
        # write hard-fails.  betas may alias the caller's array (asarray
        # above), so it is the one field copied before freezing.
        betas = freeze(betas.copy())
        for arr in (depths, radii, edge_weights, cum_weights, level_ids,
                    node_offsets, parent, node_level, node_leading):
            freeze(arr)
    return FRTForest(
        n=n,
        size=k,
        k_max=k_max,
        scale=scale,
        betas=betas,
        depths=depths,
        radii=radii,
        edge_weights=edge_weights,
        cum_weights=cum_weights,
        level_ids=level_ids,
        node_offsets=node_offsets,
        parent=parent,
        node_level=node_level,
        node_leading=node_leading,
    )


def _assign_node_ids(
    labels: np.ndarray, depths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Suffix → node-id assignment, all samples fused per level.

    Walks levels root-down (``j = k_max .. 0``).  A sample joins at its own
    root level ``j = depths[s]`` (ids from sorted root labels) and below
    that assigns ids by ``numpy.unique`` over composite
    ``(sample, parent_id * (n+1) + label)`` keys — sample-major, so each
    sample's group is sorted exactly like a per-sample ``np.unique``, and
    each sample's own id counter is reproduced bit for bit.
    Levels above a sample's depth stay padding: they are filled with the
    sample's root id after the walk.
    """
    k, n, levels = labels.shape
    k_max = levels - 1
    level_ids = np.empty((k, n, k_max + 1), dtype=np.int64)
    next_id = np.zeros(k, dtype=np.int64)
    # Node records, one chunk per (level, root-or-interior) assignment:
    # (sample, id, parent, level, leading) arrays, all sample-local ids.
    chunks: list[tuple[np.ndarray, ...]] = []

    def assign(samples: np.ndarray, keys: np.ndarray, base: int, j: int) -> None:
        """Assign ids for one level chunk across ``samples`` (rows of ``keys``).

        ``keys[r]`` holds row ``r``'s per-vertex suffix keys; ``base > 0``
        marks interior levels, where ``key = parent_id * base + label``
        (``base = n + 1 > label``, so decoding is exact); ``base = 0``
        marks root levels, where ``key = label``.  Fusing the row index
        into a sample-major composite keeps each sample's unique keys
        contiguous *and* sorted by key — exactly the per-sample
        ``np.unique`` order — so ids continue each sample's own counter.
        """
        rows = len(samples)
        stride = int(keys.max()) + 1
        if stride > np.iinfo(np.int64).max // max(rows, 1):
            raise OverflowError("composite suffix keys overflow int64")
        fused = np.arange(rows, dtype=np.int64)[:, None] * stride + keys
        uniq, inv = np.unique(fused.ravel(), return_inverse=True)
        row_of_uniq = uniq // stride
        group_sizes = np.bincount(row_of_uniq, minlength=rows)
        group_starts = np.concatenate([[0], np.cumsum(group_sizes[:-1])])
        ids = (
            next_id[samples][row_of_uniq]
            + np.arange(uniq.size)
            - group_starts[row_of_uniq]
        )
        level_ids[samples, :, j] = ids[inv].reshape(rows, n)
        local = uniq % stride
        if base > 0:
            parent = local // base
            leading = local % base
        else:
            parent = np.full(uniq.size, -1, dtype=np.int64)
            leading = local
        chunks.append(
            (
                samples[row_of_uniq],
                ids,
                parent,
                np.full(uniq.size, j, dtype=np.int64),
                leading,
            )
        )
        next_id[samples] += group_sizes

    for j in range(k_max, -1, -1):
        roots = np.flatnonzero(depths == j)
        if roots.size:
            assign(roots, labels[roots, :, j], 0, j)
        deeper = np.flatnonzero(depths > j)
        if deeper.size:
            combo = level_ids[deeper, :, j + 1] * (n + 1) + labels[deeper, :, j]
            assign(deeper, combo, n + 1, j)

    # Pad levels above each sample's depth with its root id (inert for
    # lca/argmax queries: the root level is always an ancestor match).
    col = np.minimum(np.arange(k_max + 1), depths[:, None])  # (k, k_max+1)
    level_ids = np.take_along_axis(
        level_ids, np.broadcast_to(col[:, None, :], level_ids.shape), axis=2
    )

    # Assemble per-sample node arrays: ids were handed out in creation
    # order, so one lexsort by (sample, id) reproduces each sample's
    # root-down concatenation.
    node_sample, node_id, parent, node_level, node_leading = (
        np.concatenate([c[f] for c in chunks]) for f in range(5)
    )
    order = np.lexsort((node_id, node_sample))
    node_offsets = np.concatenate([[0], np.cumsum(next_id)]).astype(np.int64)
    return (
        level_ids,
        node_offsets,
        parent[order],
        node_level[order],
        node_leading[order],
    )
