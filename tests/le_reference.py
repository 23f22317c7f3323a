"""The NumPy LE step, kept as the reference the compiled step is tested against.

The library runs one LE step, ``_lestep.c`` through
:func:`repro.mbf.dense._le_iteration_native`.  This module holds the NumPy
kernel it replaced, :func:`_le_iteration_incremental`, with its segmented
bisection (:func:`_last_at_most`) and its block budget
(``_LE_BLOCK_ENTRIES``), so that the parity tests can compare the two bit
for bit: lists, ``changed`` and inserted flags, ledger charges and the
identity of a step without survivors.  ``tests/test_dense_batched.py``
swaps it in for the compiled step; ``tests/test_property_engines.py``
runs both on random batches.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.graph.core import Graph
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    _charge_le_step,
    _segment_keys,
    _virtual_edges,
)
from repro.pram.cost import CostLedger

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
    """One batched LE iteration in NumPy: the reference for the compiled step.

    Same arguments, results and ledger charges as
    :func:`repro.mbf.dense._le_iteration_native`, whose docstring states
    the contract (prune, survivor order, delta, ``base`` and the returned
    triple), bit for bit.  Here the prune is one vectorized bisection per
    candidate (:func:`_last_at_most`) and the survivors take one stable
    sort of ``(segment, dist)`` keys, which only merges sorted runs
    because the directed edges, and so the candidates, come grouped by
    target.

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
            ok = bp < into.offsets[ct[surv]]
            # Read only found entries: ``base`` may hold none at all.
            ok[~ok] = cur_rank[bp[~ok]] > src_rank[slot[surv[~ok]]]
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
        tie = bpred >= blo
        # The tie decides merge order exactly as the full sort's (dist, rank)
        # key would: bit-identity needs the exact comparison, both operands
        # are stored float64 sums.
        tie[tie] = into.dists[bpred[tie]] == bd[tie]
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


def assert_same_step(got: tuple, want: tuple, into: BatchedFlatStates) -> None:
    """Two LE steps' ``(next, changed, inserted)`` agree bit for bit, and
    either both or neither return ``into``, the batch they merged into."""
    (a, changed_a, inserted_a), (b, changed_b, inserted_b) = got, want
    assert (a is into) == (b is into)
    assert a.equals(b)
    assert changed_a.dtype == changed_b.dtype and np.array_equal(changed_a, changed_b)
    assert inserted_a.dtype == inserted_b.dtype and np.array_equal(inserted_a, inserted_b)


def checked_step(compiled):
    """The reference step, checked against ``compiled`` on every call.

    Runs ``compiled`` and :func:`_le_iteration_incremental` on the same
    input, asserts that lists, flags, ``next is into`` and the per-sample
    ledger charges agree, and returns the reference's result.  Swapped in
    for the compiled step, it makes every test that takes an LE step a
    parity test of the two.
    """

    def step(G, states, spec, *, ledgers=None, base=None, **kwargs):
        mirror = None if ledgers is None else copy.deepcopy(list(ledgers))
        got = compiled(G, states, spec, ledgers=mirror, base=base, **kwargs)
        want = _le_iteration_incremental(G, states, spec, ledgers=ledgers, base=base, **kwargs)
        assert_same_step(got, want, states if base is None else base)
        if ledgers is not None:
            assert [led.snapshot() for led in mirror] == [led.snapshot() for led in ledgers]
        return want

    return step
