"""Simulating MBF-like iterations on ``H`` without materializing it.

Lemma 5.1 decomposes the adjacency matrix of the simulated graph:

    ``A_H = ⊕_{λ=0}^{Λ} P_λ A_λ^d P_λ``,

where ``A_λ`` is ``G'``'s adjacency with weights scaled by
``(1+eps)^(Λ-λ)`` and ``P_λ`` projects onto nodes of level ≥ λ.  By the
congruence property (Corollary 2.17) filters may be applied after every
step, so one ``H``-iteration is realized as (Equation 5.9):

    ``x ← r^V ( ⊕_λ P_λ (r^V A_λ)^d P_λ x )``

— ``Λ+1`` parallel chains of ``d`` *filtered* iterations on ``G'`` each,
followed by one aggregation.  All state stays small thanks to the filter,
which is exactly Theorem 5.2's efficiency argument; the cost ledger records
the measured work/depth.

Optimization (enabled by default, provably lossless): each inner chain
``(r^V A_λ)^f P_λ x`` stops early once a fixpoint is reached — applying a
min-plus SLF to its own fixpoint changes nothing, so the remaining
``d - f`` applications are identities.

Optimization (LE filters, always on, exact): each H-iteration's level
chains start warm from the previous H-iteration's.  Write ``Y_j(x)`` for
step ``j`` of a level chain on input ``x``, and ``x' = x^(i+1)`` for the
input after ``x = x^(i)``.  The filter is a congruence, ``⊕`` is
idempotent and ``A_H`` contains the identity, so ``x' = r^V(x ⊕ x')`` and,
step by step, ``Y_j(x') = r^V(Y_j(x) ⊕ F_j)`` with ``F_j`` the entries of
``Y_j(x')`` missing from ``Y_j(x)``.  Hence

    ``Y_{j+1}(x') = r^V(Y_{j+1}(x) ⊕ F_j ⊕ A_λ F_j)``:

Moore's semi-naive refinement applied across H-iterations.  Each step
takes, per sample, whichever delta emits fewer candidates — this one or
the within-chain delta of :func:`~repro.mbf.dense.dense_iteration_batched_ex`.
Once ``F_j`` is empty, ``Y_j(x') = Y_j(x)`` and every later step repeats
the previous chain, so the sample takes that chain's remaining steps,
final state, stop step and charges from the record without running the
kernel.  Both ways give the same lists bit for bit, and every step is
charged the full Lemma 2.3 model cost as before, so ledgers, iteration
counts and chain stop steps do not change.  :class:`ChainHistory`
carries what the next H-iteration reads: per level chain, each entry
once with the steps it lived.  ``MinFilter``/``TopKFilter`` queries keep
cold chains: their rows are dense, and a history would cost ``O(n²)``
per step.

Every query runs ``k`` samples at once (:meth:`HOracle.run_batch`,
:meth:`HOracle.h_iteration_batched`); a single query is the ``k = 1``
batch.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.graph.core import Graph
from repro.hopsets.base import HopSetResult
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    FilterSpec,
    aggregate_batched,
    charge_emission,
    dense_iteration_batched_ex,
    prepare_batch_run,
    run_batched_fixpoint,
)
from repro.pram.cost import NULL_LEDGER, CostLedger
from repro.simulated.levels import level_masks, sample_levels
from repro.util.rng import as_rng

__all__ = ["ChainHistory", "HOracle"]


class _ChainUnion:
    """One level chain's states ``Y_0, Y_1, ...``, each entry stored once.

    An LE chain step inserts entries and drops dominated ones, and a
    dropped entry never returns (its dominator, or one dominating that,
    stays), so each entry is present for one run of steps: ``Y_j`` holds
    exactly the entries with ``birth <= j < death``; ``death`` is the
    dtype's maximum for the entries a chain ends with.  ``lists`` holds
    every entry any step held, per segment in :func:`_entry_keys` order;
    the entries of one step have distinct keys in that order, so every
    step comes out sorted.  ``stop`` is each sample's step count as
    :func:`~repro.mbf.dense.run_batched_fixpoint` counts it, and
    ``emitted[i]`` each sample's full emission at step ``i`` (the
    Lemma 2.3 charge), for ``i = 0 .. d - 1``.
    """

    __slots__ = ("lists", "birth", "death", "stop", "emitted")

    def __init__(self, lists, birth, death, stop, emitted):
        self.lists = lists  # csr(k*n)
        self.birth = birth  # (U,) unsigned, the chain's step dtype
        self.death = death  # (U,) same dtype
        self.stop = stop  # (k,) int64
        self.emitted = emitted  # (d, k) int64

    def at(self, j: int) -> tuple[BatchedFlatStates, np.ndarray]:
        """``Y_j`` (past a sample's last step, its final state) and the
        mask of its entries in the union."""
        return self._select((self.birth <= j) & (self.death > j))

    def final(self) -> BatchedFlatStates:
        """The states the chain ended with."""
        return self._select(self.death == np.iinfo(self.death.dtype).max)[0]

    def _select(self, mask: np.ndarray) -> tuple[BatchedFlatStates, np.ndarray]:
        u = self.lists
        cum = np.concatenate([[0], np.cumsum(mask)])
        return BatchedFlatStates(u.k, u.n, cum[u.offsets], u.ids[mask], u.dists[mask]), mask

    def take(self, keep: np.ndarray) -> "_ChainUnion":
        """The given samples, in the given order (a copy)."""
        u = self.lists
        lo, hi = u.offsets[keep * u.n], u.offsets[(keep + 1) * u.n]
        ranges = [slice(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        return _ChainUnion(
            u.take(keep),
            np.concatenate([self.birth[r] for r in ranges]),
            np.concatenate([self.death[r] for r in ranges]),
            self.stop[keep],
            self.emitted[:, keep],
        )


class ChainHistory:
    """The LE level chains one H-iteration leaves for the next.

    Give one instance to every :meth:`HOracle.h_iteration_batched` call of
    one run — the same oracle and filter, each call's input the previous
    call's output: a call starts its chains warm from what the previous
    call left (see the module docstring) and leaves its own.  A new
    instance starts cold.  It holds one entry union with birth and death
    steps per level, and lives for one run only: :meth:`HOracle.run_batch`
    makes its own and never stores it on the oracle.
    """

    def __init__(self):
        self.levels: list[_ChainUnion] = []

    def keep_samples(self, keep) -> None:
        """Keep the given batch positions, in order (converged samples left)."""
        keep = np.asarray(keep, dtype=np.int64)
        self.levels = [u.take(keep) for u in self.levels]


def _owners(states: BatchedFlatStates) -> np.ndarray:
    """Each entry's composite segment ``s * n + v``."""
    return np.repeat(np.arange(states.k * states.n, dtype=np.int64), states.counts())


def _entry_keys(spec: BatchedLEFilter, own: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Keys ``segment * n + (n - 1 - rank)`` of LE entries.

    Along an LE list ranks strictly fall as distances rise, so the keys of
    a batch strictly increase; a key names an entry's segment and vertex,
    and its distance tells apart the copies of one vertex that a chain
    held at different steps.
    """
    n = spec.n
    return own * n + (n - 1) - spec.entry_ranks(own, ids)


def _keys_of(spec: BatchedLEFilter, states: BatchedFlatStates) -> np.ndarray:
    """:func:`_entry_keys` of a batch's entries."""
    return _entry_keys(spec, _owners(states), states.ids)


def _match(keys, dists, ref_keys, ref_dists) -> tuple[np.ndarray, np.ndarray]:
    """Which entries (by :func:`_entry_keys` and distance) ``ref`` holds too,
    and where: ``(hit, pos)`` with ``pos`` the searched index, clipped."""
    pos = np.searchsorted(ref_keys, keys)
    if ref_keys.size == 0:
        return np.zeros(keys.size, dtype=bool), pos
    np.minimum(pos, ref_keys.size - 1, out=pos)
    # reprolint: disable=float-distance-eq (the same entry of one chain is
    # the same stored float64; any other value is a different entry)
    hit = (ref_keys[pos] == keys) & (ref_dists[pos] == dists)
    return hit, pos


def _splice(a: BatchedFlatStates, b: BatchedFlatStates, pick_b: np.ndarray) -> BatchedFlatStates:
    """Sample ``s`` of ``b`` where ``pick_b[s]``, else sample ``s`` of ``a``."""
    if pick_b.all():
        return b
    seg_b = np.repeat(pick_b, a.n)
    a_counts, b_counts = a.counts(), b.counts()
    counts = np.where(seg_b, b_counts, a_counts)
    from_b = np.repeat(seg_b, counts)
    in_a, in_b = ~np.repeat(seg_b, a_counts), np.repeat(seg_b, b_counts)
    ids = np.empty(from_b.size, dtype=np.int64)
    dists = np.empty(from_b.size, dtype=np.float64)
    ids[from_b], dists[from_b] = b.ids[in_b], b.dists[in_b]
    ids[~from_b], dists[~from_b] = a.ids[in_a], a.dists[in_a]
    return BatchedFlatStates(a.k, a.n, np.concatenate([[0], np.cumsum(counts)]), ids, dists)


def _adopted(old: _ChainUnion, s: int, j: int, births: np.ndarray) -> tuple:
    """Union piece of sample ``s``, which caught up with ``old``'s chain at
    step ``j``: ``old``'s entries that live past ``j``, those alive at ``j``
    with the births the new chain gave them (``births``, in list order)."""
    u, n = old.lists, old.lists.n
    lo, hi = u.offsets[s * n], u.offsets[(s + 1) * n]
    seg = s * n + np.repeat(np.arange(n), np.diff(u.offsets[s * n : (s + 1) * n + 1]))
    birth, death = old.birth[lo:hi].copy(), old.death[lo:hi]
    birth[(birth <= j) & (death > j)] = births
    later = death > j
    return seg[later], u.ids[lo:hi][later], u.dists[lo:hi][later], birth[later], death[later]


class HOracle:
    """Answers MBF-like queries on the simulated graph ``H``.

    Parameters
    ----------
    hopset:
        The ``(d, eps)``-hop-set result for the input graph ``G``
        (``hopset.graph`` is ``G'``).
    levels:
        Optional pre-sampled node levels (else sampled from ``rng``).
    penalty_base:
        The level penalty base; defaults to ``1 + hopset.eps``.  Must be
        finite and ≥ 1.  (Theorem 4.5 requires ≥ ``1 + eps``.)
    inner_early_exit:
        Stop the inner ``d``-chains at their fixpoint (lossless; see module
        docstring).  Disable to reproduce the paper's literal cost.
    """

    def __init__(
        self,
        hopset: HopSetResult,
        *,
        levels: np.ndarray | None = None,
        penalty_base: float | None = None,
        rng=None,
        inner_early_exit: bool = True,
    ):
        self.hopset = hopset
        self.graph: Graph = hopset.graph
        self.d = int(hopset.d)
        n = self.graph.n
        g = as_rng(rng)
        if levels is None:
            levels, Lambda = sample_levels(n, g)
        else:
            levels = np.asarray(levels, dtype=np.int64)
            if levels.shape != (n,) or np.any(levels < 0):
                raise ValueError("levels must be a non-negative (n,) array")
            Lambda = int(levels.max())
        self.levels = levels
        self.Lambda = Lambda
        base = (1.0 + hopset.eps) if penalty_base is None else float(penalty_base)
        if not (math.isfinite(base) and base >= 1.0):
            raise ValueError(f"penalty_base must be finite and >= 1, got {base!r}")
        self.penalty_base = base
        self.masks = level_masks(levels, Lambda)
        self.inner_early_exit = bool(inner_early_exit)
        self._out_degree = np.bincount(self.graph.directed_edges()[0], minlength=n)
        # Inner iterations run, one entry per sample per H-iteration.
        self.inner_iterations_used: list[int] = []

    @property
    def n(self) -> int:
        return self.graph.n

    # -- single H-iteration --------------------------------------------------

    def h_iteration_batched(
        self,
        states: BatchedFlatStates,
        spec: FilterSpec,
        *,
        ledgers: Sequence[CostLedger] | None = None,
        history: ChainHistory | None = None,
    ) -> BatchedFlatStates:
        """One iteration of ``A_H`` with filtering (Equation 5.9), for all
        ``k`` samples at once.

        Each level's ``d``-chain runs through the batched dense kernels,
        starting from full emission and then propagating only the entries
        the previous step inserted (the semi-naive delta of
        :func:`~repro.mbf.dense.dense_iteration_batched_ex`);
        with ``inner_early_exit`` samples whose chain reached its fixpoint
        are masked out of the remaining inner iterations individually, so
        no sample's result or ledger depends on the others in the batch.
        Appends one :attr:`inner_iterations_used` entry per sample: the
        inner iterations its ``Λ+1`` chains ran, ``(Λ+1)·d`` without
        early exit.

        ``history`` (LE filters; ignored for others) is the run's
        :class:`ChainHistory`: the chains start warm from the previous
        call's and leave their own for the next call.  The result,
        ledgers and inner-iteration counts are the same with or without
        it.
        """
        k, n = states.k, states.n
        ledger_list = (
            list(ledgers) if ledgers is not None else [NULL_LEDGER] * k
        )
        if len(ledger_list) != k:
            raise ValueError(f"need one ledger per sample ({k})")
        if not isinstance(spec, BatchedLEFilter):
            history = None
        if history is not None and history.levels and (
            len(history.levels) != self.Lambda + 1 or history.levels[0].lists.k != k
        ):
            raise ValueError("history is not from this oracle's previous call on this batch")
        olds = list(history.levels) if history is not None and history.levels else None
        parts_tgt: list[np.ndarray] = []
        parts_ids: list[np.ndarray] = []
        parts_dists: list[np.ndarray] = []
        children: list[list[CostLedger]] = [[] for _ in range(k)]
        inner_used = np.zeros(k, dtype=np.int64)
        for lam in range(self.Lambda + 1):
            level_children = [led.fork() for led in ledger_list]
            for s in range(k):
                children[s].append(level_children[s])
            scale = self.penalty_base ** (self.Lambda - lam)
            y = states.restrict(self.masks[lam])
            for child, t in zip(level_children, states.sample_totals()):
                child.parallel_for(int(t), 1, 1)
            if history is not None:
                old = None
                if olds is not None:
                    old, olds[lam] = olds[lam], None  # freed once its chain ran
                y, steps, union = self._le_chain(y, spec, level_children, scale, old)
                del old
                if lam == 0:
                    history.levels = []
                history.levels.append(union)
                inner_used += np.minimum(steps + 1, self.d)
            elif self.inner_early_exit:
                # A chain that converges on step i stops there, after i + 1
                # iterations; chains that never converge keep their state
                # after ``d`` steps.
                y, steps = run_batched_fixpoint(
                    lambda s, sp, led, fr: dense_iteration_batched_ex(
                        self.graph, s, sp, weight_scale=scale, ledgers=led, fresh=fr
                    ),
                    y,
                    spec,
                    level_children,
                    self.d,
                )
                inner_used += np.minimum(steps + 1, self.d)
            else:
                fresh = None
                for _ in range(self.d):
                    y, _, fresh = dense_iteration_batched_ex(
                        self.graph,
                        y,
                        spec,
                        weight_scale=scale,
                        ledgers=level_children,
                        fresh=fresh,
                    )
                inner_used += self.d
            y = y.restrict(self.masks[lam])
            for child, t in zip(level_children, y.sample_totals()):
                child.parallel_for(int(t), 1, 1)
            owner = np.repeat(np.arange(k * n, dtype=np.int64), y.counts())
            parts_tgt.append(owner)
            parts_ids.append(y.ids)
            parts_dists.append(y.dists)
        for led, ch in zip(ledger_list, children):
            led.join(*ch)
        self.inner_iterations_used.extend(int(x) for x in inner_used)
        return aggregate_batched(
            k,
            n,
            np.concatenate(parts_tgt),
            np.concatenate(parts_ids),
            np.concatenate(parts_dists),
            spec,
            ledgers=ledger_list,
        )

    def _le_chain(
        self,
        y: BatchedFlatStates,
        spec: BatchedLEFilter,
        ledgers: list[CostLedger],
        scale: float,
        old: _ChainUnion | None,
    ) -> tuple[BatchedFlatStates, np.ndarray, _ChainUnion]:
        """One LE level chain ``(r^V A_λ)^d y``, warm from ``old`` if given.

        Each step, per sample, either propagates the within-chain delta
        (the entries the last step inserted, the standard way) or merges
        ``F_j ⊕ A_λ F_j`` into ``old``'s next state (warm), whichever
        emits fewer candidates: ``Σ`` out-degree over the delta's entries,
        plus one per entry for the warm self-candidate; with no candidate
        in any sample the kernel is skipped.  A sample leaves the batch
        when its chain converges (``inner_early_exit``: the step inserted
        nothing) or catches up with ``old``'s (``F_j`` is empty, so this
        and every later step equal ``old``'s): it then takes ``old``'s
        final state, stop step and per-step charges.  Every step a sample
        takes is charged its full emission, as the cold chain charges it.
        Returns ``(final, steps, union)``: ``steps`` as
        :func:`~repro.mbf.dense.run_batched_fixpoint` counts them, and the
        chain's states as a :class:`_ChainUnion`.
        """
        k, n, d = y.k, y.n, self.d
        step_t = np.min_scalar_type(d + 1)
        ended = np.iinfo(step_t).max  # the death step of an entry the chain ends with
        weight = self._out_degree + 1  # one step's emission per entry at a node
        emitted = np.zeros((d, k), dtype=np.int64)
        steps = np.full(k, d, dtype=np.int64)
        done: list[BatchedFlatStates | None] = [None] * k
        pieces = []  # (segment, ids, dists, birth, death), segments of the whole batch
        # The running samples: their batch positions, states, filter, ledgers,
        # the union of ``old`` they read (and its keys), and per entry:
        # owner, key, birth, the within-chain delta (None is every entry)
        # and F_j.
        active, cur, cur_spec, cur_ledgers, ref_u = np.arange(k), y, spec, list(ledgers), old
        own = _owners(cur)
        keys = _entry_keys(cur_spec, own, cur.ids)
        births = np.zeros(cur.total, dtype=step_t)
        fresh = warm_delta = None
        if old is not None:
            ref_u_keys = _keys_of(spec, old.lists)
            ref, ref_alive = old.at(0)
            warm_delta = ~_match(keys, cur.dists, ref_u_keys[ref_alive], ref.dists)[0]

        def record(mask, death):
            """Add the entries under ``mask``, with their births and ``death``."""
            seg = own[mask]
            seg += ((active - np.arange(active.size)) * n)[seg // n]  # batch numbering
            pieces.append((seg, cur.ids[mask], cur.dists[mask], births[mask], death))

        def keep(stay_samples):
            """Keep only these samples running; False if none is left."""
            nonlocal active, cur, cur_spec, cur_ledgers, ref_u, ref_u_keys, own, keys
            nonlocal births, fresh, warm_delta
            idx = np.flatnonzero(stay_samples)
            if idx.size == 0:
                return False
            stay = stay_samples[own // n]
            cur = cur.take(idx)
            births = births[stay]
            fresh = None if fresh is None else fresh[stay]
            warm_delta = None if warm_delta is None else warm_delta[stay]
            active, cur_spec = active[idx], cur_spec.take(idx)
            cur_ledgers = [cur_ledgers[i] for i in idx.tolist()]
            if ref_u is not None:
                ref_u = ref_u.take(idx)
                ref_u_keys = _keys_of(cur_spec, ref_u.lists)
            own = _owners(cur)
            keys = _entry_keys(cur_spec, own, cur.ids)
            return True

        for j in range(d):
            sample = own // n
            if old is not None:
                join = np.bincount(sample[warm_delta], minlength=active.size) == 0
                if join.any():
                    # Y_j equals old's, entry for entry, and so does every
                    # later step: take old's charges, stop step, final state
                    # and entries from here on (births as this chain gave them).
                    for i in np.flatnonzero(join).tolist():
                        s = int(active[i])
                        steps[s] = max(j, int(old.stop[s])) if self.inner_early_exit else d
                        emitted[j:, s] = old.emitted[j:, s]
                        hi = min(int(steps[s]) + 1, d)
                        charge_emission([cur_ledgers[i]] * (hi - j), emitted[j:hi, s])
                        done[s] = old.take(np.array([s])).final()
                        pieces.append(_adopted(old, s, j, births[sample == i]))
                    if not keep(~join):
                        break
                    sample = own // n
            emitted[j, active] = cur.counts().reshape(-1, n) @ weight
            base, delta = None, fresh
            if ref_u is not None:
                ref, ref_alive = ref_u.at(j + 1)
                degree = self._out_degree[own - sample * n]
                std = np.bincount(
                    sample, degree if fresh is None else degree * fresh, minlength=active.size
                )
                warm = np.bincount(sample, (degree + 1) * warm_delta, minlength=active.size) < std
                if warm.any():
                    base = _splice(cur, ref, warm)
                    delta = np.where(warm[sample], warm_delta, True if fresh is None else fresh)
            if delta is not None and not delta.any():
                charge_emission(cur_ledgers, emitted[j, active])
                nxt = cur if base is None else base
            else:
                nxt, _, _ = dense_iteration_batched_ex(
                    self.graph, cur, cur_spec, weight_scale=scale, ledgers=cur_ledgers,
                    fresh=delta, base=base,
                )
            if nxt is cur:
                new = np.zeros(cur.total, dtype=bool)
            else:
                nxt_own = _owners(nxt)
                nxt_keys = _entry_keys(cur_spec, nxt_own, nxt.ids)
                hit, pos = _match(nxt_keys, nxt.dists, keys, cur.dists)
                new = ~hit
                kept = np.zeros(cur.total, dtype=bool)
                kept[pos[hit]] = True
                if not kept.all():
                    record(~kept, j + 1)
                births = np.where(new, step_t.type(j + 1), births[pos])
                cur, own, keys = nxt, nxt_own, nxt_keys
            if ref_u is not None:
                warm_delta = ~_match(keys, cur.dists, ref_u_keys[ref_alive], ref.dists)[0]
            fresh = new
            if self.inner_early_exit:
                converged = np.bincount(own[new] // n, minlength=active.size) == 0
                if converged.any():
                    for i in np.flatnonzero(converged).tolist():
                        s = int(active[i])
                        steps[s] = j
                        emitted[j + 1 :, s] = emitted[j, s]
                        done[s] = cur.take([i])
                    record(converged[own // n], ended)
                    if not keep(~converged):
                        break
        else:
            for i, s in enumerate(active.tolist()):
                done[s] = cur.take([i])
            record(np.ones(cur.total, dtype=bool), ended)
        # One field at a time, so the copies of one level's union overlap
        # little (this is the chain's memory peak).
        seg, ids, dists, birth = (np.concatenate([p[i] for p in pieces]) for i in range(4))
        death = np.concatenate([np.full(p[0].size, p[4], dtype=step_t) for p in pieces])
        pieces.clear()
        order = np.argsort(_entry_keys(spec, seg, ids), kind="stable")
        offsets = np.concatenate([[0], np.cumsum(np.bincount(seg, minlength=k * n))])
        del seg
        ids = ids[order]
        dists = dists[order]
        birth = birth[order]
        death = death[order]
        union = _ChainUnion(BatchedFlatStates(k, n, offsets, ids, dists), birth, death, steps, emitted)
        return BatchedFlatStates.concat(done), steps, union

    # -- full queries ----------------------------------------------------------

    def run_batch(
        self,
        spec: FilterSpec,
        k: int,
        *,
        sources: Iterable[int] | None = None,
        x0: BatchedFlatStates | None = None,
        h: int | None = None,
        max_iterations: int | None = None,
        ledgers: Sequence[CostLedger] | None = None,
    ) -> tuple[BatchedFlatStates, np.ndarray]:
        """Run an MBF-like algorithm on ``H``: ``A^h(H)`` (Theorem 5.2), for
        ``k`` queries in one pass (a single query is ``k = 1``).

        With ``h=None`` each sample iterates to its fixpoint — at most
        ``SPD(H) + 1`` iterations, i.e. ``O(log² n)`` w.h.p. (Theorem 4.5)
        — performing at most ``max_iterations`` H-iterations (default
        ``n + 1``), the same cap semantics as
        :func:`repro.mbf.engine.run_to_fixpoint`.  Arguments are checked
        as :func:`~repro.mbf.dense.run_dense_batched` checks them.
        Fixpoints are detected per sample and converged samples are masked
        out of subsequent H-iterations, so each sample's result, iteration
        count, and (optional per-sample) ledger charges do not depend on
        the rest of the batch.  Returns ``(states, iterations)`` with one
        count per sample.
        """
        n = self.n
        states, ledger_list, cap = prepare_batch_run(
            n, spec, k, sources=sources, h=h, x0=x0,
            max_iterations=max_iterations, ledgers=ledgers,
        )
        states = aggregate_batched(
            k,
            n,
            np.repeat(np.arange(k * n, dtype=np.int64), states.counts()),
            states.ids,
            states.dists,
            spec,
            ledgers=ledger_list,
        )
        # The level chains' history lives for this run only.
        history = ChainHistory() if isinstance(spec, BatchedLEFilter) else None
        if h is not None:
            for _ in range(h):
                states = self.h_iteration_batched(
                    states, spec, ledgers=ledger_list, history=history
                )
            return states, np.full(k, h, dtype=np.int64)
        return run_batched_fixpoint(
            lambda s, sp, led, _fresh: (
                self.h_iteration_batched(s, sp, ledgers=led, history=history),
                None,  # no free flags here; the loop compares states
                None,  # the chains carry their own delta, in ``history``
            ),
            states,
            spec,
            ledger_list,
            cap,
            error=f"H-iteration did not reach a fixpoint within {cap} steps",
            on_take=None if history is None else history.keep_samples,
        )
