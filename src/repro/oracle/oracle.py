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

Every query runs ``k`` samples at once (:meth:`HOracle.run_batch`,
:meth:`HOracle.h_iteration_batched`); a single query is the ``k = 1``
batch.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graph.core import Graph
from repro.hopsets.base import HopSetResult
from repro.mbf.dense import (
    BatchedFlatStates,
    FilterSpec,
    aggregate_batched,
    dense_iteration_batched_ex,
    prepare_batch_run,
    run_batched_fixpoint,
)
from repro.pram.cost import NULL_LEDGER, CostLedger
from repro.simulated.levels import level_masks, sample_levels
from repro.util.rng import as_rng

__all__ = ["HOracle"]


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
        ≥ 1.  (Theorem 4.5 requires ≥ ``1 + eps``.)
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
        if base < 1.0:
            raise ValueError("penalty_base must be >= 1")
        self.penalty_base = base
        self.masks = level_masks(levels, Lambda)
        self.inner_early_exit = bool(inner_early_exit)
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
        """
        k, n = states.k, states.n
        ledger_list = (
            list(ledgers) if ledgers is not None else [NULL_LEDGER] * k
        )
        if len(ledger_list) != k:
            raise ValueError(f"need one ledger per sample ({k})")
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
            if self.inner_early_exit:
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
        if h is not None:
            for _ in range(h):
                states = self.h_iteration_batched(states, spec, ledgers=ledger_list)
            return states, np.full(k, h, dtype=np.int64)
        return run_batched_fixpoint(
            lambda s, sp, led, _fresh: (
                self.h_iteration_batched(s, sp, ledgers=led),
                None,  # no free flags here; the loop compares states
                None,  # and no delta: each H-iteration restarts its chains
            ),
            states,
            spec,
            ledger_list,
            cap,
            error=f"H-iteration did not reach a fixpoint within {cap} steps",
        )
