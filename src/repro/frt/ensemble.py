"""Ensembles of sampled FRT trees (the paper's repetition trick).

The introduction observes that the ``O(log n)`` *expected* stretch turns
into an ``O(log n)``-approximation w.h.p. by sampling ``log(1/eps)``
trees and keeping the best solution; and that embeddings can be
precomputed once and reused by online algorithms.  :class:`FRTEnsemble`
packages that usage:

- :meth:`FRTEnsemble.distance_upper_bounds`: per-pair min over trees —
  still dominating, with stretch concentrating near the expectation as the
  ensemble grows;
- :meth:`FRTEnsemble.best_tree_for`: pick the tree minimizing any
  user-supplied objective (the "repeat and take the best" pattern used by
  the k-median and buy-at-bulk pipelines).

Ensembles come from :meth:`repro.api.Pipeline.sample_ensemble` (via
``PipelineResult.ensemble()``), which always attaches an
:class:`~repro.frt.forest.FRTForest`: distance queries then run as one
stacked ``(size, n, k_max+1)`` level-id pass instead of a Python loop over
per-tree objects.  Results are bit-identical either way (the forest's
structure arrays *are* the trees').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.frt.embedding import EmbeddingResult
from repro.frt.tree import FRTTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.frt.forest import FRTForest

__all__ = ["FRTEnsemble"]


@dataclass
class FRTEnsemble:
    """A fixed collection of independently sampled FRT trees of one graph.

    ``forest``, when given, is the batched stacked-array view of the same
    trees (:class:`~repro.frt.forest.FRTForest`); distance queries then run
    as one vectorized pass over all trees instead of a per-tree loop.
    """

    embeddings: list[EmbeddingResult]
    forest: "FRTForest | None" = None

    def __post_init__(self):
        if not self.embeddings:
            raise ValueError("ensemble needs at least one tree")
        n = self.embeddings[0].tree.n
        if any(e.tree.n != n for e in self.embeddings):
            raise ValueError("all trees must embed the same vertex set")
        if self.forest is not None:
            f = self.forest
            if (
                f.size != len(self.embeddings)
                or f.n != n
                or any(
                    int(f.depths[s]) != e.tree.k
                    # reprolint: disable=float-distance-eq (bit-identity
                    # holds: forest betas are copied from the embeddings at
                    # construction, never recomputed, so != detects any
                    # mismatched pairing exactly)
                    or float(f.betas[s]) != e.tree.beta
                    or f.num_nodes(s) != e.tree.num_nodes
                    for s, e in enumerate(self.embeddings)
                )
            ):
                raise ValueError("forest does not match the embeddings")

    @property
    def n(self) -> int:
        return self.embeddings[0].tree.n

    @property
    def size(self) -> int:
        return len(self.embeddings)

    @property
    def trees(self) -> list[FRTTree]:
        return [e.tree for e in self.embeddings]

    def distances(self, us, vs) -> np.ndarray:
        """``(size, |pairs|)`` matrix of tree distances.

        Backed by the stacked forest arrays when available (one vectorized
        pass over all trees), else a per-tree loop — bit-identical results.
        """
        us = np.atleast_1d(np.asarray(us, dtype=np.int64))
        vs = np.atleast_1d(np.asarray(vs, dtype=np.int64))
        if self.forest is not None:
            return self.forest.distances(us, vs)
        return np.stack([t.distances(us, vs) for t in self.trees])

    def distance_upper_bounds(self, us, vs) -> np.ndarray:
        """Per-pair min over trees — a dominating estimate that tightens
        (in expectation) as the ensemble grows."""
        return self.distances(us, vs).min(axis=0)

    def median_distances(self, us, vs) -> np.ndarray:
        """Per-pair median over trees — a robust, concentrated estimate."""
        return np.median(self.distances(us, vs), axis=0)

    def best_tree_for(
        self, objective: Callable[[FRTTree], float]
    ) -> tuple[EmbeddingResult, float]:
        """Return the ``(embedding, value)`` minimizing ``objective``.

        This is the log(1/eps)-repetitions pattern: for a linear objective,
        the best of ``k`` trees is an ``O(log n)``-approximation with
        probability ``1 - 2^{-Ω(k)}``.
        """
        best: tuple[EmbeddingResult, float] | None = None
        for emb in self.embeddings:
            val = float(objective(emb.tree))
            if best is None or val < best[1]:
                best = (emb, val)
        assert best is not None
        return best
