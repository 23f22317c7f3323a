"""Approximate metrics from graphs (Theorems 6.1 and 6.2).

Theorem 6.1's metric is one APSP query (min filter) of the Section-5
oracle on ``H``: ``dist(·,·,H)`` is a *true metric* (the triangle
inequality holds exactly, unlike raw ``d``-hop distances, cf.
Observation 1.1) that approximates ``dist(·,·,G)`` within
``(1+eps)^{Λ+1}``.  :class:`repro.api.Pipeline` is the one place that
builds the hop set and oracle for it: ``Pipeline(G, cfg).embed_metric()``
runs :func:`metric_from_oracle` on its cached oracle and returns a
:class:`MetricResult`, the one metric value (``query(u, v)``, ``matrix``,
``n``, ``stretch_bound``).

``approximate_metric_spanner`` first sparsifies with a Baswana–Sen
``(2k-1)``-spanner (Theorem 6.2) and runs the same pipeline on it: the
work drops on dense graphs at the price of an extra ``2k-1`` stretch
factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.core import Graph
from repro.metric.spanner import baswana_sen_spanner
from repro.mbf.dense import MinFilter
from repro.oracle.oracle import HOracle
from repro.pram.cost import NULL_LEDGER, CostLedger
from repro.util.rng import as_rng

__all__ = [
    "MetricResult",
    "metric_from_oracle",
    "approximate_metric_spanner",
]


@dataclass
class MetricResult:
    """An approximate metric with provenance.

    ``matrix[v, w]`` approximates ``dist(v, w, G)``; ``stretch_bound`` is
    the a-priori guarantee (w.h.p.), ``iterations`` the number of oracle
    iterations used.
    """

    matrix: np.ndarray
    stretch_bound: float
    iterations: int
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def query(self, u: int, v: int) -> float:
        """Constant-time metric query (the Theorem 6.1 interface)."""
        return float(self.matrix[u, v])


def metric_from_oracle(
    oracle: HOracle,
    *,
    eps: float,
    ledger: CostLedger = NULL_LEDGER,
) -> MetricResult:
    """The Theorem 6.1 post-processing, given an already-built oracle.

    Runs the APSP query (min filter) on ``H`` and packages the exact
    ``H``-distances with the a-priori ``(1+eps)^{Λ+1}`` stretch bound.
    :meth:`repro.api.Pipeline.embed_metric` calls it on the pipeline's
    cached oracle.
    """
    states, iters = oracle.run_batch(MinFilter(), 1, ledgers=[ledger])
    matrix = states.to_matrix()
    # dist(v,·,H) arrives at row of v's sources; symmetrize index order:
    # states[v][w] = dist(w → v) = dist(v, w) by symmetry of H.
    bound = oracle.penalty_base ** (oracle.Lambda + 1)
    return MetricResult(
        matrix=matrix,
        stretch_bound=float(bound),
        iterations=int(iters[0]),
        meta={
            "eps": eps,
            "Lambda": oracle.Lambda,
            "hop_d": oracle.d,
            "spanner_k": None,
        },
    )


def approximate_metric_spanner(
    G: Graph,
    k: int,
    *,
    eps: float = 0.25,
    d0: int | None = None,
    rng=None,
    ledger: CostLedger = NULL_LEDGER,
) -> MetricResult:
    """Theorem 6.2: ``O(1)``-approximate metric via a ``(2k-1)``-spanner.

    The spanner shrinks the edge set to ``O~(n^{1+1/k})`` w.h.p.; the
    combined guarantee is ``(2k-1) · (1+eps)^{O(log n)}``.  The metric of
    the spanner is ``Pipeline(spanner, cfg, rng=g).embed_metric()`` with
    ``cfg``'s hop set at ``d0`` and ``eps``, so a negative ``eps`` raises
    :class:`~repro.api.configs.HopsetConfig`'s ``ValueError``.
    """
    # Local imports: repro.api.pipeline imports this module.
    from repro.api.configs import HopsetConfig, PipelineConfig
    from repro.api.pipeline import Pipeline

    if k < 1:
        raise ValueError("k must be >= 1")
    config = PipelineConfig(hopset=HopsetConfig(d0=d0, eps=eps))
    g = as_rng(rng)
    spanner = baswana_sen_spanner(G, k, rng=g)
    inner = Pipeline(spanner, config, rng=g).embed_metric(ledger=ledger)
    return MetricResult(
        matrix=inner.matrix,
        stretch_bound=inner.stretch_bound * (2 * k - 1),
        iterations=inner.iterations,
        meta={
            **inner.meta,
            "spanner_k": k,
            "spanner_edges": spanner.m,
            "original_edges": G.m,
        },
    )
