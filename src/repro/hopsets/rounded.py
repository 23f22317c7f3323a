"""Rounded hop sets: trade exactness for a genuine ``eps > 0``.

``rounded_hopset`` takes any hop-set result and rounds every *shortcut*
weight up to the next power of ``(1 + eps)``.  Consequences:

- the ``(d, eps)`` guarantee holds: each shortcut still over-estimates its
  pair's distance by at most a ``(1+eps)`` factor, so
  ``dist(v,w,G) <= dist^d(v,w,G'') <= (1+eps)·dist(v,w,G)``;
- ``d``-hop distances now genuinely *violate the triangle inequality* —
  Observation 1.1 in action: a metric ``dist^d`` would force exactness, and
  rounding destroys exactness, so violations must (and do) appear.

This is what makes the simulated graph ``H`` (Section 4) load-bearing in
the reproduction: with an exact hop set the level machinery degenerates
(every level weight coincides); with a rounded hop set it does not.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.core import Graph
from repro.hopsets.base import HopSetResult

__all__ = ["rounded_hopset", "round_up_to_power"]


def round_up_to_power(values: np.ndarray, base: float) -> np.ndarray:
    """Round each positive value up to the nearest integer power of ``base``.

    ``base`` must be finite and exceed 1.  Uses exact integer exponents (no
    drift): the result of ``v`` is ``base**ceil(log_base(v))``, nudged up
    one power if float rounding left it below ``v``.
    """
    if not (math.isfinite(base) and base > 1.0):
        raise ValueError(f"base must be finite and > 1, got {base!r}")
    values = np.asarray(values, dtype=np.float64)
    if np.any(values <= 0):
        raise ValueError("values must be positive")
    exps = np.ceil(np.log(values) / math.log(base)).astype(np.int64)
    out = np.power(base, exps.astype(np.float64))
    low = out < values
    out[low] = np.power(base, (exps[low] + 1).astype(np.float64))
    return out


def rounded_hopset(result: HopSetResult, G: Graph, eps: float) -> HopSetResult:
    """Round the shortcut weights of ``result`` up to powers of ``1 + eps``.

    Parameters
    ----------
    result:
        A hop-set result built *from* ``G`` (typically
        :func:`~repro.hopsets.skeleton.hub_hopset` output with ``eps = 0``).
    G:
        The original graph (used to tell original edges from shortcuts).
    eps:
        Rounding granularity, finite and ``> 0``; the returned guarantee is
        ``(result.d, (1+result.eps)·(1+eps) - 1)``.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0 (eps=0 means no rounding), got {eps!r}")
    base = 1.0 + eps
    gp = result.graph
    # Identify original edges of G by canonical key.
    def keys(edges: np.ndarray, n: int) -> np.ndarray:
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        return lo * n + hi

    orig = set(keys(G.edges, G.n).tolist())
    gp_keys = keys(gp.edges, G.n)
    is_shortcut = ~np.isin(gp_keys, np.fromiter(orig, dtype=np.int64, count=len(orig)))
    new_w = gp.weights.copy()
    if np.any(is_shortcut):
        new_w[is_shortcut] = round_up_to_power(gp.weights[is_shortcut], base)
    graph = Graph(gp.n, gp.edges, new_w, validate=False)
    combined_eps = (1.0 + result.eps) * (1.0 + eps) - 1.0
    meta = dict(result.meta)
    meta.update({"rounding_base": base, "rounded_shortcuts": int(is_shortcut.sum())})
    return HopSetResult(
        graph=graph,
        d=result.d,
        eps=combined_eps,
        extra_edges=result.extra_edges,
        meta=meta,
    )
