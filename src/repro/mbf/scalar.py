"""Vectorized MBF iterations for *scalar* semiring states.

The dense counterpart of :mod:`repro.mbf.dense` for the zoo's scalar
families: node states that are single semiring elements (SSSP, forest
fire, SSWP) or tuples thereof (MSSP, MSWP, APWP, connectivity).  ``c``
independent scalar fixpoints over the same graph are stacked into one
``(n, c)`` matrix — column ``j`` is its own MBF-like run — and one
iteration is a single gather / segmented-reduce pass over the directed
edge set:

- **min-plus** (``S_min,+``): ``X'[v] = min(X[v], min_{u->v} w_uv + X[u])``
  with an optional range filter (``> dmax`` becomes ``inf``; forest fire,
  Example 3.7).  ``unit_weights=True`` replaces every weight by 1, turning
  the kernel into hop counting — the Boolean/connectivity family
  (Example 3.25) is decoded from it via ``isfinite``.
- **max-min** (``S_max,min``): ``X'[v] = max(X[v], max_{u->v} min(w_uv, X[u]))``
  — the widest-path counterpart (Equation 3.9: non-edges carry 0, the
  diagonal carries ``inf`` = keep your own state).

Both kernels reproduce the reference engine bit for bit: the same IEEE
additions/minima are taken over the same operand sets, and the fixpoint
is detected exactly like :func:`repro.mbf.engine.run_to_fixpoint` (first
iteration whose output equals its input).  Model costs follow Lemma 2.3
degenerated to scalar states: one unit of work per emitted entry, a
balanced-tree aggregation, and (when filtering) one unit per state.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.core import Graph
from repro.mbf.engine import fixpoint_error
from repro.pram.cost import NULL_LEDGER, CostLedger

INF = math.inf

__all__ = ["SCALAR_SEMIRINGS", "run_scalar", "scalar_iteration"]

SCALAR_SEMIRINGS = ("min-plus", "max-min")


def _edge_groups(
    G: Graph, *, unit_weights: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges grouped by target: ``(src, w, group_starts, targets)``.

    :meth:`Graph.directed_edges` comes grouped by target, so every
    iteration reduces each target's incoming candidates with one
    ``ufunc.reduceat`` instead of a scatter.
    """
    src, dst, w = G.directed_edges()
    if unit_weights:
        w = np.ones_like(w)
    if dst.size:
        starts = np.flatnonzero(np.concatenate([[True], dst[1:] != dst[:-1]]))
    else:
        starts = np.zeros(0, dtype=np.int64)
    return src, w, starts, dst[starts]


def scalar_iteration(
    X: np.ndarray,  # shape: (n, c) float64 frozen
    semiring: str,  # shape: scalar
    src: np.ndarray,  # shape: (E,) int64 frozen
    w: np.ndarray,  # shape: (E,) float64 frozen
    starts: np.ndarray,  # shape: (t,) int64 frozen
    targets: np.ndarray,  # shape: (t,) int64 frozen
    *,
    dmax: float = INF,  # shape: scalar
    ledger: CostLedger = NULL_LEDGER,
) -> np.ndarray:  # shape: -> (n, c) float64 owned
    """One filtered scalar iteration ``r^V A x`` on pre-grouped edges.

    ``X`` is the ``(n, c)`` state matrix; ``src``/``w``/``starts``/``targets``
    come from the target-grouped edge structure (see :func:`run_scalar`).
    The self term ``a_vv ⊙ x_v = x_v`` (Equation 2.1) is the ``X`` operand
    of the final elementwise combine.
    """
    n, c = X.shape
    new = X.copy()
    if src.size:
        if semiring == "min-plus":
            cand = X[src] + w[:, None]
            red = np.minimum.reduceat(cand, starts, axis=0)
            new[targets] = np.minimum(new[targets], red)
        else:  # max-min
            cand = np.minimum(X[src], w[:, None])
            red = np.maximum.reduceat(cand, starts, axis=0)
            new[targets] = np.maximum(new[targets], red)
    if dmax != INF:
        new[new > dmax] = INF
    # Lemma 2.3 for scalar states: every directed edge emits c entries
    # (plus the n*c self entries), aggregated by a balanced reduction.
    ledger.parallel_for(src.size * c, 1, 1)
    ledger.reduction((src.size + n) * c)
    if dmax != INF:
        ledger.parallel_for(n * c, 1, 1)
    return new


def run_scalar(
    G: Graph,
    init: np.ndarray,  # shape: (n, c) float64 frozen
    *,
    semiring: str = "min-plus",
    dmax: float = INF,
    unit_weights: bool = False,
    h: int | None = None,
    max_iterations: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[np.ndarray, int]:
    """Run ``c`` stacked scalar MBF fixpoints on ``G``.

    Parameters mirror :func:`repro.mbf.dense.run_dense_batched`: ``h``
    runs exactly ``h`` iterations, ``h=None`` iterates to the fixpoint
    under the ``max_iterations`` cap (default ``n + 1``).  Returns ``(X, iterations)``
    where ``X`` is the final ``(n, c)`` state matrix.
    """
    if semiring not in SCALAR_SEMIRINGS:
        raise ValueError(f"semiring must be one of {SCALAR_SEMIRINGS}, got {semiring!r}")
    if dmax != INF and semiring != "min-plus":
        # Under max-min, mapping over-cap values to INF would promote them
        # to the *top* element ("infinitely wide") — inverted semantics.
        raise ValueError("the dmax range filter is a min-plus filter")
    if unit_weights and semiring != "min-plus":
        raise ValueError("unit_weights (hop counting, Eq. 3.28) is a min-plus convention")
    init = np.asarray(init, dtype=np.float64)
    if init.ndim != 2 or init.shape[0] != G.n:
        raise ValueError(f"init must have shape (n={G.n}, c), got {init.shape}")
    if h is not None and h < 0:
        raise ValueError("h must be non-negative")
    src, w, starts, targets = _edge_groups(G, unit_weights=unit_weights)
    # Canonicalize the initial vector through the filter (r^V x^(0)).
    X = init.copy()
    if dmax != INF:
        X[X > dmax] = INF
    if h is not None:
        for _ in range(h):
            X = scalar_iteration(
                X, semiring, src, w, starts, targets, dmax=dmax, ledger=ledger
            )
        return X, h
    cap = (G.n + 1) if max_iterations is None else max_iterations
    if cap < 1:
        raise ValueError("max_iterations must be >= 1")
    for i in range(cap):
        nxt = scalar_iteration(
            X, semiring, src, w, starts, targets, dmax=dmax, ledger=ledger
        )
        if np.array_equal(nxt, X):
            return X, i
        X = nxt
    raise RuntimeError(fixpoint_error(cap, G.n, max_iterations))
