"""Explicit (verification-scale) construction of the simulated graph ``H``.

The production pipeline never materializes ``H`` (Section 5's oracle exists
precisely to avoid the Ω(n²) cost).  For experiments E2/E12 — measuring
``SPD(H)`` and the distortion of Theorem 4.5 — this module builds the dense
``omega_Lambda`` weight matrix and computes ``SPD`` by dense min-plus
fixpoint iteration.  Guarded by a size cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_distances, hop_limited_distances
from repro.hopsets.base import HopSetResult
from repro.simulated.levels import sample_levels
from repro.util.pairs import all_pairs

__all__ = ["SimulatedGraph", "minplus_matmul", "spd_of_weight_matrix"]


def minplus_matmul(D: np.ndarray, W: np.ndarray, *, block: int = 64) -> np.ndarray:
    """Min-plus product ``(D ⊗ W)[i, j] = min_k D[i, k] + W[k, j]``.

    Row-blocked broadcasting keeps the scratch at ``block · n²`` floats.
    """
    n = D.shape[0]
    out = np.empty_like(D)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        out[lo:hi] = np.min(D[lo:hi, :, None] + W[None, :, :], axis=1)
    return out


def spd_of_weight_matrix(
    W: np.ndarray, *, max_h: int | None = None, rtol: float = 1e-9
) -> int:
    """``SPD`` of the complete graph with weight matrix ``W``.

    Iterates ``D ← min(D, D ⊗ W)`` from ``D = dist^1`` until stable; the
    number of productive iterations + 1 is the SPD (``dist^h`` stabilizes
    exactly at ``h = SPD``).  Improvements below a relative ``rtol`` are
    treated as float noise (different summation orders of the same path
    weight), not as progress.
    """
    n = W.shape[0]
    if max_h is None:
        max_h = n
    D = W.copy()
    np.fill_diagonal(D, 0.0)
    h = 1
    while True:
        nxt = np.minimum(D, minplus_matmul(D, W))
        finite = np.isfinite(D)
        progressed = np.any(nxt[finite] < D[finite] * (1.0 - rtol)) or np.any(
            np.isfinite(nxt) & ~finite
        )
        if not progressed:
            return h
        D = nxt
        h += 1
        if h > max_h:
            raise RuntimeError("SPD iteration did not converge")


@dataclass
class SimulatedGraph:
    """Materialized ``H`` for a hop-set result and sampled levels.

    Attributes
    ----------
    weights:
        Dense ``(n, n)`` ``omega_Lambda`` matrix (``0`` diagonal).
    levels, Lambda:
        The sampled node levels and their maximum.
    penalty_base:
        ``1 + eps`` — the base of the level penalty.  Must be at least the
        hop set's ``1 + eps`` for Theorem 4.5's SPD bound to apply; the E12
        ablation deliberately passes ``1.0`` (no penalties) to show the
        bound then fails.
    """

    weights: np.ndarray
    levels: np.ndarray
    Lambda: int
    penalty_base: float
    hop_d: int

    MAX_N = 1500

    @classmethod
    def build(
        cls,
        hopset: HopSetResult,
        *,
        levels: np.ndarray | None = None,
        penalty_base: float | None = None,
        rng=None,
    ) -> "SimulatedGraph":
        """Materialize ``H`` from a hop-set result (Definition 4.2)."""
        n = hopset.graph.n
        if n > cls.MAX_N:
            raise ValueError(
                f"refusing to materialize H for n={n} > {cls.MAX_N}; "
                "use the oracle (repro.oracle) instead"
            )
        if levels is None:
            levels, Lambda = sample_levels(n, rng)
        else:
            levels = np.asarray(levels, dtype=np.int64)
            if levels.shape != (n,) or np.any(levels < 0):
                raise ValueError("levels must be a non-negative (n,) array")
            Lambda = int(levels.max())
        if penalty_base is None:
            penalty_base = 1.0 + hopset.eps
        if not (math.isfinite(penalty_base) and penalty_base >= 1.0):
            raise ValueError(f"penalty_base must be finite and >= 1, got {penalty_base!r}")
        Dd = hop_limited_distances(hopset.graph, hopset.d)
        lam_e = np.minimum(levels[:, None], levels[None, :])
        W = np.power(penalty_base, (Lambda - lam_e).astype(np.float64)) * Dd
        np.fill_diagonal(W, 0.0)
        return cls(
            weights=W,
            levels=levels,
            Lambda=Lambda,
            penalty_base=float(penalty_base),
            hop_d=hopset.d,
        )

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def edge_weight(self, u: int, v: int) -> float:
        """``omega_Lambda({u, v})`` (Equation 4.2)."""
        return float(self.weights[u, v])

    def distances(self) -> np.ndarray:
        """Exact ``dist(·,·,H)`` via dense min-plus fixpoint."""
        D = self.weights.copy()
        np.fill_diagonal(D, 0.0)
        while True:
            nxt = np.minimum(D, minplus_matmul(D, self.weights))
            if np.allclose(nxt, D, rtol=0, atol=0):
                return D
            D = nxt

    def spd(self, *, max_h: int | None = None) -> int:
        """``SPD(H)`` (Theorem 4.5 claims ``O(log² n)`` w.h.p.)."""
        return spd_of_weight_matrix(self.weights, max_h=max_h)

    def distortion_vs(self, G: Graph) -> tuple[float, float]:
        """``(min, max)`` of ``dist_H / dist_G`` over all pairs.

        Theorem 4.5 / Eq. (4.14): the min must be ≥ 1 (dominance) and the
        max at most ``(1+eps)^(Lambda+1)``.
        """
        DG = dijkstra_distances(G)
        DH = self.distances()
        off = ~np.eye(self.n, dtype=bool)
        ratios = DH[off] / DG[off]
        return float(ratios.min()), float(ratios.max())

    def to_graph(self) -> Graph:
        """Export ``H`` as an explicit :class:`Graph` (complete)."""
        iu, ju = all_pairs(self.n)
        mask = np.isfinite(self.weights[iu, ju])
        return Graph(
            self.n,
            np.stack([iu[mask], ju[mask]], axis=1),
            self.weights[iu, ju][mask],
            validate=False,
        )
