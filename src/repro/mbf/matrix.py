"""Semiring matrix computations: the squaring baseline (Section 1.1).

"Algebraic Distance Computations": iterating ``A^(i+1) := A^(i) A^(i)``
over the min-plus semiring reaches the distance fixpoint after
``ceil(log2(SPD(G)))`` squarings [15] — polylogarithmic *depth*, but
``Ω(n³)`` *work* per squaring even on sparse graphs.  This is the
classical baseline whose work the paper's MBF-like pipeline undercuts
(``O~(m^{1+eps})``); we implement it both as a correctness oracle and as
the cost baseline for the E4 experiments.

Also provided: generic semiring matrix product/power for the exotic
semirings (max-min, Boolean), matching Lemma 2.14's matrix-semiring view
of simple linear functions.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.algebra.semiring import Semiring
from repro.graph.core import Graph
from repro.pram.cost import NULL_LEDGER, CostLedger
from repro.simulated.hgraph import minplus_matmul

__all__ = [
    "min_plus_adjacency",
    "distance_matrix_by_squaring",
    "semiring_matmul",
    "semiring_matrix_power",
]


def min_plus_adjacency(G: Graph) -> np.ndarray:
    """Dense min-plus adjacency (Equation 1.4): 0 diagonal, ``inf`` non-edges."""
    # reprolint: disable=quadratic-transient-flow (the (n, n) adjacency is
    # the declared output, not a transient)
    A = np.full((G.n, G.n), np.inf)
    src, dst, w = G.directed_edges()
    A[src, dst] = w
    np.fill_diagonal(A, 0.0)
    return A


def distance_matrix_by_squaring(
    G: Graph,
    *,
    ledger: CostLedger = NULL_LEDGER,
    rtol: float = 1e-9,
) -> tuple[np.ndarray, int]:
    """APSP via repeated min-plus squaring; returns ``(distances, squarings)``.

    Each squaring costs ``n³`` work at ``O(log n)`` depth (one min-plus
    product = an n²-way parallel reduction over n terms); the fixpoint
    arrives after ``ceil(log2(SPD(G)))`` squarings.  Improvements below a
    relative ``rtol`` count as float noise, mirroring
    :func:`repro.simulated.hgraph.spd_of_weight_matrix`.
    """
    n = G.n
    A = min_plus_adjacency(G)
    squarings = 0
    max_squarings = max(1, math.ceil(math.log2(n)) + 1)
    for _ in range(max_squarings):
        nxt = np.minimum(A, minplus_matmul(A, A))
        ledger.parallel_for(n * n, work_per_item=n, depth_per_item=1)
        ledger.reduction(n)
        finite = np.isfinite(A)
        progressed = bool(
            np.any(nxt[finite] < A[finite] * (1.0 - rtol))
            or np.any(np.isfinite(nxt) & ~finite)
        )
        A = nxt
        if not progressed:
            break
        squarings += 1
    return A, squarings


def semiring_matmul(S: Semiring, A: list[list[Any]], B: list[list[Any]]) -> list[list[Any]]:
    """Generic matrix product over a semiring (Equation 1.6).

    ``(AB)_vw = ⊕_u a_vu ⊙ b_uw``.  Object matrices (lists of lists);
    intended for verification-scale inputs and exotic semirings.
    """
    n = len(A)
    if any(len(row) != len(B) for row in A) or any(len(row) != len(B[0]) for row in B):
        raise ValueError("inner matrix dimensions must agree")
    p = len(B[0])
    k = len(B)
    out: list[list[Any]] = []
    for v in range(n):
        row = []
        for w in range(p):
            acc = S.zero
            for u in range(k):
                acc = S.add(acc, S.mul(A[v][u], B[u][w]))
            row.append(acc)
        out.append(row)
    return out


def semiring_matrix_power(S: Semiring, A: list[list[Any]], h: int) -> list[list[Any]]:
    """``A^h`` over ``S`` by binary exponentiation (``h >= 1``)."""
    if h < 1:
        raise ValueError("h must be >= 1")
    result: list[list[Any]] | None = None
    base = A
    while h:
        if h & 1:
            result = base if result is None else semiring_matmul(S, result, base)
        h >>= 1
        if h:
            base = semiring_matmul(S, base, base)
    assert result is not None
    return result
