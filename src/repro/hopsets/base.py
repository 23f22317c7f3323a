"""Common result type for hop-set constructions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.graph.core import Graph

__all__ = ["HopSetResult"]


@dataclass
class HopSetResult:
    """A graph augmented with a ``(d, eps)``-hop set.

    Attributes
    ----------
    graph:
        ``G' = G ∪ E_hopset`` (duplicate edges deduplicated to min weight).
    d:
        The hop bound: ``dist^d(·,·,G')`` is the distance proxy downstream
        code may use.
    eps:
        The stretch guarantee: ``dist^d(v,w,G') <= (1+eps) dist(v,w,G)``
        (finite; ``0`` for exact constructions; guarantees hold w.h.p. for
        the randomized ones).
    extra_edges:
        Number of edges added on top of ``G`` (after deduplication the
        graph may contain fewer *new* edges than were generated).
    meta:
        Construction-specific diagnostics (hub count, sampling probability,
        rounding base, ...).
    """

    graph: Graph
    d: int
    eps: float
    extra_edges: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("hop bound d must be >= 1")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be non-negative and finite, got {self.eps!r}")
        if self.extra_edges < 0:
            raise ValueError("extra_edges must be non-negative")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HopSetResult(d={self.d}, eps={self.eps:g}, "
            f"extra_edges={self.extra_edges}, n={self.graph.n}, m={self.graph.m})"
        )
