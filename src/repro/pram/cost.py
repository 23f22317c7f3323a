"""Work/depth cost ledger (the paper's DAG model, Section 1.2).

A :class:`CostLedger` accumulates *work* (total elementary operations) and
*depth* (critical-path length).  Kernels charge costs through three verbs:

- :meth:`CostLedger.serial`: a sequential phase — work and depth both add.
- :meth:`CostLedger.parallel_for`: ``k`` independent parallel items — work
  adds the total, depth adds only the per-item depth (the max).
- :meth:`CostLedger.reduction` / :meth:`CostLedger.sort`: balanced tree
  combine / parallel merge sort over ``k`` items — ``O(k)`` resp.
  ``O(k log k)`` work at ``O(log k)`` depth.

Nested parallelism is expressed with :meth:`CostLedger.fork`: children run
"in parallel", so the parent's depth increases by the max child depth while
work increases by the sum.

The ledger is deliberately simple — integers only, no unit pretence.  What
matters for the reproduction is *scaling* (how work and depth grow with n, m),
not absolute constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CostLedger", "NULL_LEDGER"]


def _log2_ceil(k: int) -> int:
    """``ceil(log2(k))`` for ``k >= 1``; 0 for ``k <= 1``."""
    if k <= 1:
        return 0
    return int(math.ceil(math.log2(k)))


@dataclass
class CostLedger:
    """Accumulates work/depth."""

    work: int = 0
    depth: int = 0

    # -- primitive verbs ---------------------------------------------------

    def serial(self, work: int, depth: int | None = None) -> None:
        """Charge a sequential phase: ``depth`` defaults to ``work``."""
        if work < 0:
            raise ValueError("work must be non-negative")
        self.work += int(work)
        self.depth += int(work if depth is None else depth)

    def parallel_for(
        self, items: int, work_per_item: int = 1, depth_per_item: int = 1
    ) -> None:
        """Charge ``items`` independent parallel tasks."""
        if items < 0:
            raise ValueError("items must be non-negative")
        if items == 0:
            return
        self.work += int(items) * int(work_per_item)
        self.depth += int(depth_per_item)

    def reduction(self, items: int) -> None:
        """Balanced binary tree reduction of ``items`` values."""
        if items <= 0:
            return
        self.work += int(items)
        self.depth += _log2_ceil(items)

    def sort(self, items: int) -> None:
        """Parallel sort of ``items`` keys: ``O(k log k)`` work, ``O(log k)`` depth.

        The paper invokes the AKS sorting network (Lemma 2.3 cites [1]) with
        exactly this cost; we charge ``k * ceil(log2 k)`` work and
        ``ceil(log2 k)`` depth.
        """
        if items <= 1:
            self.serial(1, 1)
            return
        lg = _log2_ceil(items)
        self.work += int(items) * lg
        self.depth += lg

    # -- composition -------------------------------------------------------

    def fork(self) -> "CostLedger":
        """Create a child ledger for a parallel branch (join with :meth:`join`)."""
        return CostLedger()

    def join(self, *children: "CostLedger") -> None:
        """Join parallel children: sum of work, max of depth."""
        if not children:
            return
        self.work += sum(c.work for c in children)
        self.depth += max(c.depth for c in children)

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> tuple[int, int]:
        """Return ``(work, depth)``."""
        return self.work, self.depth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostLedger(work={self.work}, depth={self.depth})"


class _NullLedger(CostLedger):
    """A ledger that ignores all charges — used when costs are not needed.

    Shares the :class:`CostLedger` interface so kernels can charge
    unconditionally without ``if ledger is not None`` noise.
    """

    def serial(self, work: int, depth: int | None = None) -> None:
        return

    def parallel_for(
        self, items: int, work_per_item: int = 1, depth_per_item: int = 1
    ) -> None:
        return

    def reduction(self, items: int) -> None:
        return

    def sort(self, items: int) -> None:
        return

    def fork(self) -> "CostLedger":
        return self

    def join(self, *children: "CostLedger") -> None:
        return


NULL_LEDGER = _NullLedger()
