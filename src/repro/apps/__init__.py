"""Applications of the metric tree embedding (Sections 9-10).

- :mod:`repro.apps.kmedian` — Theorem 9.2: expected ``O(log k)``-approximate
  k-median from a graph input (candidate sampling → FRT/HST embedding →
  exact tree DP → map back).
- :mod:`repro.apps.buyatbulk` — Theorem 10.2: expected
  ``O(log n)``-approximate buy-at-bulk network design (route on the tree,
  buy optimal cables per edge, map paths back to ``G``).
- :mod:`repro.apps.batched` — the forest-backed fast path both pipelines
  run on: the k-median DP and the demand routing of *every* ensemble
  sample in one vectorized pass over the stacked
  :class:`~repro.frt.forest.FRTForest` arrays; one tree is its ``k = 1``
  case.  The per-tree reference loops they are checked against, bit for
  bit, live in ``tests/apps_reference.py``.
"""

from repro.apps.batched import (
    cable_costs_array,
    forest_tree_costs,
    hst_kmedian_dp_forest,
    route_demands_on_forest,
)
from repro.apps.kmedian import KMedianResult, kmedian, kmedian_cost
from repro.apps.buyatbulk import (
    BuyAtBulkResult,
    CableType,
    Demand,
    buy_at_bulk,
    cable_cost,
)

__all__ = [
    "KMedianResult",
    "kmedian",
    "kmedian_cost",
    "hst_kmedian_dp_forest",
    "BuyAtBulkResult",
    "CableType",
    "Demand",
    "buy_at_bulk",
    "cable_cost",
    "route_demands_on_forest",
    "cable_costs_array",
    "forest_tree_costs",
]
