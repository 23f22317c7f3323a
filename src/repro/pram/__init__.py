"""Work/depth accounting in the paper's abstract parallel cost model.

The paper (Section 1.2, "Model of Computation") measures algorithms by the
*work* (number of DAG nodes / elementary operations) and *depth* (longest DAG
path) of the computation.  We cannot execute on an idealized machine, so every
parallel kernel in this library reports its cost to a :class:`CostLedger`
following the standard composition rules:

- sequential composition adds both work and depth;
- a parallel-for over ``k`` independent items adds ``sum(work_i)`` work but
  only ``max(depth_i)`` depth;
- balanced reductions/sorts over ``k`` items add ``O(k log k)`` work and
  ``O(log k)`` depth.

Benchmarks report these ledgers; they are the measured counterpart of the
paper's asymptotic statements (e.g. Theorems 5.2 and 7.9).
"""

from repro.pram.cost import CostLedger, NULL_LEDGER

__all__ = ["CostLedger", "NULL_LEDGER"]
