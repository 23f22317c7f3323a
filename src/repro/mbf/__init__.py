"""The MBF-like algorithm framework (Section 2) and algorithm zoo (Section 3).

An *MBF-like algorithm* (Definition 2.11) is a triple of

1. a zero-preserving semimodule ``M`` over a semiring ``S``,
2. a representative projection (filter) ``r : M -> M`` of a congruence
   relation on ``M``,
3. initial node states ``x^(0) ∈ M^V``,

iterated as ``x^(i+1) = r^V A x^(i)`` where ``A`` is the graph's adjacency
matrix over ``S``.  Corollary 2.17 (``r^V ~ id``) guarantees filters can be
applied after any subset of iterations without changing the (equivalence
class of the) result — the engines exploit this.

The framework is exposed through first-class *problems*
(:class:`~repro.mbf.problem.MBFProblem`: algorithm + initialization +
decoder + declared state family) solved by one of two *engines*:

- :mod:`repro.mbf.engine` — the *reference engine*: works for any semiring /
  semimodule / filter, object-based, the correctness oracle for every
  family (:func:`~repro.mbf.problem.solve_reference`).
- :mod:`repro.mbf.dense` — the *flat engine*: vectorized CSR distance-map
  states (semimodule ``D``, one state type for ``k`` samples at once) with
  the min-dedup / source-detection top-k / LE-list filters, instrumented
  with the work/depth ledger.  This is what the oracle (Section 5) and the
  FRT pipeline (Section 7) run on; a single run is the ``k = 1`` batch.
- :mod:`repro.mbf.scalar` — the *scalar engine*: stacked ``(n, c)``
  min-plus / max-min fixpoints for the zoo's scalar families (SSSP, MSSP,
  forest fire, SSWP/MSWP/APWP, connectivity-as-hop-counting).

Both vectorized paths are reached uniformly through
:func:`~repro.mbf.problem.solve_dense` (the ``"dense"`` engine);
:func:`~repro.mbf.problem.solve` runs a problem on ``"dense"`` or
``"reference"``, as :func:`~repro.mbf.problem.pick_engine` decides.
"""

from repro.mbf.algorithm import MBFAlgorithm
from repro.mbf.engine import fixpoint_error, iterate, run, run_to_fixpoint
from repro.mbf.problem import (
    FAMILIES,
    FlatForm,
    MBFProblem,
    ScalarForm,
    pick_engine,
    solve,
    solve_dense,
    solve_reference,
)
from repro.mbf import filters, scalar, zoo
from repro.mbf.dense import BatchedFlatStates

__all__ = [
    "MBFAlgorithm",
    "MBFProblem",
    "FAMILIES",
    "ScalarForm",
    "FlatForm",
    "iterate",
    "run",
    "run_to_fixpoint",
    "fixpoint_error",
    "pick_engine",
    "solve",
    "solve_reference",
    "solve_dense",
    "filters",
    "scalar",
    "zoo",
    "BatchedFlatStates",
]
