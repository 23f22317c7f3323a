"""First-class MBF *problems* and the engine drivers that solve them.

The paper's framework claim is that one algebraic template — a semimodule,
a congruence filter, an initialization — instantiates the whole algorithm
zoo.  :class:`MBFProblem` makes that template a first-class value: the
reference-engine triple (``algo``, ``x0``, ``decode``) plus a declared
*state family* and, when the family has one, a vectorized *dense form*.

State families (:data:`FAMILIES`):

==================  ==============================  ====================================
family              node states                     dense representation
==================  ==============================  ====================================
``"min-plus"``      scalars/tuples over ``S_min,+``  ``(n, c)`` float matrix
``"max-min"``       scalars/tuples over ``S_max,min``  ``(n, c)`` float matrix
``"boolean"``       vertex sets over ``B``           hop counts, ``isfinite``
``"distance-map"``  sparse maps in ``D``             ``k = 1`` :class:`BatchedFlatStates`
``"all-paths"``     path maps in ``P_min,+``         — (reference only)
==================  ==============================  ====================================

Two engines share the uniform contract
``solve(G, problem, *, h=None, ledger=...) -> (decoded, iterations)``:

- ``"reference"`` (:func:`solve_reference`) — any family, through the
  object-based engine (:mod:`repro.mbf.engine`; clarity over speed, no
  ledger charges), the correctness oracle for the dense one;
- ``"dense"`` (:func:`solve_dense`) — the vectorized path: scalar families
  through :mod:`repro.mbf.scalar`, distance maps through
  :mod:`repro.mbf.dense`.

:func:`solve` runs a problem on the engine :func:`pick_engine` names:
``"dense"`` whenever the problem has a dense form, else ``"reference"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.graph.core import Graph
from repro.mbf.algorithm import MBFAlgorithm
from repro.mbf.dense import BatchedFlatStates, FilterSpec, run_dense_batched
from repro.mbf.engine import run, run_to_fixpoint
from repro.mbf.scalar import SCALAR_SEMIRINGS, run_scalar
from repro.pram.cost import NULL_LEDGER, CostLedger

INF = math.inf

__all__ = [
    "FAMILIES",
    "DENSE_FAMILIES",
    "ScalarForm",
    "FlatForm",
    "MBFProblem",
    "ENGINES",
    "pick_engine",
    "solve",
    "solve_reference",
    "solve_dense",
]

FAMILIES = ("min-plus", "max-min", "boolean", "distance-map", "all-paths")

#: Families solvable by the vectorized engines (given a dense form).
DENSE_FAMILIES = ("min-plus", "max-min", "boolean", "distance-map")

#: The engine names :func:`solve` accepts.
ENGINES = ("dense", "reference")


@dataclass
class ScalarForm:
    """Dense form of a scalar-family problem: stacked ``(n, c)`` fixpoints.

    ``init`` is the ``(n, c)`` initial state matrix (column = one scalar
    MBF run) or a zero-arg callable producing it — the O(n²) factories
    (APWP, connectivity) defer the allocation so merely *building* the
    problem (or solving it on the reference engine) stays O(n).
    ``decode`` turns the final matrix into the user-facing answer.
    ``dmax`` applies the min-plus range filter after every iteration
    (forest fire); ``unit_weights`` replaces edge weights by 1 (hop
    counting — the Boolean family's Equation 3.28 convention).
    """

    semiring: str
    init: np.ndarray | Callable[[], np.ndarray]
    decode: Callable[[np.ndarray], Any]
    dmax: float = INF
    unit_weights: bool = False

    def __post_init__(self):
        if self.semiring not in SCALAR_SEMIRINGS:
            raise ValueError(
                f"ScalarForm semiring must be one of {SCALAR_SEMIRINGS}, "
                f"got {self.semiring!r}"
            )
        if self.dmax != INF and self.semiring != "min-plus":
            raise ValueError(
                "the dmax range filter is a min-plus filter; it has no "
                f"meaning under {self.semiring!r}"
            )
        if self.unit_weights and self.semiring != "min-plus":
            raise ValueError(
                "unit_weights is the Boolean-family hop-counting convention "
                f"(min-plus, Eq. 3.28); it has no meaning under {self.semiring!r}"
            )
        if not callable(self.init):
            self.init = np.asarray(self.init, dtype=np.float64)
            if self.init.ndim != 2:
                raise ValueError("ScalarForm init must be an (n, c) matrix")

    def build_init(self) -> np.ndarray:
        """The initial state matrix (materializing a lazy ``init``)."""
        return self.init() if callable(self.init) else self.init


@dataclass
class FlatForm:
    """Dense form of a distance-map problem: CSR states + a filter spec.

    ``x0`` is a ``k = 1`` batch and ``spec`` a filter for one sample (an
    LE filter is ``BatchedLEFilter(rank[None, :])``).
    """

    x0: BatchedFlatStates
    spec: FilterSpec
    decode: Callable[[BatchedFlatStates], Any]

    def __post_init__(self):
        if not isinstance(self.x0, BatchedFlatStates) or self.x0.k != 1:
            raise TypeError("FlatForm x0 must be a k = 1 BatchedFlatStates")
        if not isinstance(self.spec, FilterSpec):
            raise TypeError("FlatForm spec must be a FilterSpec")


@dataclass
class MBFProblem:
    """An MBF-like algorithm with initialization, decoder, and state family.

    The first three fields are the reference-engine triple; ``family``
    declares the state family and ``dense_form`` the optional vectorized
    representation (together they decide :func:`pick_engine`).
    """

    algo: MBFAlgorithm
    x0: list
    decode: Callable[[list], Any]
    family: str = "distance-map"
    dense_form: ScalarForm | FlatForm | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown state family {self.family!r}; known: {FAMILIES}"
            )

    @property
    def name(self) -> str:
        """The algorithm's cosmetic label."""
        return self.algo.name

    @property
    def n(self) -> int:
        """Number of vertices the problem was instantiated for."""
        return len(self.x0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dense = "dense" if self.dense_form is not None else "reference-only"
        return f"MBFProblem({self.name!r}, family={self.family!r}, {dense})"


def _check_problem(G: Graph, problem: MBFProblem) -> None:
    if not isinstance(problem, MBFProblem):
        raise TypeError(f"expected an MBFProblem, got {type(problem)!r}")
    if problem.n != G.n:
        raise ValueError(
            f"problem was instantiated for n={problem.n} but the graph has n={G.n}"
        )


def solve_reference(
    G: Graph,
    problem: MBFProblem,
    *,
    h: int | None = None,
    max_iterations: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[Any, int]:
    """Solve ``problem`` on ``G`` with the object-based reference engine.

    Works for every family.  ``ledger`` is accepted for interface
    uniformity; the reference engine predates the cost model and charges
    nothing.  Returns ``(decoded, iterations)``.
    """
    _check_problem(G, problem)
    if h is not None:
        states = run(G, problem.algo, problem.x0, h)
        iters = h
    else:
        states, iters = run_to_fixpoint(
            G, problem.algo, problem.x0, max_iterations=max_iterations
        )
    return problem.decode(states), iters


def solve_dense(
    G: Graph,
    problem: MBFProblem,
    *,
    h: int | None = None,
    max_iterations: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[Any, int]:
    """Solve ``problem`` on ``G`` with the vectorized engines.

    Dispatches on the problem's dense form: :class:`ScalarForm` runs the
    stacked scalar kernels (:func:`repro.mbf.scalar.run_scalar`),
    :class:`FlatForm` the CSR distance-map engine at ``k = 1``
    (:func:`repro.mbf.dense.run_dense_batched`).  Decoded outputs and
    iteration counts are identical to :func:`solve_reference` (pinned by
    the parity suite).  Returns ``(decoded, iterations)``.
    """
    _check_problem(G, problem)
    form = problem.dense_form
    if form is None:
        raise ValueError(
            f"problem {problem.name!r} (family {problem.family!r}) has no dense "
            "form; solve it with the reference engine"
        )
    if isinstance(form, ScalarForm):
        X, iters = run_scalar(
            G,
            form.build_init(),
            semiring=form.semiring,
            dmax=form.dmax,
            unit_weights=form.unit_weights,
            h=h,
            max_iterations=max_iterations,
            ledger=ledger,
        )
        return form.decode(X), iters
    states, iters = run_dense_batched(
        G,
        form.spec,
        1,
        x0=form.x0,
        h=h,
        max_iterations=max_iterations,
        ledgers=[ledger],
    )
    return form.decode(states), int(iters[0])


def pick_engine(problem: MBFProblem, engine: str | None = None) -> str:
    """The engine :func:`solve` runs ``problem`` on: ``"dense"`` or ``"reference"``.

    ``engine=None``/``"auto"`` picks ``"dense"`` when the problem has a
    dense form in a dense family and ``"reference"`` otherwise.  An
    explicit name must be one of :data:`ENGINES` (``KeyError``), and
    ``"dense"`` must be able to run the problem (``ValueError``).
    """
    if not isinstance(problem, MBFProblem):
        raise TypeError(f"expected an MBFProblem, got {type(problem)!r}")
    if engine is None or engine == "auto":
        dense = problem.family in DENSE_FAMILIES and problem.dense_form is not None
        return "dense" if dense else "reference"
    if engine not in ENGINES:
        raise KeyError(f"unknown MBF engine {engine!r}; available: {ENGINES}")
    if engine == "dense" and problem.family not in DENSE_FAMILIES:
        raise ValueError(
            f"engine 'dense' cannot solve family {problem.family!r} "
            f"(supports: {DENSE_FAMILIES})"
        )
    if engine == "dense" and problem.dense_form is None:
        raise ValueError(
            f"engine 'dense' needs a dense form, but problem {problem.name!r} "
            "has none; use the reference engine"
        )
    return engine


def solve(
    G: Graph,
    problem: MBFProblem,
    *,
    engine: str | None = None,
    h: int | None = None,
    max_iterations: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[Any, int]:
    """Solve an MBF-like problem on ``G`` with the engine :func:`pick_engine` names.

    ``h`` runs exactly ``h`` iterations; ``h=None`` iterates to the
    fixpoint under the ``max_iterations`` cap (the cap applies to fixpoint
    mode only — an explicit ``h`` wins, the same precedence as
    :func:`repro.mbf.dense.run_dense_batched`).  Returns ``(decoded,
    iterations)``; decoded outputs and iteration counts do not depend on
    the engine (pinned by the parity suite).
    """
    driver = solve_dense if pick_engine(problem, engine) == "dense" else solve_reference
    return driver(G, problem, h=h, max_iterations=max_iterations, ledger=ledger)
