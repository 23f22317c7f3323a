#!/usr/bin/env python
"""A tour of the MBF-like algorithm framework (Sections 2-3).

One template, many algorithms, two engines: each zoo factory packages a
semimodule + filter + initialization as an :class:`MBFProblem`, and
``solve`` runs it on the dense engine whenever the problem has a dense
form — vectorized kernels for the scalar / distance-map / Boolean
families — and on the object-based reference engine otherwise (the
all-paths family).

Run:  python examples/mbf_framework_tour.py
"""

import numpy as np

from repro.api import Graph, Pipeline, PipelineConfig, pick_engine, problems, solve


def main() -> None:
    # A small "trust network": weights in (0, 1] are trust levels for the
    # widest-path example; doubling as distances for the others.
    edges = [
        (0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.95), (0, 4, 0.3),
        (4, 3, 0.9), (1, 4, 0.5), (2, 5, 0.4), (3, 5, 0.7),
    ]
    g = Graph.from_edge_list(6, edges)
    print(f"graph: n={g.n} m={g.m}\n")

    # -- SSSP (min-plus semiring, Example 3.3) ------------------------------
    # solve() picks the engine: scalar min-plus has a dense form.
    inst = problems.sssp(g.n, source=0)
    dists, iters = solve(g, inst)
    print(
        f"SSSP from 0 ({iters} iterations, engine="
        f"{pick_engine(inst)!r}): {np.round(dists, 3)}"
    )

    # -- source detection (Example 3.2) --------------------------------------
    inst = problems.source_detection(g.n, sources=[0, 5], k=1, dmax=2.0)
    out, _ = solve(g, inst)
    nearest = [
        (v, int(np.argmin(out[v])), round(float(out[v].min()), 3))
        for v in range(g.n)
        if np.isfinite(out[v]).any()
    ]
    print(f"nearest source in {{0,5}} within 2.0: {nearest}")

    # -- widest paths / trust propagation (max-min semiring, Ex. 3.13) -------
    trust, _ = solve(g, problems.sswp(g.n, source=0))
    print(f"transitive trust from 0 (widest paths): {np.round(trust, 3)}")

    # -- k shortest distances with paths (all-paths semiring, Ex. 3.23) ------
    # No dense form exists for the all-paths family; solve() runs it on the
    # reference engine.
    inst = problems.k_sdp(g.n, k=3, sink=3)
    paths, _ = solve(g, inst)
    print(f"3 lightest simple 0->3 paths (engine={pick_engine(inst)!r}):")
    for w, p in paths[0]:
        print(f"   weight {w:.2f}  via {p}")

    # -- connectivity (Boolean semiring, Ex. 3.25) ---------------------------
    reach, _ = solve(g, problems.connectivity(g.n))
    print(f"connected: {bool(reach.all())}")

    # -- multi-source shortest paths, then an FRT tree of the same graph -----
    # solve() is the one way to run a problem; the problem itself and
    # pick_engine say what ran where.
    inst = problems.mssp(g.n, sources=[0, 3])
    _, iters = solve(g, inst)
    print(
        f"\n{inst.name} ({inst.family} family) via {pick_engine(inst)!r} "
        f"in {iters} iterations"
    )
    tree = Pipeline(g, PipelineConfig(seed=0)).sample().tree  # a k = 1 FRTForest
    print(f"...and an FRT tree of the same graph: {tree.total_nodes} tree nodes")


if __name__ == "__main__":
    main()
