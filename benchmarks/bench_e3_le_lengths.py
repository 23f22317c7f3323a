"""E3 — Lemma 7.6: LE lists have length ``O(log n)`` w.h.p.

Paper claim: for any state independent of the random order, the filtered
list length is ``O(log n)`` w.h.p. (expected length = harmonic ≈ ln n);
this holds throughout all intermediate MBF iterations and is what makes
every iteration cheap.

Measured: max and mean LE-list length across sizes and graph families,
plus the full LE fixpoint computation time, on one random order
(``k = 1``): the dense engine's batched driver
(:func:`~repro.frt.lelists.compute_le_lists_batch`) for the scaling sweep,
the ``"reference"`` engine (``solve(..., engine="reference")`` on the zoo's
LE-list problem) cross-checks it on a small instance.  Expected shape: max
length grows like ``c·log n`` with small ``c`` (≈1-3), not polynomially;
engines agree exactly.
"""

import numpy as np
import pytest

from repro.api import as_rng, generators as gen, max_list_length, problems, solve
from repro.frt.lelists import compute_le_lists_batch


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_e3_le_length_scaling(benchmark, n):
    g = gen.random_graph(n, 3 * n, rng=20)
    ranks = as_rng(21).permutation(n)[None, :]

    def run():
        return compute_le_lists_batch(g, ranks)

    lists, iters = benchmark.pedantic(run, rounds=1, iterations=1)
    max_len = max_list_length(lists)
    mean_len = float(lists.counts().mean())
    benchmark.extra_info.update(
        n=n, m=g.m, max_len=max_len, mean_len=mean_len,
        log2n=float(np.log2(n)), iterations=int(iters[0]), backend="dense",
    )
    assert max_len <= 4 * np.log2(n)
    assert mean_len <= 2 * np.log(n)


@pytest.mark.parametrize("family", ["cycle", "grid", "expander"])
def test_e3_families(benchmark, family):
    n = 400
    if family == "cycle":
        g = gen.cycle(n, rng=22)
    elif family == "grid":
        g = gen.grid(20, 20, rng=22)
    else:
        g = gen.random_regular(n, 4, rng=22)
    ranks = as_rng(23).permutation(g.n)[None, :]
    lists, _ = benchmark.pedantic(
        lambda: compute_le_lists_batch(g, ranks), rounds=1, iterations=1
    )
    max_len = max_list_length(lists)
    benchmark.extra_info.update(family=family, n=g.n, max_len=max_len)
    assert max_len <= 4 * np.log2(g.n)


def test_e3_backends_agree(benchmark):
    """The dense and reference engines compute identical LE lists
    (Lemma 7.5 is engine-independent); the dense engine is the fast one."""
    g = gen.random_graph(48, 120, rng=24)
    rank = as_rng(25).permutation(g.n)

    def run_both():
        dense, _ = compute_le_lists_batch(g, rank[None, :])
        ref, _ = solve(g, problems.le_lists(g.n, rank), engine="reference")
        return dense, ref

    dense, ref = benchmark.pedantic(run_both, rounds=1, iterations=1)
    benchmark.extra_info.update(n=g.n, max_len=max_list_length(dense))
    assert dense.to_dicts() == pytest.approx(ref.to_dicts())
