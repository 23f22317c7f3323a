"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.core import Graph
from repro.mbf.dense import BatchedLEFilter, run_dense_batched


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_graphs() -> list[Graph]:
    """A diverse fixed set of small connected graphs."""
    r = np.random.default_rng(7)
    return [
        generators.path_graph(5, rng=r),
        generators.cycle(7, wmin=0.5, wmax=2.0, rng=r),
        generators.grid(3, 4, wmin=1.0, wmax=3.0, rng=r),
        generators.star(6, rng=r),
        generators.random_graph(12, 20, rng=r),
        generators.weighted_tree(9, rng=r),
        generators.complete_graph(6, rng=r),
    ]


def triangle_graph() -> Graph:
    """K3 with weights 1, 2, 4 — tiny hand-checkable instance."""
    return Graph.from_edge_list(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])


def dense_k1(G: Graph, spec, **kwargs):
    """One dense run: the ``k = 1`` batch, as ``(states, iterations)``."""
    states, iters = run_dense_batched(G, spec, 1, **kwargs)
    return states, int(iters[0])


def le_filter(rank) -> BatchedLEFilter:
    """The LE filter of one order: a one-row :class:`BatchedLEFilter`."""
    return BatchedLEFilter(np.asarray(rank)[None, :])
