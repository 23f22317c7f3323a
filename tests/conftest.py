"""Shared fixtures and helpers for the test suite.

``--lestep-cflags="..."`` adds compiler flags to the compiled LE step's
build (``repro.mbf.native._FLAGS``), e.g. ``-fsanitize=address,undefined``
for CI's sanitizer job.  The library's cache name hashes the flags, so such
a build never shares a file with the plain one.
"""

from __future__ import annotations

import shlex

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.core import Graph
from repro.mbf import native
from repro.mbf.dense import BatchedLEFilter, run_dense_batched


def pytest_addoption(parser):
    parser.addoption(
        "--lestep-cflags",
        default="",
        help="extra C compiler flags for the compiled LE step (_lestep.c)",
    )


def pytest_configure(config):
    extra = tuple(shlex.split(config.getoption("--lestep-cflags")))
    if extra:
        native._FLAGS = native._FLAGS + extra


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
