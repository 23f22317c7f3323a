"""Hypothesis property tests: engine equivalences on random graphs.

Strategy: generate small connected random weighted graphs (integer
weights so float sums are exact) plus random permutations; assert that the
dense vectorized engine, the reference engine, and (for distances) SciPy
agree exactly.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import DistanceMapModule
from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter
from repro.mbf import filters as ref_filters
from repro.mbf import run as ref_run
from repro.mbf.algorithm import MBFAlgorithm
from repro.mbf.dense import BatchedFlatStates, MinFilter, TopKFilter
from tests.conftest import dense_k1, le_filter
from tests.frt_reference import distance_matrix

INF = math.inf


@st.composite
def connected_graphs(draw, max_n=10):
    """Random connected graph with integer weights in [1, 8]."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    # spanning tree: parent[i] < i
    edges = set()
    for i in range(1, n):
        p = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((p, i))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    weights = [draw(st.integers(min_value=1, max_value=8)) for _ in edges]
    return Graph(
        n,
        np.array(edges, dtype=np.int64),
        np.array(weights, dtype=np.float64),
        validate=False,
    )


class TestDenseVsReferenceProperty:
    @given(connected_graphs(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_min_filter(self, g, h):
        flat, _ = dense_k1(g, MinFilter(), h=h)
        algo = MBFAlgorithm(DistanceMapModule(g.n))
        ref = ref_run(g, algo, [{v: 0.0} for v in range(g.n)], h)
        assert flat.to_dicts() == [
            {k: v for k, v in d.items() if v != INF} for d in ref
        ]

    @given(connected_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_le_filter(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        rank = np.array(perm, dtype=np.int64)
        flat, _ = dense_k1(g, le_filter(rank), h=3)
        algo = MBFAlgorithm(DistanceMapModule(g.n), filter=ref_filters.le_list(rank))
        ref = ref_run(g, algo, [{v: 0.0} for v in range(g.n)], 3)
        assert flat.to_dicts() == ref

    @given(connected_graphs(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_topk_filter(self, g, k):
        S = list(range(0, g.n, 2))
        mask = np.zeros(g.n, dtype=bool)
        mask[S] = True

        flat, _ = dense_k1(
            g, TopKFilter(k, 20.0, mask), x0=BatchedFlatStates.from_sources(1, g.n, S), h=3
        )
        algo = MBFAlgorithm(
            DistanceMapModule(g.n), filter=ref_filters.source_detection(S, k, 20.0)
        )
        ref = ref_run(g, algo, [{v: 0.0} if v in set(S) else {} for v in range(g.n)], 3)
        assert flat.to_dicts() == ref


class TestDistanceInvariantsProperty:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_dense_fixpoint_is_dijkstra(self, g):
        flat, iters = dense_k1(g, MinFilter())
        assert np.allclose(flat.to_matrix(), dijkstra_distances(g))
        assert iters <= g.n

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_le_lists_subset_of_distance_rows(self, g):
        rank = np.arange(g.n)  # deterministic order
        flat, _ = dense_k1(g, le_filter(rank))
        D = dijkstra_distances(g)
        for v in range(g.n):
            ids, dists = flat.node(v)
            assert np.allclose(D[v, ids], dists)
            # vertex 0 (min rank) always present
            assert 0 in ids.tolist()

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_spd_consistency(self, g):
        spd = shortest_path_diameter(g)
        _, iters = dense_k1(g, MinFilter())
        assert iters == spd


class TestFRTreeProperty:
    @given(connected_graphs(max_n=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_dominance_always(self, g, seed):
        from repro.api import EmbeddingConfig, Pipeline, PipelineConfig

        direct = PipelineConfig(embedding=EmbeddingConfig(method="direct"))

        res = Pipeline(g, direct, rng=seed).sample()
        D = dijkstra_distances(g)
        M = distance_matrix(res.tree)
        assert np.all(M >= D - 1e-9)

    @given(connected_graphs(max_n=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_tree_metric_axioms(self, g, seed):
        from repro.api import EmbeddingConfig, Pipeline, PipelineConfig

        direct = PipelineConfig(embedding=EmbeddingConfig(method="direct"))

        res = Pipeline(g, direct, rng=seed).sample()
        M = distance_matrix(res.tree)
        n = g.n
        assert np.allclose(M, M.T)
        assert np.all(np.diag(M) == 0)
        offdiag = M[~np.eye(n, dtype=bool)]
        assert np.all(offdiag > 0)
        # triangle inequality
        for v in range(n):
            via = M[:, v][:, None] + M[v, :][None, :]
            assert np.all(M <= via + 1e-9)
