"""Hypothesis property tests: engine equivalences on random graphs.

Strategy: generate small connected random weighted graphs (integer
weights so float sums are exact) plus random permutations; assert that the
dense vectorized engine, the reference engine, and (for distances) SciPy
agree exactly.  The compiled LE step is also run against its NumPy
reference (``tests/le_reference.py``) on random staircase batches.
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
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    MinFilter,
    TopKFilter,
    _generic_iteration_batched,
    aggregate_batched,
    dense_iteration_batched_ex,
)
from repro.pram.cost import CostLedger
from tests.conftest import dense_k1, le_filter
from tests.frt_reference import distance_matrix
from tests.le_reference import _le_iteration_incremental, assert_same_step

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


@st.composite
def le_step_cases(draw):
    """One LE step's input: a graph on ``n >= 1`` vertices with integer
    weights 1..3 (maybe no edges), ``k <= 4`` orders, a ``weight_scale`` of
    1 or ``1.25**3``, a staircase batch built with ``aggregate_batched``
    (segments may be empty), a fresh mask (all, none or random) and maybe
    a staircase ``base``.  Distances are multiples of the scale, so
    ``d + w`` ties and rank ties are common."""
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=1, max_value=4))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    weights = [draw(st.integers(min_value=1, max_value=3)) for _ in edges]
    g = Graph(
        n,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        np.array(weights, dtype=np.float64),
        validate=False,
    )
    ranks = np.array([draw(st.permutations(range(n))) for _ in range(k)], dtype=np.int64)
    spec = BatchedLEFilter(ranks)
    scale = draw(st.sampled_from([1.0, 1.25**3]))

    def staircases():
        entry = st.tuples(st.integers(0, k * n - 1), st.integers(0, n - 1), st.integers(0, 6))
        rows = np.array(draw(st.lists(entry, max_size=3 * k * n)), dtype=np.int64).reshape(-1, 3)
        return aggregate_batched(k, n, rows[:, 0], rows[:, 1], rows[:, 2] * scale, spec)

    states = staircases()
    mask = draw(st.sampled_from(["none", "all", "random"]))
    if mask == "none":
        fresh = None
    elif mask == "all":
        fresh = np.ones(states.total, dtype=bool)
    else:
        fresh = np.array(
            draw(st.lists(st.booleans(), min_size=states.total, max_size=states.total)),
            dtype=bool,
        )
    base = staircases() if draw(st.booleans()) else None
    return g, spec, scale, states, fresh, base


class TestCompiledLEStepProperty:
    @given(le_step_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        """The compiled step and the NumPy reference agree bit for bit:
        lists, ``changed``, inserted flags, per-sample ledgers, and whether
        the result is the merged-into batch itself."""
        g, spec, scale, states, fresh, base = case
        ledgers = {name: [CostLedger() for _ in range(states.k)] for name in ("c", "r")}
        kwargs = dict(weight_scale=scale, fresh=fresh, base=base)
        got = dense_iteration_batched_ex(g, states, spec, ledgers=ledgers["c"], **kwargs)
        want = _le_iteration_incremental(g, states, spec, ledgers=ledgers["r"], **kwargs)
        assert_same_step(got, want, states if base is None else base)
        assert [led.snapshot() for led in ledgers["c"]] == [led.snapshot() for led in ledgers["r"]]
        if fresh is None and base is None:
            full = _generic_iteration_batched(g, states, spec, scale, None)
            assert got[0].equals(full)
            assert np.array_equal(got[1], ~states.sample_equal(full))
