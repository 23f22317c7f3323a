"""Tests for the vectorized flat-array MBF engine (repro.mbf.dense).

The key property: for every supported filter, the dense engine computes
exactly the same state vectors as the reference engine with the equivalent
dict-based filter.  A single run is the ``k = 1`` batch.
"""

import math

import numpy as np
import pytest

from repro.algebra import DistanceMapModule
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances, shortest_path_diameter
from repro.mbf import filters as ref_filters
from repro.mbf import run as ref_run
from repro.mbf.algorithm import MBFAlgorithm
from repro.mbf.dense import (
    BatchedFlatStates,
    MinFilter,
    TopKFilter,
    dense_iteration_batched_ex,
)
from repro.pram import CostLedger
from tests.conftest import dense_k1, le_filter

INF = math.inf


def assert_same_states(flat: BatchedFlatStates, dicts: list[dict]):
    got = flat.to_dicts()
    assert len(got) == len(dicts)
    for v, (a, b) in enumerate(zip(got, dicts)):
        b = {k: val for k, val in b.items() if val != INF}
        assert a == pytest.approx(b), f"node {v}: {a} != {b}"


class TestFlatStates:
    """One state vector: the ``k = 1`` :class:`BatchedFlatStates`."""

    def test_from_sources_all(self):
        fs = BatchedFlatStates.from_sources(1, 4)
        assert fs.total == 4
        assert fs.to_dicts() == [{0: 0.0}, {1: 0.0}, {2: 0.0}, {3: 0.0}]

    def test_from_sources_subset(self):
        fs = BatchedFlatStates.from_sources(1, 4, [2, 0])
        assert fs.to_dicts() == [{0: 0.0}, {}, {2: 0.0}, {}]

    def test_from_sources_out_of_range(self):
        with pytest.raises(ValueError):
            BatchedFlatStates.from_sources(1, 3, [3])

    def test_dict_round_trip(self):
        dicts = [{1: 2.0, 0: 1.0}, {}, {2: 0.5}]
        fs = BatchedFlatStates.from_dicts(dicts)
        assert fs.to_dicts() == dicts
        assert fs.counts().tolist() == [2, 0, 1]

    def test_to_matrix(self):
        fs = BatchedFlatStates.from_dicts([{1: 2.0}, {0: 3.0}])
        M = fs.to_matrix()
        assert M[0, 1] == 2.0 and M[1, 0] == 3.0
        assert np.isinf(M[0, 0])

    def test_restrict(self):
        fs = BatchedFlatStates.from_dicts([{0: 1.0}, {1: 2.0}, {2: 3.0}])
        out = fs.restrict(np.array([True, False, True]))
        assert out.to_dicts() == [{0: 1.0}, {}, {2: 3.0}]

    def test_restrict_shape_check(self):
        fs = BatchedFlatStates.from_sources(1, 3)
        with pytest.raises(ValueError):
            fs.restrict(np.array([True]))

    def test_equals(self):
        a = BatchedFlatStates.from_dicts([{0: 1.0}, {}])
        b = BatchedFlatStates.from_dicts([{0: 1.0}, {}])
        c = BatchedFlatStates.from_dicts([{0: 2.0}, {}])
        assert a.equals(b) and not a.equals(c)

    def test_node_view(self):
        fs = BatchedFlatStates.from_dicts([{0: 1.0, 2: 4.0}, {1: 0.0}])
        ids, dists = fs.node(0)
        assert ids.tolist() == [0, 2]
        assert dists.tolist() == [1.0, 4.0]


class TestMinFilterEquivalence:
    @pytest.mark.parametrize("h", [0, 1, 2, 4])
    def test_apsp_vs_reference(self, small_graphs, h):
        for g in small_graphs:
            flat, _ = dense_k1(g, MinFilter(), h=h)
            algo = MBFAlgorithm(DistanceMapModule(g.n))
            ref = ref_run(g, algo, [{v: 0.0} for v in range(g.n)], h)
            assert_same_states(flat, ref)

    def test_fixpoint_matches_dijkstra(self, small_graphs):
        for g in small_graphs:
            flat, iters = dense_k1(g, MinFilter())
            assert iters == shortest_path_diameter(g)
            assert np.allclose(flat.to_matrix(), dijkstra_distances(g))

    def test_subset_sources(self):
        g = gen.grid(3, 4, rng=0)
        flat, _ = dense_k1(g, MinFilter(), sources=[0, 5])
        D = dijkstra_distances(g, [0, 5])
        M = flat.to_matrix()
        assert np.allclose(M[:, 0], D[0])
        assert np.allclose(M[:, 5], D[1])


class TestTopKFilterEquivalence:
    @pytest.mark.parametrize("k,dmax", [(1, INF), (2, INF), (3, 4.0), (2, 2.0)])
    def test_vs_reference(self, small_graphs, k, dmax):
        for g in small_graphs[:5]:
            S = list(range(0, g.n, 2))
            mask = np.zeros(g.n, dtype=bool)
            mask[S] = True
            x0 = BatchedFlatStates.from_sources(1, g.n, S)
            flat, _ = dense_k1(
                g, TopKFilter(k, dmax, mask), x0=x0, h=3
            )
            algo = MBFAlgorithm(
                DistanceMapModule(g.n),
                filter=ref_filters.source_detection(S, k, dmax),
            )
            ref = ref_run(g, algo, [{v: 0.0} if v in S else {} for v in range(g.n)], 3)
            assert_same_states(flat, ref)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopKFilter(0)

    def test_dedup_within_target(self):
        # The same source reachable along two routes must count once.
        g = gen.cycle(6, rng=0)
        flat, _ = dense_k1(g, TopKFilter(3), h=6)
        for v in range(g.n):
            ids, _ = flat.node(v)
            assert np.unique(ids).size == ids.size == 3


class TestLEFilterEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vs_reference(self, small_graphs, seed):
        for g in small_graphs:
            rank = np.random.default_rng(seed).permutation(g.n)
            flat, _ = dense_k1(g, le_filter(rank), h=3)
            algo = MBFAlgorithm(
                DistanceMapModule(g.n), filter=ref_filters.le_list(rank)
            )
            ref = ref_run(g, algo, [{v: 0.0} for v in range(g.n)], 3)
            assert_same_states(flat, ref)

    def test_staircase_property(self):
        # In every LE list, sorting by distance gives strictly decreasing rank.
        g = gen.random_graph(30, 70, rng=3)
        rank = np.random.default_rng(4).permutation(g.n)
        flat, _ = dense_k1(g, le_filter(rank))
        for v in range(g.n):
            ids, dists = flat.node(v)
            order = np.lexsort((rank[ids], dists))
            r = rank[ids][order]
            assert np.all(np.diff(r) < 0)

    def test_le_fixpoint_iterations_bounded_by_spd(self, small_graphs):
        for g in small_graphs:
            rank = np.random.default_rng(0).permutation(g.n)
            _, iters = dense_k1(g, le_filter(rank))
            assert iters <= shortest_path_diameter(g)

    def test_minimum_node_in_every_list(self):
        g = gen.grid(4, 4, rng=1)
        rank = np.random.default_rng(2).permutation(g.n)
        flat, _ = dense_k1(g, le_filter(rank))
        top = int(np.argmin(rank))
        for v in range(g.n):
            ids, _ = flat.node(v)
            assert top in ids.tolist()

    def test_own_entry_present(self):
        g = gen.cycle(9, rng=0)
        rank = np.random.default_rng(1).permutation(g.n)
        flat, _ = dense_k1(g, le_filter(rank))
        for v in range(g.n):
            ids, dists = flat.node(v)
            mask = ids == v
            # v's own (v, 0) entry survives iff nothing with smaller rank
            # is at distance 0 — i.e. always (positive weights).
            assert mask.sum() == 1 and dists[mask][0] == 0.0


class TestCostLedgerIntegration:
    def test_ledger_accumulates(self):
        g = gen.random_graph(20, 50, rng=0)
        ledger = CostLedger()
        dense_k1(g, MinFilter(), h=3, ledgers=[ledger])
        assert ledger.work > 0 and ledger.depth > 0

    def test_more_iterations_more_depth(self):
        g = gen.cycle(12, rng=0)
        l1, l2 = CostLedger(), CostLedger()
        dense_k1(g, MinFilter(), h=1, ledgers=[l1])
        dense_k1(g, MinFilter(), h=4, ledgers=[l2])
        assert l2.depth > l1.depth
        assert l2.work > l1.work

    def test_le_filter_cheaper_than_apsp(self):
        # The point of filtering: LE lists process far fewer entries.
        g = gen.random_graph(60, 150, rng=1)
        rank = np.random.default_rng(0).permutation(g.n)
        la, lb = CostLedger(), CostLedger()
        dense_k1(g, MinFilter(), ledgers=[la])
        dense_k1(g, le_filter(rank), ledgers=[lb])
        assert lb.work < la.work


class TestWeightScale:
    def test_scaled_iteration(self):
        g = gen.path_graph(4)
        x0 = BatchedFlatStates.from_sources(1, 4, [0])
        out, _, _ = dense_iteration_batched_ex(g, x0, MinFilter(), weight_scale=2.0)
        d = out.to_matrix()[:, 0]
        assert d[1] == 2.0  # weight 1 scaled by 2


class TestRunDenseMaxIterations:
    """``run_dense_batched`` exposes the same cap API as
    ``run_to_fixpoint`` and ``HOracle.run_batch`` (same default,
    semantics, and validation)."""

    def test_default_cap_unchanged(self):
        g = gen.cycle(8, rng=0)
        _, iters = dense_k1(g, MinFilter())
        assert iters <= g.n

    def test_cap_is_exactly_max_iterations(self):
        g = gen.path_graph(8)  # SPD = 7: fixpoint at 7, detected at 8
        states, iters = dense_k1(g, MinFilter(), max_iterations=8)
        assert iters == 7
        with pytest.raises(RuntimeError, match="within 7"):
            dense_k1(g, MinFilter(), max_iterations=7)

    def test_rejects_nonpositive_cap(self):
        g = gen.cycle(6, rng=0)
        with pytest.raises(ValueError, match="max_iterations"):
            dense_k1(g, MinFilter(), max_iterations=0)

    def test_cap_ignored_with_explicit_h(self):
        g = gen.path_graph(6)
        states, iters = dense_k1(g, MinFilter(), h=2, max_iterations=1)
        assert iters == 2
