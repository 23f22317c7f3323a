"""Tests for distance computations: exact, hop-limited, SPD, hop diameter."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.core import Graph
from repro.graph.shortest_paths import (
    _relax_to_fixpoint,
    dijkstra_distances,
    grouped_inedges,
    hop_diameter,
    hop_limited_distances,
    min_hop_of_shortest_path,
    shortest_path_diameter,
)
from tests.conftest import triangle_graph


def nx_distances(G: Graph) -> np.ndarray:
    out = np.full((G.n, G.n), np.inf)
    for s, dd in nx.all_pairs_dijkstra_path_length(G.to_networkx()):
        for t, d in dd.items():
            out[s, t] = d
    return out


def reference_hop_limited_distances(G, h, sources=None, *, block=128):
    """The fixed ``h``-round relaxation, kept verbatim as the parity reference.

    :func:`hop_limited_distances` stops at the fixpoint instead and must
    return exactly these bits.
    """
    if h < 0:
        raise ValueError("h must be non-negative")
    n = G.n
    if sources is None:
        sources = np.arange(n, dtype=np.int64)
    else:
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    src, dst_unique, starts, w = grouped_inedges(G)
    out = np.full((sources.size, n), np.inf)
    for lo in range(0, sources.size, block):
        hi = min(lo + block, sources.size)
        blk = sources[lo:hi]
        D = np.full((blk.size, n), np.inf)
        D[np.arange(blk.size), blk] = 0.0
        for _ in range(h):
            if src.size:
                cand = D[:, src] + w[None, :]
                best = np.minimum.reduceat(cand, starts, axis=1)
                D[:, dst_unique] = np.minimum(D[:, dst_unique], best)
        out[lo:hi] = D
    return out


def _integer_weighted() -> Graph:
    g = gen.random_graph(24, 50, rng=4)
    return Graph(g.n, g.edges, np.random.default_rng(5).integers(1, 6, size=g.m))


def _two_components() -> Graph:
    return Graph.from_edge_list(
        7,
        [(0, 1, 1.5), (1, 2, 2.0), (0, 2, 4.0),
         (3, 4, 1.0), (4, 5, 0.5), (5, 6, 3.0), (3, 6, 1.25)],
    )


PARITY_GRAPHS = {
    "path": lambda: gen.path_graph(9),
    "cycle": lambda: gen.cycle(10, wmin=0.5, wmax=2.0, rng=1),
    "star": lambda: gen.star(8),
    "random-float": lambda: gen.random_graph(30, 70, rng=2),
    "random-int": _integer_weighted,
    "single-vertex": lambda: Graph(1, np.empty((0, 2), dtype=np.int64), []),
    "two-components": _two_components,
}


def _max_min_hop(G: Graph) -> int:
    """``SPD`` over the reachable pairs (so also defined when disconnected)."""
    return max(int(min_hop_of_shortest_path(G, s).max()) for s in range(G.n))


class _CountingRows:
    """Row-block stand-in that counts the relaxation's gathers and writes.

    A round gathers twice (the sources of every in-edge, then the target
    block); only an improving round writes the target block back.
    """

    def __init__(self, D: np.ndarray):
        self.D, self.gathers, self.writes = D, 0, 0

    def take(self, indices, axis=None, out=None, mode="raise"):
        self.gathers += 1
        return self.D.take(indices, axis=axis, out=out, mode=mode)

    def __setitem__(self, key, value):
        self.writes += 1
        self.D[key] = value


def _relax_all_sources(G: Graph, max_rounds: int):
    """``(improving rounds, rounds run, writes, rows)`` of one all-source block."""
    D = np.full((G.n, G.n), np.inf)
    np.fill_diagonal(D, 0.0)
    rows = _CountingRows(D)
    improving = _relax_to_fixpoint(rows, grouped_inedges(G), max_rounds)
    return improving, rows.gathers // 2, rows.writes, D


class TestDijkstra:
    def test_matches_networkx(self, small_graphs):
        for g in small_graphs:
            D = dijkstra_distances(g)
            assert np.allclose(D, nx_distances(g))

    def test_single_source(self):
        g = triangle_graph()
        d = dijkstra_distances(g, [0])[0]
        assert d.tolist() == [0.0, 1.0, 3.0]  # 0-2 via 1 is cheaper than direct

    def test_subset_of_sources(self):
        g = gen.grid(3, 3, rng=0)
        D_all = dijkstra_distances(g)
        D_sub = dijkstra_distances(g, [2, 5])
        assert np.allclose(D_sub, D_all[[2, 5]])


class TestHopLimited:
    def test_zero_hops(self):
        g = triangle_graph()
        D = hop_limited_distances(g, 0)
        assert np.isinf(D[0, 1])
        assert D[0, 0] == 0.0

    def test_one_hop_is_adjacency(self):
        g = triangle_graph()
        D = hop_limited_distances(g, 1)
        assert D[0, 2] == 4.0  # direct edge only, no 2-hop path yet

    def test_two_hops_improves(self):
        g = triangle_graph()
        D = hop_limited_distances(g, 2)
        assert D[0, 2] == 3.0

    def test_monotone_in_h(self, small_graphs):
        for g in small_graphs:
            prev = hop_limited_distances(g, 0)
            for h in range(1, 4):
                cur = hop_limited_distances(g, h)
                assert np.all(cur <= prev + 1e-12)
                prev = cur

    def test_converges_to_exact(self, small_graphs):
        for g in small_graphs:
            D = hop_limited_distances(g, g.n)
            assert np.allclose(D, dijkstra_distances(g))

    def test_against_bellman_ford_path(self):
        # dist^h on a path: vertex i reachable from 0 only within i hops.
        g = gen.path_graph(6)
        for h in range(6):
            D = hop_limited_distances(g, h, [0])[0]
            for v in range(6):
                if v <= h:
                    assert D[v] == v
                else:
                    assert np.isinf(D[v])

    def test_sources_subset_and_block(self):
        g = gen.random_graph(20, 40, rng=3)
        full = hop_limited_distances(g, 3)
        sub = hop_limited_distances(g, 3, [4, 9, 17], block=2)
        assert np.allclose(sub, full[[4, 9, 17]])

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            hop_limited_distances(triangle_graph(), -1)

    def test_unreachable_entries_stay_inf(self):
        D = hop_limited_distances(_two_components(), 100)
        assert np.isinf(D[:3, 3:]).all() and np.isinf(D[3:, :3]).all()
        assert np.isfinite(D[:3, :3]).all() and np.isfinite(D[3:, 3:]).all()


class TestFixpointParity:
    """Stopping at the fixpoint returns the fixed-round loop's exact bits."""

    @pytest.mark.parametrize("block", [1, 3, None])
    @pytest.mark.parametrize("name", sorted(PARITY_GRAPHS))
    def test_matches_fixed_round_reference(self, name, block):
        g = PARITY_GRAPHS[name]()
        spd = _max_min_hop(g)
        kw = {} if block is None else {"block": block}
        hs = sorted({h for h in (0, 1, spd - 1, spd, spd + 1, 5 * spd) if h >= 0})
        for h in hs:
            for sources in (None, np.arange(1, g.n, 2), [g.n - 1, 0, g.n - 1]):
                got = hop_limited_distances(g, h, sources, **kw)
                ref = reference_hop_limited_distances(g, h, sources, **kw)
                assert np.array_equal(got, ref), (h, sources)


class TestFixpointRounds:
    """The loop runs ``min(h, SPD + 1)`` rounds, ``min(h, SPD)`` improving."""

    @pytest.mark.parametrize(
        "h, rounds", [(100, 9), (10, 9), (9, 9), (8, 8), (3, 3), (1, 1), (0, 0)]
    )
    def test_path_stops_one_round_after_spd(self, h, rounds):
        g = gen.path_graph(9)  # SPD 8
        improving, run, writes, D = _relax_all_sources(g, h)
        assert run == rounds
        assert improving == writes == min(h, 8)
        assert np.array_equal(D, reference_hop_limited_distances(g, h))

    @pytest.mark.parametrize("name", sorted(PARITY_GRAPHS))
    def test_rounds_on_every_parity_graph(self, name):
        g = PARITY_GRAPHS[name]()
        spd = _max_min_hop(g)
        for h in (0, 1, spd, spd + 1, 5 * spd):
            improving, run, writes, _ = _relax_all_sources(g, h)
            # A graph without edges has nothing to relax: no round runs.
            assert run == (min(h, spd + 1) if g.m else 0), h
            assert improving == writes == min(h, spd), h


class TestSourceValidation:
    """Source ids outside ``[0, n)`` and empty blocks are rejected up front."""

    def test_negative_source_rejected_by_hop_limited(self):
        with pytest.raises(ValueError, match="source id -1 "):
            hop_limited_distances(gen.path_graph(5), 2, [-1])

    def test_negative_source_rejected_by_dijkstra(self):
        with pytest.raises(ValueError, match="source id -5 "):
            dijkstra_distances(gen.path_graph(5), [-5])

    def test_source_past_n_rejected_by_hop_limited(self):
        with pytest.raises(ValueError, match="source id 5 "):
            hop_limited_distances(gen.path_graph(5), 2, [5])

    def test_source_past_n_rejected_by_dijkstra(self):
        with pytest.raises(ValueError, match="source id 5 "):
            dijkstra_distances(gen.path_graph(5), [5])

    def test_first_bad_id_is_named(self):
        with pytest.raises(ValueError, match="source id 7 "):
            hop_limited_distances(gen.path_graph(5), 2, [0, 7, -1])

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError, match="block must be >= 1"):
            hop_limited_distances(gen.path_graph(5), 2, block=0)

    def test_zero_block_rejected_by_spd(self):
        with pytest.raises(ValueError, match="block must be >= 1"):
            shortest_path_diameter(gen.path_graph(5), block=0)


class TestSPD:
    def test_path(self):
        assert shortest_path_diameter(gen.path_graph(9)) == 8

    def test_cycle_even(self):
        assert shortest_path_diameter(gen.cycle(10)) == 5

    def test_star(self):
        assert shortest_path_diameter(gen.star(8)) == 2

    def test_single_vertex(self):
        g = Graph(1, np.empty((0, 2), dtype=np.int64), [])
        assert shortest_path_diameter(g) == 0

    def test_complete_unit_weights(self):
        g = gen.complete_graph(7, wmin=1, wmax=1, rng=0)
        assert shortest_path_diameter(g) == 1

    def test_disconnected_raises(self):
        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            shortest_path_diameter(g)

    def test_no_edges_raises(self):
        g = Graph(3, np.empty((0, 2), dtype=np.int64), [])
        with pytest.raises(ValueError, match="disconnected"):
            shortest_path_diameter(g)

    def test_max_h_cap(self):
        g = gen.path_graph(9)
        assert shortest_path_diameter(g, max_h=8) == 8
        with pytest.raises(ValueError, match="max_h"):
            shortest_path_diameter(g, max_h=7)

    def test_consistent_with_hop_limited(self, small_graphs):
        for g in small_graphs:
            spd = shortest_path_diameter(g)
            exact = dijkstra_distances(g)
            assert np.allclose(hop_limited_distances(g, spd), exact)
            if spd > 0:
                assert not np.allclose(hop_limited_distances(g, spd - 1), exact)

    def test_matches_min_hop_definition(self, small_graphs):
        # SPD = max over sources of max min-hop-of-shortest-path.
        for g in small_graphs:
            spd = shortest_path_diameter(g)
            hop_max = max(
                int(min_hop_of_shortest_path(g, s).max()) for s in range(g.n)
            )
            assert spd == hop_max

    def test_block_parameter(self):
        g = gen.cycle(13, rng=0)
        assert shortest_path_diameter(g, block=3) == shortest_path_diameter(g)


class TestHopDiameter:
    def test_path(self):
        assert hop_diameter(gen.path_graph(7)) == 6

    def test_weighted_cycle_ignores_weights(self):
        g = gen.cycle(8, wmin=0.1, wmax=9.0, rng=1)
        assert hop_diameter(g) == 4

    def test_star(self):
        assert hop_diameter(gen.star(9)) == 2

    def test_le_spd_possible(self):
        # D(G) <= SPD(G) always (hop diameter counts any path).
        for seed in range(3):
            g = gen.random_graph(15, 25, rng=seed)
            assert hop_diameter(g) <= shortest_path_diameter(g)

    def test_disconnected_raises(self):
        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            hop_diameter(g)


class TestMinHop:
    def test_triangle(self):
        g = triangle_graph()
        hops = min_hop_of_shortest_path(g, 0)
        assert hops.tolist() == [0, 1, 2]  # 0-2 shortest path goes via 1

    def test_tie_prefers_fewer_hops(self):
        # Two shortest 0-3 paths: direct (1 hop, weight 2) and via 1-2 (weight 2).
        g = Graph.from_edge_list(
            4, [(0, 3, 2.0), (0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.5)]
        )
        hops = min_hop_of_shortest_path(g, 0)
        assert hops[3] == 1

    def test_unreachable_marked(self):
        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        hops = min_hop_of_shortest_path(g, 0)
        assert hops[2] == -1 and hops[3] == -1

    def test_source_zero(self):
        g = gen.grid(3, 3, rng=0)
        assert min_hop_of_shortest_path(g, 4)[4] == 0
