"""Tests for hop-set constructions and Observation 1.1."""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.shortest_paths import (
    dijkstra_distances,
    hop_limited_distances,
    shortest_path_diameter,
)
from repro.hopsets import (
    count_triangle_violations,
    exact_closure_hopset,
    hub_hopset,
    identity_hopset,
    rounded_hopset,
    verify_hopset,
)
from repro.hopsets.base import HopSetResult
from repro.hopsets.rounded import round_up_to_power
from repro.hopsets.skeleton import default_d0


class TestIdentityHopset:
    def test_d_is_spd(self):
        g = gen.cycle(10, rng=0)
        r = identity_hopset(g)
        assert r.d == 5 and r.eps == 0.0 and r.extra_edges == 0

    def test_explicit_d(self):
        g = gen.cycle(10, rng=0)
        r = identity_hopset(g, d=9)
        assert r.d == 9

    def test_verifies(self):
        g = gen.random_graph(15, 30, rng=1)
        r = identity_hopset(g)
        assert verify_hopset(r, g).ok

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            identity_hopset(gen.cycle(5), d=0)


class TestVerifyHopset:
    @pytest.mark.parametrize("sample_sources", [0, -1])
    def test_empty_sample_rejected(self, sample_sources):
        # An empty sample would report ok=True for any d.
        g = gen.cycle(10, rng=0)
        with pytest.raises(ValueError, match="sample_sources must be >= 1"):
            verify_hopset(identity_hopset(g, d=1), g, sample_sources=sample_sources)

    def test_one_sampled_source_is_checked(self):
        g = gen.cycle(10, rng=0)
        rep = verify_hopset(identity_hopset(g, d=1), g, sample_sources=1, rng=0)
        assert rep.sources_checked == 1 and not rep.ok


class TestExactClosure:
    def test_one_hop_exact(self, small_graphs):
        for g in small_graphs:
            r = exact_closure_hopset(g)
            D1 = hop_limited_distances(r.graph, 1)
            assert np.allclose(D1, dijkstra_distances(g))

    def test_report_ok(self):
        g = gen.grid(4, 4, rng=0)
        r = exact_closure_hopset(g)
        rep = verify_hopset(r, g)
        assert rep.ok and rep.max_ratio == pytest.approx(1.0)

    def test_spd_one(self):
        g = gen.cycle(9, rng=0)
        r = exact_closure_hopset(g)
        assert shortest_path_diameter(r.graph) == 1

    def test_size_guard(self):
        g = gen.cycle(10, rng=0)
        with pytest.raises(ValueError):
            exact_closure_hopset(g, max_n=5)

    def test_closure_does_not_shrink_distances(self):
        g = gen.random_graph(12, 20, rng=2)
        r = exact_closure_hopset(g)
        assert np.allclose(dijkstra_distances(r.graph), dijkstra_distances(g))


class TestHubHopset:
    @pytest.mark.parametrize("family,kw", [
        ("cycle", dict(n=40)),
        ("grid", dict(rows=6, cols=7)),
        ("random", dict(n=40, m=90)),
    ])
    def test_exact_within_d_hops(self, family, kw):
        if family == "cycle":
            g = gen.cycle(kw["n"], wmin=1, wmax=3, rng=0)
        elif family == "grid":
            g = gen.grid(kw["rows"], kw["cols"], wmin=1, wmax=3, rng=0)
        else:
            g = gen.random_graph(kw["n"], kw["m"], rng=0)
        r = hub_hopset(g, rng=1)
        rep = verify_hopset(r, g)
        assert rep.ok, rep
        assert rep.max_ratio == pytest.approx(1.0)

    def test_distances_preserved_exactly(self):
        # The augmented graph must have the same metric as G.
        g = gen.cycle(30, wmin=0.5, wmax=2.0, rng=3)
        r = hub_hopset(g, rng=4)
        assert np.allclose(dijkstra_distances(r.graph), dijkstra_distances(g))

    def test_reduces_spd_on_cycle(self):
        g = gen.cycle(64, rng=5)
        r = hub_hopset(g, d0=6, rng=6)
        assert r.d == 13
        spd_after = shortest_path_diameter(r.graph)
        assert spd_after <= r.d
        assert spd_after < shortest_path_diameter(g)

    def test_forced_hubs(self):
        g = gen.path_graph(20)
        r = hub_hopset(g, d0=3, force_hubs=np.arange(0, 20, 3))
        rep = verify_hopset(r, g)
        assert rep.ok
        assert r.meta["hubs"] == 7

    def test_hub_count_scales_with_probability(self):
        g = gen.random_graph(100, 200, rng=7)
        r_small = hub_hopset(g, d0=40, c=1.0, rng=8)
        r_big = hub_hopset(g, d0=5, c=2.0, rng=8)
        assert r_big.meta["hubs"] > r_small.meta["hubs"]

    def test_default_d0_monotone(self):
        assert default_d0(16) <= default_d0(256) <= default_d0(4096)

    def test_invalid_args(self):
        g = gen.cycle(10)
        with pytest.raises(ValueError):
            hub_hopset(g, d0=0)
        with pytest.raises(ValueError):
            hub_hopset(g, c=0.5)
        with pytest.raises(ValueError):
            hub_hopset(g, force_hubs=np.array([99]))

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.5])
    def test_sampling_constant_must_be_finite(self, c):
        """NaN passes ``c < 1`` and makes every vertex a hub; inf does too."""
        g = gen.random_graph(30, 60, rng=1)
        with pytest.raises(ValueError, match="c must be finite and >= 1"):
            hub_hopset(g, c=c, rng=2)

    def test_disconnected_rejected(self):
        from repro.graph.core import Graph

        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            hub_hopset(g)


class TestRoundUpToPower:
    def test_rounds_up(self):
        out = round_up_to_power(np.array([1.0, 1.5, 2.0]), 2.0)
        assert out.tolist() == [1.0, 2.0, 2.0]

    def test_result_dominates_input(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.01, 100, size=500)
        out = round_up_to_power(v, 1.1)
        assert np.all(out >= v)
        assert np.all(out <= v * 1.1 * (1 + 1e-9))

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            round_up_to_power(np.array([1.0]), 1.0)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            round_up_to_power(np.array([0.0]), 2.0)

    @pytest.mark.parametrize("base", [np.nan, np.inf])
    def test_base_must_be_finite(self, base):
        with pytest.raises(ValueError, match="base must be finite"):
            round_up_to_power(np.array([1.5]), base)


class TestRoundedHopset:
    def test_guarantee_holds(self):
        g = gen.random_graph(40, 90, rng=9)
        base = hub_hopset(g, rng=10)
        r = rounded_hopset(base, g, eps=0.25)
        rep = verify_hopset(r, g)
        assert rep.ok
        assert rep.max_ratio <= 1.25 + 1e-9

    def test_eps_composes(self):
        g = gen.cycle(20, rng=0)
        base = hub_hopset(g, rng=1)
        r = rounded_hopset(base, g, eps=0.5)
        assert r.eps == pytest.approx(0.5)

    def test_original_edges_untouched(self):
        g = gen.grid(4, 5, wmin=1.3, wmax=2.7, rng=11)
        base = hub_hopset(g, rng=12)
        r = rounded_hopset(base, g, eps=0.3)
        # every original edge keeps its weight
        A_orig = g.adjacency()
        A_new = r.graph.adjacency()
        for (u, v), w in zip(g.edges, g.weights):
            # unless a *cheaper* shortcut replaced it (dedup keeps min)
            assert A_new[u, v] <= A_orig[u, v] + 1e-12

    def test_rejects_eps_zero(self):
        g = gen.cycle(10)
        base = hub_hopset(g, rng=0)
        with pytest.raises(ValueError):
            rounded_hopset(base, g, eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_eps(self, eps):
        """Regression: NaN and inf returned a hop set with 143 non-finite
        weights, a graph the Graph constructor would refuse."""
        g = gen.random_graph(30, 60, rng=1)
        with pytest.raises(ValueError, match="eps must be finite"):
            rounded_hopset(hub_hopset(g, rng=2), g, eps)


class TestHopSetResult:
    @pytest.mark.parametrize("eps", [np.nan, np.inf, -0.5])
    def test_eps_finite_and_non_negative(self, eps):
        g = gen.cycle(6, rng=0)
        with pytest.raises(ValueError, match="eps must be non-negative and finite"):
            HopSetResult(graph=g, d=3, eps=eps, extra_edges=0)


class TestObservation11:
    """Observation 1.1: metric d-hop distances ⇒ exact distances.

    Contrapositive, demonstrated: a rounded (inexact) hop set must exhibit
    triangle-inequality violations in dist^d; an exact hop set must not.
    """

    def test_exact_hopset_no_violations(self):
        g = gen.cycle(24, wmin=1, wmax=2, rng=13)
        r = hub_hopset(g, d0=4, rng=14)
        Dd = hop_limited_distances(r.graph, r.d)
        assert count_triangle_violations(Dd) == 0

    def test_rounded_hopset_violates_triangle_inequality(self):
        g = gen.cycle(24, wmin=1, wmax=2, rng=13)
        base = hub_hopset(g, d0=4, rng=14)
        r = rounded_hopset(base, g, eps=0.5)
        Dd = hop_limited_distances(r.graph, r.d)
        viol, example = count_triangle_violations(Dd, return_example=True)
        assert viol > 0
        u, v, w = example
        assert Dd[u, w] > Dd[u, v] + Dd[v, w]

    def test_count_on_true_metric_is_zero(self):
        g = gen.random_graph(15, 40, rng=15)
        D = dijkstra_distances(g)
        assert count_triangle_violations(D) == 0

    def test_matrix_shape_validated(self):
        with pytest.raises(ValueError):
            count_triangle_violations(np.zeros((2, 3)))
