"""Tests for the H-oracle (Section 5, Theorem 5.2).

The oracle must agree *exactly* with running the same MBF-like algorithm on
the materialized graph H — that is the content of Lemma 5.1 + Eq. (5.9).
Its LE level chains, warm-started from the previous H-iteration, must agree
exactly with cold ones, ledgers included.
"""

import numpy as np
import pytest

import repro.oracle.oracle as oracle_module
from repro.api import Pipeline, PipelineConfig
from repro.graph import generators as gen
from repro.hopsets import hub_hopset, identity_hopset, rounded_hopset
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    MinFilter,
    TopKFilter,
    aggregate_batched,
    dense_iteration_batched_ex,
    prepare_batch_run,
    run_batched_fixpoint,
)
from repro.oracle import ChainHistory, HOracle
from repro.pram import CostLedger
from repro.simulated import SimulatedGraph
from tests.conftest import dense_k1, le_filter


from repro.graph.core import Graph
from repro.simulated.levels import sample_levels


def integerize(g: Graph, lo: int = 1, hi: int = 4, seed: int = 0) -> Graph:
    """Replace weights by random small integers.

    Integer weights (and the dyadic penalty base 1.5 below) make every path
    weight exactly representable, so the oracle and the materialized H
    compute bit-identical values and list-valued results compare exactly.
    """
    w = np.random.default_rng(seed).integers(lo, hi + 1, g.m).astype(np.float64)
    return Graph(g.n, g.edges, w, validate=False)


def oracle_k1(oracle, spec, **kwargs):
    """One query on ``H``: the ``k = 1`` batch, ``(states, iterations)``."""
    states, iters = oracle.run_batch(spec, 1, **kwargs)
    return states, int(iters[0])


def make_instance(n=20, eps=0.5, seed=0, family="cycle"):
    if family == "cycle":
        g = integerize(gen.cycle(n, rng=seed), seed=seed)
    else:
        g = integerize(gen.random_graph(n, 2 * n, rng=seed), seed=seed)
    base = hub_hopset(g, d0=4, rng=seed + 1)
    hop = rounded_hopset(base, g, eps=eps) if eps > 0 else base
    levels, _ = sample_levels(n, seed + 2)
    H = SimulatedGraph.build(hop, levels=levels)
    oracle = HOracle(hop, levels=levels)
    return g, hop, H, oracle


class TestOracleMatchesMaterializedH:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_min_filter_h_iterations(self, h):
        g, hop, H, oracle = make_instance()
        GH = H.to_graph()
        want, _ = dense_k1(GH, MinFilter(), h=h)
        got, _ = oracle_k1(oracle, MinFilter(), h=h)
        assert got.to_matrix() == pytest.approx(want.to_matrix())

    def test_min_filter_fixpoint_distances(self):
        g, hop, H, oracle = make_instance()
        got, iters = oracle_k1(oracle, MinFilter())
        assert got.to_matrix() == pytest.approx(H.distances())
        assert iters <= H.spd()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_le_filter_matches(self, seed):
        g, hop, H, oracle = make_instance(seed=seed)
        rank = np.random.default_rng(seed + 10).permutation(g.n)
        GH = H.to_graph()
        want, _ = dense_k1(GH, le_filter(rank))
        got, _ = oracle_k1(oracle, le_filter(rank))
        assert want.to_dicts() == pytest.approx(got.to_dicts())

    def test_le_filter_random_graph(self):
        g, hop, H, oracle = make_instance(n=24, family="random", seed=5)
        rank = np.random.default_rng(3).permutation(g.n)
        GH = H.to_graph()
        want, _ = dense_k1(GH, le_filter(rank))
        got, _ = oracle_k1(oracle, le_filter(rank))
        assert want.to_dicts() == pytest.approx(got.to_dicts())

    def test_topk_filter_matches(self):
        g, hop, H, oracle = make_instance(seed=7)
        S = list(range(0, g.n, 3))
        mask = np.zeros(g.n, dtype=bool)
        mask[S] = True
        spec = TopKFilter(2, 10.0, mask)
        x0 = BatchedFlatStates.from_sources(1, g.n, S)
        GH = H.to_graph()
        want, _ = dense_k1(GH, spec, x0=x0, h=3)
        got, _ = oracle_k1(oracle, spec, x0=BatchedFlatStates.from_sources(1, g.n, S), h=3)
        assert want.to_dicts() == pytest.approx(got.to_dicts())

    def test_early_exit_is_lossless(self):
        g, hop, H, _ = make_instance(seed=9)
        rank = np.random.default_rng(4).permutation(g.n)
        o_fast = HOracle(hop, levels=np.zeros(g.n, dtype=np.int64), inner_early_exit=True)
        o_slow = HOracle(hop, levels=np.zeros(g.n, dtype=np.int64), inner_early_exit=False)
        a, _ = oracle_k1(o_fast, le_filter(rank))
        b, _ = oracle_k1(o_slow, le_filter(rank))
        assert a.to_dicts() == pytest.approx(b.to_dicts())
        assert sum(o_fast.inner_iterations_used) < sum(o_slow.inner_iterations_used)


class TestPinnedCosts:
    """Model costs, iteration counts and inner-iteration statistics of one
    query on one fixed instance, recorded when the oracle still had its own
    single-sample loop; the ``k = 1`` batch of ``run_batch`` must reproduce
    them exactly.  ``(Λ+1)·d = 45`` inner iterations per H-iteration
    without early exit."""

    PINNED = {
        ("le", True): (2730864, 624, 4, [45, 37, 34, 34, 33]),
        ("le", False): (3401924, 639, 4, [45] * 5),
        ("min", True): (22076377, 876, 5, [45, 42, 39, 38, 36, 33]),
        ("min", False): (26516377, 889, 5, [45] * 6),
        ("topk", True): (10063, 70, 1, [8, 7]),
        ("topk", False): (50863, 198, 1, [45, 45]),
    }

    @pytest.mark.parametrize("early", [True, False])
    @pytest.mark.parametrize("filt", ["le", "min", "topk"])
    def test_run_matches_pinned(self, filt, early):
        g, hop, _, ref = make_instance()
        n = g.n
        oracle = HOracle(hop, levels=ref.levels, inner_early_exit=early)
        mask = np.zeros(n, dtype=bool)
        mask[::3] = True
        spec, x0 = {
            "le": (le_filter(np.random.default_rng(n + 1).permutation(n)), None),
            "min": (MinFilter(), None),
            "topk": (TopKFilter(2, 10.0, mask), BatchedFlatStates.from_sources(1, n, range(0, n, 3))),
        }[filt]
        ledger = CostLedger()
        _, iters = oracle_k1(oracle, spec, x0=x0, ledgers=[ledger])
        work, depth, want_iters, inner = self.PINNED[(filt, early)]
        assert (ledger.work, ledger.depth, iters) == (work, depth, want_iters)
        assert oracle.inner_iterations_used == inner


class TestOracleSemantics:
    def test_exact_hopset_fixpoint_in_one_iteration(self):
        # eps = 0 ⇒ H is the exact metric ⇒ SPD(H) = 1.
        g = gen.cycle(18, rng=0)
        hop = hub_hopset(g, d0=3, rng=1)
        oracle = HOracle(hop, rng=2)
        states, iters = oracle_k1(oracle, MinFilter())
        assert iters == 1
        from repro.graph.shortest_paths import dijkstra_distances

        assert states.to_matrix() == pytest.approx(dijkstra_distances(g))

    def test_fixpoint_fast_even_for_high_spd_graph(self):
        # The headline: G has SPD ~ n/2, the oracle fixpoints in O(log² n).
        n = 40
        g = gen.cycle(n, rng=1)
        base = hub_hopset(g, d0=5, rng=2)
        hop = rounded_hopset(base, g, eps=0.2)
        oracle = HOracle(hop, rng=3)
        _, iters = oracle_k1(oracle, MinFilter())
        assert iters <= int(np.log2(n) ** 2)

    def test_sources_subset(self):
        g, hop, H, oracle = make_instance(seed=11)
        got, _ = oracle_k1(oracle, MinFilter(), sources=[0, 5])
        GH = H.to_graph()
        want, _ = dense_k1(GH, MinFilter(), sources=[0, 5])
        assert got.to_matrix() == pytest.approx(want.to_matrix())

    def test_ledger_charged(self):
        g, hop, H, oracle = make_instance(seed=13)
        ledger = CostLedger()
        oracle_k1(oracle, MinFilter(), h=2, ledgers=[ledger])
        assert ledger.work > 0 and ledger.depth > 0

    def test_levels_validated(self):
        g = gen.cycle(8, rng=0)
        hop = identity_hopset(g)
        with pytest.raises(ValueError):
            HOracle(hop, levels=np.array([1, 2]))

    def test_penalty_base_validated(self):
        g = gen.cycle(8, rng=0)
        hop = identity_hopset(g)
        with pytest.raises(ValueError):
            HOracle(hop, penalty_base=0.9)

    @pytest.mark.parametrize("base", [np.nan, np.inf, -np.inf])
    def test_penalty_base_must_be_finite(self, base):
        """Regression: a NaN or infinite base was accepted and failed
        later, at the H-iteration cap or inside the LE kernel."""
        g = gen.random_graph(30, 60, rng=1)
        hop = rounded_hopset(hub_hopset(g, rng=2), g, 0.25)
        with pytest.raises(ValueError, match="penalty_base must be finite"):
            HOracle(hop, penalty_base=base)

    def test_max_iterations_guard(self):
        g = gen.cycle(8, rng=0)
        hop = identity_hopset(g)
        oracle = HOracle(hop, rng=1)
        # Same cap semantics as repro.mbf.engine.run_to_fixpoint: a
        # non-positive cap is a caller error, a positive cap that is too
        # small to reach/detect the fixpoint is a RuntimeError.
        with pytest.raises(ValueError):
            oracle_k1(oracle, MinFilter(), max_iterations=0)
        with pytest.raises(RuntimeError):
            oracle_k1(oracle, MinFilter(), max_iterations=1)


# -- warm-started level chains ---------------------------------------------------


def cold_run(oracle, spec, k, *, h=None, x0=None, ledgers=None):
    """``run_batch`` as a loop of cold ``h_iteration_batched`` calls: no
    history, every H-iteration restarts its chains (the reference)."""
    n = oracle.n
    states, ledger_list, cap = prepare_batch_run(
        n, spec, k, sources=None, h=h, x0=x0, max_iterations=None, ledgers=ledgers
    )
    states = aggregate_batched(
        k, n, np.repeat(np.arange(k * n), states.counts()), states.ids, states.dists,
        spec, ledgers=ledger_list,
    )
    if h is not None:
        for _ in range(h):
            states = oracle.h_iteration_batched(states, spec, ledgers=ledger_list)
        return states, np.full(k, h)
    return run_batched_fixpoint(
        lambda s, sp, led, _fresh: (oracle.h_iteration_batched(s, sp, ledgers=led), None, None),
        states, spec, ledger_list, cap, error="no fixpoint",
    )


FAMILIES = {
    "cycle": lambda: gen.cycle(24, wmin=1.0, wmax=3.0, rng=1),
    "grid": lambda: gen.grid(4, 6, wmin=1.0, wmax=3.0, rng=2),
    "random": lambda: gen.random_graph(24, 48, rng=3),
    "cycle_with_hub": lambda: gen.cycle_with_hub(23, rng=4),
    "star": lambda: gen.star(16, wmin=1.0, wmax=3.0, rng=5),
    "barbell": lambda: gen.barbell(8, 4, rng=6),
    "lower_bound_instance": lambda: gen.lower_bound_instance(24, 40, rng=7)[0],
}


def warm_and_cold(family, eps, early, seed=0):
    """Two oracles on one hub hop set (``d0 = 2``, so chains hit the cap
    ``d = 5``) with the same levels: one for warm runs, one for cold."""
    g = FAMILIES[family]()
    base = hub_hopset(g, d0=2, rng=seed + 1)
    hop = rounded_hopset(base, g, eps=eps) if eps > 0 else base
    levels, _ = sample_levels(g.n, seed + 2)
    return tuple(HOracle(hop, levels=levels, inner_early_exit=early) for _ in range(2))


def assert_same_run(warm, cold, spec, k, **kwargs):
    """Lists, iterations, inner-iteration counts and per-sample ledgers agree."""
    lw, lc = [CostLedger() for _ in range(k)], [CostLedger() for _ in range(k)]
    got, got_iters = warm.run_batch(spec, k, ledgers=lw, **kwargs)
    want, want_iters = cold_run(cold, spec, k, ledgers=lc, **kwargs)
    assert got.equals(want)
    assert np.array_equal(got_iters, want_iters)
    assert warm.inner_iterations_used == cold.inner_iterations_used
    assert [led.snapshot() for led in lw] == [led.snapshot() for led in lc]
    return got_iters


def ranks_of(k, n, seed):
    return np.stack([np.random.default_rng(seed + s).permutation(n) for s in range(k)])


class TestWarmChains:
    """``run_batch`` warm-starts its LE level chains from the previous
    H-iteration; the result must be the cold loop's, bit for bit."""

    @pytest.mark.parametrize("early", [True, False])
    @pytest.mark.parametrize("eps", [0.25, 0.0])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_fixpoint_matches_cold(self, family, eps, early):
        warm, cold = warm_and_cold(family, eps, early)
        spec = BatchedLEFilter(ranks_of(3, warm.n, 11))
        assert_same_run(warm, cold, spec, 3)

    @pytest.mark.parametrize("early", [True, False])
    @pytest.mark.parametrize("family", ["cycle", "random", "barbell"])
    def test_fixed_h_matches_cold(self, family, early):
        warm, cold = warm_and_cold(family, 0.25, early)
        spec = BatchedLEFilter(ranks_of(2, warm.n, 21))
        assert_same_run(warm, cold, spec, 2, h=4)

    @pytest.mark.parametrize("family", ["grid", "lower_bound_instance"])
    def test_given_x0_matches_cold(self, family):
        warm, cold = warm_and_cold(family, 0.25, True)
        n = warm.n
        x0 = BatchedFlatStates.concat(
            [BatchedFlatStates.from_sources(1, n, range(s, n, 3)) for s in range(3)]
        )
        spec = BatchedLEFilter(ranks_of(3, n, 31))
        assert_same_run(warm, cold, spec, 3, x0=x0)
        assert_same_run(warm, cold, spec, 3, x0=x0, h=3)

    @staticmethod
    def larger():
        g = gen.random_graph(64, 160, rng=8)
        hop = rounded_hopset(hub_hopset(g, d0=3, rng=9), g, eps=0.25)
        levels, _ = sample_levels(g.n, 10)
        return tuple(HOracle(hop, levels=levels) for _ in range(2))

    def test_samples_converging_apart_slice_the_history(self):
        # Samples leave the run at different H-iterations, so the history
        # is sliced between calls.
        warm, cold = self.larger()
        spec = BatchedLEFilter(ranks_of(3, warm.n, 41))
        iters = assert_same_run(warm, cold, spec, 3)
        assert len(set(iters.tolist())) > 1

    def test_warm_run_calls_the_kernel_less(self, monkeypatch):
        warm, cold = self.larger()
        spec = BatchedLEFilter(ranks_of(2, warm.n, 51))
        calls = []
        kernel = oracle_module.dense_iteration_batched_ex

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(oracle_module, "dense_iteration_batched_ex", counted)
        warm.run_batch(spec, 2)
        warm_calls = len(calls)
        calls.clear()
        cold_run(cold, spec, 2)
        assert warm_calls < len(calls)

    def test_history_replays_every_chain_step(self):
        # Each level's record gives back every step of the chain the call
        # ran (recomputed cold here), its stop steps and its per-step full
        # emission, also after chains that caught up with the record before.
        warm, _ = self.larger()
        k, n, d = 3, warm.n, warm.d
        spec = BatchedLEFilter(ranks_of(k, n, 71))
        weight = np.bincount(warm.graph.directed_edges()[0], minlength=n) + 1
        history = ChainHistory()
        x = BatchedFlatStates.from_sources(k, n)
        for _ in range(4):
            nxt = warm.h_iteration_batched(x, spec, history=history)
            for lam, union in enumerate(history.levels):
                y = x.restrict(warm.masks[lam])
                scale = warm.penalty_base ** (warm.Lambda - lam)
                chain, fresh = [y], None
                for _ in range(d):
                    y, _, fresh = dense_iteration_batched_ex(
                        warm.graph, y, spec, weight_scale=scale, fresh=fresh
                    )
                    chain.append(y)
                stop = np.full(k, d)
                for j in range(d):
                    assert union.at(j)[0].equals(chain[j])
                    assert np.array_equal(
                        union.emitted[j], chain[j].counts().reshape(k, n) @ weight
                    )
                    same = chain[j + 1].sample_equal(chain[j]) & (stop == d)
                    stop[same] = j
                assert union.final().equals(chain[d])
                assert np.array_equal(union.stop, stop)
            x = nxt

    def test_history_is_checked_against_the_batch(self):
        warm, _ = warm_and_cold("cycle", 0.25, True)
        n = warm.n
        history = ChainHistory()
        spec = BatchedLEFilter(ranks_of(2, n, 61))
        x = BatchedFlatStates.concat([BatchedFlatStates.from_sources(1, n)] * 2)
        warm.h_iteration_batched(x, spec, history=history)
        assert len(history.levels) == warm.Lambda + 1
        with pytest.raises(ValueError, match="history"):
            warm.h_iteration_batched(x.take([0]), spec.take([0]), history=history)

    def test_no_history_leaks_between_runs(self):
        # Two seeds on one cached pipeline equal two fresh pipelines (each
        # builds its oracle first, from the pipeline seed alone).
        g = gen.random_graph(40, 100, rng=12)
        cfg = PipelineConfig.from_dict({"hopset": {"d0": 3}, "seed": 5})
        cached = Pipeline(g, cfg)
        cached.oracle()
        for seed in (1, 2):
            got = cached.sample_ensemble(2, seed=seed)
            fresh = Pipeline(g, cfg)
            fresh.oracle()
            want = fresh.sample_ensemble(2, seed=seed)
            assert got.le_lists.equals(want.le_lists)
            assert got.iterations == want.iterations
            assert [led.snapshot() for led in got.ledgers] == [
                led.snapshot() for led in want.ledgers
            ]
