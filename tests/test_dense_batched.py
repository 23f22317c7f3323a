"""The batched multi-sample MBF engine: layout, kernels, drivers, parity.

The acceptance contract of the batched engine is *bit-identical* output:
for every sample, the batched drivers must reproduce the serial engine's
LE lists, iteration counts, and cost-ledger charges exactly — the batch is
an implementation detail, not a semantic change.  These tests pin that
contract at every layer (kernels, ``run_dense_batched``,
``HOracle.run_batch``) including k=1 and non-power-of-two k.  The LE
kernel's semi-naive delta must match full emission at every step, its
prune/merge must match the generic full-sort iteration, and its segmented
searches must match a per-segment ``np.searchsorted``.  Cutting a step
into target blocks must change no output and must bound its transient
memory.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import repro.mbf.dense as dense
from repro.api import EmbeddingConfig, HopsetConfig, Pipeline, PipelineConfig
from repro.graph import Graph
from repro.graph import generators as gen
from repro.hopsets import hub_hopset, rounded_hopset
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    FlatStates,
    LEFilter,
    MinFilter,
    _generic_iteration_batched,
    _last_at_most,
    _le_iteration_incremental,
    aggregate,
    aggregate_batched,
    dense_iteration,
    dense_iteration_batched,
    dense_iteration_batched_ex,
    propagate,
    propagate_batched,
    run_batched_fixpoint,
    run_dense,
    run_dense_batched,
    segmented_searchsorted,
)
from repro.oracle import HOracle
from repro.pram import CostLedger
from repro.simulated import SimulatedGraph


def _ranks(k, n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n) for _ in range(k)])


def _assert_batch_matches_serial(batched, iters, serial):
    for s, (states, it) in enumerate(serial):
        assert batched.sample_states(s).equals(states), f"sample {s} lists differ"
        assert int(iters[s]) == it, f"sample {s} iteration count differs"


class TestBatchedFlatStates:
    def test_from_sources_stacks_samples(self):
        b = BatchedFlatStates.from_sources(3, 4)
        one = FlatStates.from_sources(4)
        assert b.k == 3 and b.n == 4 and b.total == 12
        for s in range(3):
            assert b.sample_states(s).equals(one)

    def test_from_states_roundtrip(self):
        g = gen.cycle(9, rng=0)
        parts = [
            run_dense(g, LEFilter(r))[0] for r in _ranks(4, g.n, 1)
        ]
        b = BatchedFlatStates.from_states(parts)
        assert b.k == 4
        for s, st in enumerate(parts):
            assert b.sample_states(s).equals(st)

    def test_as_flat_view(self):
        b = BatchedFlatStates.from_sources(2, 3)
        flat = b.as_flat()
        assert flat.n == 6
        assert flat.total == b.total

    def test_take_subset_and_order(self):
        g = gen.cycle(7, rng=2)
        parts = [run_dense(g, LEFilter(r))[0] for r in _ranks(3, g.n, 3)]
        b = BatchedFlatStates.from_states(parts)
        sub = b.take([2, 0])
        assert sub.k == 2
        assert sub.sample_states(0).equals(parts[2])
        assert sub.sample_states(1).equals(parts[0])

    def test_sample_equal_is_per_sample(self):
        g = gen.cycle(7, rng=2)
        parts = [run_dense(g, LEFilter(r))[0] for r in _ranks(3, g.n, 3)]
        a = BatchedFlatStates.from_states(parts)
        c = BatchedFlatStates.from_states([parts[0], parts[0], parts[2]])
        eq = a.sample_equal(c)
        assert eq.tolist() == [True, parts[1].equals(parts[0]), True]

    def test_restrict_matches_per_sample_restrict(self):
        g = gen.grid(3, 3, rng=4)
        parts = [run_dense(g, LEFilter(r))[0] for r in _ranks(2, g.n, 5)]
        b = BatchedFlatStates.from_states(parts)
        mask = np.random.default_rng(6).random(g.n) < 0.5
        restricted = b.restrict(mask)
        for s, st in enumerate(parts):
            assert restricted.sample_states(s).equals(st.restrict(mask))

    def test_sample_totals(self):
        g = gen.cycle(6, rng=7)
        parts = [run_dense(g, LEFilter(r))[0] for r in _ranks(2, g.n, 8)]
        b = BatchedFlatStates.from_states(parts)
        assert b.sample_totals().tolist() == [p.total for p in parts]

    def test_mixed_node_counts_rejected(self):
        with pytest.raises(ValueError, match="same node count"):
            BatchedFlatStates.from_states(
                [FlatStates.from_sources(3), FlatStates.from_sources(4)]
            )

    def test_concat_inverts_sharding(self):
        """concat(split shards) == original, bit for bit — the sharded
        ensemble's re-assembly primitive."""
        g = gen.cycle(9, rng=0)
        parts = [run_dense(g, LEFilter(r))[0] for r in _ranks(5, g.n, 11)]
        b = BatchedFlatStates.from_states(parts)
        for bounds in ([(0, 2), (2, 5)], [(0, 1), (1, 3), (3, 5)], [(0, 5)]):
            shards = [b.take(list(range(lo, hi))) for lo, hi in bounds]
            merged = BatchedFlatStates.concat(shards)
            assert merged.k == b.k and merged.n == b.n
            assert merged.offsets.dtype == b.offsets.dtype
            assert np.array_equal(merged.offsets, b.offsets)
            assert np.array_equal(merged.ids, b.ids)
            assert np.array_equal(merged.dists, b.dists)

    def test_concat_stacks_distinct_batches(self):
        g = gen.cycle(7, rng=2)
        parts = [run_dense(g, LEFilter(r))[0] for r in _ranks(3, g.n, 12)]
        merged = BatchedFlatStates.concat(
            [BatchedFlatStates.from_states([p]) for p in parts]
        )
        assert merged.k == 3
        for s, st in enumerate(parts):
            assert merged.sample_states(s).equals(st)

    def test_concat_rejects_empty_and_mixed_n(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchedFlatStates.concat([])
        with pytest.raises(ValueError, match="same node count"):
            BatchedFlatStates.concat(
                [BatchedFlatStates.from_sources(1, 3),
                 BatchedFlatStates.from_sources(1, 4)]
            )


class TestBatchedLEFilter:
    def test_validates_shape(self):
        with pytest.raises(ValueError, match=r"\(k, n\)"):
            BatchedLEFilter(np.arange(5))

    def test_entry_ranks_per_sample(self):
        ranks = np.array([[0, 1, 2], [2, 1, 0]])
        f = BatchedLEFilter(ranks)
        tgt = np.array([0, 1, 3, 5])  # samples 0, 0, 1, 1
        ids = np.array([2, 0, 0, 2])
        assert f.entry_ranks(tgt, ids).tolist() == [2, 0, 2, 0]

    def test_take_reslices(self):
        ranks = _ranks(4, 6, 9)
        sub = BatchedLEFilter(ranks).take(np.array([3, 1]))
        assert np.array_equal(sub.ranks, ranks[[3, 1]])


class TestBatchedKernels:
    def test_propagate_batched_matches_serial(self):
        g = gen.cycle(8, rng=0)
        parts = [run_dense(g, LEFilter(r), h=1)[0] for r in _ranks(3, g.n, 1)]
        b = BatchedFlatStates.from_states(parts)
        src, dst, w = g.directed_edges()
        vtgt, ids, dists = propagate_batched(b, src, dst, w)
        for s, st in enumerate(parts):
            t_s, i_s, d_s = propagate(st, src, dst, w)
            in_sample = (vtgt // g.n) == s
            assert np.array_equal(vtgt[in_sample] - s * g.n, t_s)
            assert np.array_equal(ids[in_sample], i_s)
            assert np.array_equal(dists[in_sample], d_s)

    def test_aggregate_batched_le_matches_serial(self):
        g = gen.random_graph(12, 25, rng=2)
        ranks = _ranks(3, g.n, 3)
        parts = [run_dense(g, LEFilter(r), h=1)[0] for r in ranks]
        b = BatchedFlatStates.from_states(parts)
        src, dst, w = g.directed_edges()
        vtgt, ids, dists = propagate_batched(b, src, dst, w)
        out = aggregate_batched(3, g.n, vtgt, ids, dists, BatchedLEFilter(ranks))
        for s, (st, r) in enumerate(zip(parts, ranks)):
            t_s, i_s, d_s = propagate(st, src, dst, w)
            expect = aggregate(g.n, t_s, i_s, d_s, LEFilter(r))
            assert out.sample_states(s).equals(expect)

    def test_dense_iteration_batched_minfilter(self):
        """The generic (sample-oblivious) path: MinFilter over all samples
        in one pass equals per-sample serial iterations."""
        g = gen.grid(3, 4, rng=4)
        b = BatchedFlatStates.from_sources(3, g.n)
        out = dense_iteration_batched(g, b, MinFilter())
        expect = dense_iteration(g, FlatStates.from_sources(g.n), MinFilter())
        for s in range(3):
            assert out.sample_states(s).equals(expect)

    def test_filter_batch_shape_mismatch_rejected(self):
        g = gen.cycle(5, rng=5)
        b = BatchedFlatStates.from_sources(2, g.n)
        with pytest.raises(ValueError, match="does not match"):
            dense_iteration_batched(g, b, BatchedLEFilter(_ranks(3, g.n, 6)))


class TestRunDenseBatchedParity:
    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_le_lists_bit_identical(self, k):
        g = gen.random_graph(24, 60, rng=10)
        ranks = _ranks(k, g.n, 11)
        serial = [run_dense(g, LEFilter(r)) for r in ranks]
        batched, iters = run_dense_batched(g, BatchedLEFilter(ranks), k)
        _assert_batch_matches_serial(batched, iters, serial)

    def test_families(self, small_graphs):
        for g in small_graphs:
            ranks = _ranks(3, g.n, 12)
            serial = [run_dense(g, LEFilter(r)) for r in ranks]
            batched, iters = run_dense_batched(g, BatchedLEFilter(ranks), 3)
            _assert_batch_matches_serial(batched, iters, serial)

    def test_ledgers_bit_identical(self):
        """Per-sample batched ledgers charge exactly the serial model cost
        (work *and* depth), including each sample's confirming iteration
        and nothing after it."""
        g = gen.random_graph(20, 50, rng=13)
        ranks = _ranks(4, g.n, 14)
        serial_ledgers = [CostLedger() for _ in range(4)]
        batch_ledgers = [CostLedger() for _ in range(4)]
        for r, led in zip(ranks, serial_ledgers):
            run_dense(g, LEFilter(r), ledger=led)
        run_dense_batched(g, BatchedLEFilter(ranks), 4, ledgers=batch_ledgers)
        for s, (a, b) in enumerate(zip(serial_ledgers, batch_ledgers)):
            assert (a.work, a.depth) == (b.work, b.depth), f"sample {s}"

    def test_fixed_h_mode(self):
        g = gen.cycle(10, rng=15)
        ranks = _ranks(3, g.n, 16)
        batched, iters = run_dense_batched(g, BatchedLEFilter(ranks), 3, h=2)
        assert iters.tolist() == [2, 2, 2]
        for s, r in enumerate(ranks):
            expect, _ = run_dense(g, LEFilter(r), h=2)
            assert batched.sample_states(s).equals(expect)

    def test_minfilter_batch(self):
        g = gen.grid(4, 4, rng=17)
        expect, it = run_dense(g, MinFilter())
        batched, iters = run_dense_batched(g, MinFilter(), 3)
        assert iters.tolist() == [it, it, it]
        for s in range(3):
            assert batched.sample_states(s).equals(expect)

    def test_max_iterations_cap(self):
        g = gen.path_graph(8)
        with pytest.raises(RuntimeError, match="no fixpoint"):
            run_dense_batched(g, MinFilter(), 2, max_iterations=3)
        with pytest.raises(ValueError, match="max_iterations"):
            run_dense_batched(g, MinFilter(), 2, max_iterations=0)

    def test_ledger_count_validated(self):
        g = gen.cycle(6, rng=18)
        with pytest.raises(ValueError, match="one ledger per sample"):
            run_dense_batched(
                g, BatchedLEFilter(_ranks(3, g.n, 19)), 3, ledgers=[CostLedger()]
            )

    def test_spec_shape_validated(self):
        g = gen.cycle(6, rng=18)
        with pytest.raises(ValueError, match="does not match"):
            run_dense_batched(g, BatchedLEFilter(_ranks(2, g.n, 19)), 3)


def _integer_weights(g, seed):
    w = np.random.default_rng(seed).integers(1, 5, g.m).astype(np.float64)
    return Graph(g.n, g.edges, w, validate=False)


class TestOracleRunBatchParity:
    """Each sample of ``run_batch`` equals ``run_dense`` on the materialized
    ``H`` (Lemma 5.1).  Integer weights and the dyadic penalty base 1.5
    (eps = 0.5) make every path weight exact, so states compare bitwise."""

    def _oracle(self, g, seed, **kwargs):
        rng = np.random.default_rng(seed)
        g = _integer_weights(g, seed)
        hop = rounded_hopset(hub_hopset(g, 4, rng=rng), g, 0.5)
        oracle = HOracle(hop, rng=rng, **kwargs)
        return oracle, SimulatedGraph.build(hop, levels=oracle.levels).to_graph()

    def _assert_matches_h(self, oracle, GH, ranks, **kw):
        batched, iters = oracle.run_batch(BatchedLEFilter(ranks), len(ranks), **kw)
        _assert_batch_matches_serial(
            batched, iters, [run_dense(GH, LEFilter(r), **kw) for r in ranks]
        )

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_le_lists_bit_identical(self, k):
        g = gen.cycle(20, wmin=1, wmax=2, rng=20)
        oracle, GH = self._oracle(g, 21)
        self._assert_matches_h(oracle, GH, _ranks(k, g.n, 22))

    def test_ledgers_bit_identical(self):
        """A sample's ledger does not depend on the rest of the batch: it
        equals the k = 1 run (``HOracle.run``) of that sample alone."""
        g = gen.random_graph(18, 40, rng=23)
        oracle, _ = self._oracle(g, 24)
        ranks = _ranks(3, g.n, 25)
        single_ledgers = [CostLedger() for _ in range(3)]
        batch_ledgers = [CostLedger() for _ in range(3)]
        for r, led in zip(ranks, single_ledgers):
            oracle.run(LEFilter(r), ledger=led)
        oracle.run_batch(BatchedLEFilter(ranks), 3, ledgers=batch_ledgers)
        for s, (a, b) in enumerate(zip(single_ledgers, batch_ledgers)):
            assert (a.work, a.depth) == (b.work, b.depth), f"sample {s}"

    def test_without_inner_early_exit(self):
        """The literal (Λ+1)·d inner cost path computes H exactly too."""
        g = gen.cycle(14, rng=26)
        oracle, GH = self._oracle(g, 27, inner_early_exit=False)
        self._assert_matches_h(oracle, GH, _ranks(3, g.n, 28))

    def test_fixed_h_mode(self):
        g = gen.cycle(12, rng=29)
        oracle, GH = self._oracle(g, 30)
        self._assert_matches_h(oracle, GH, _ranks(2, g.n, 31), h=2)

    def test_minfilter_apsp_batch(self):
        """run_batch with a sample-oblivious filter: batched APSP on H."""
        g = gen.cycle(10, rng=32)
        oracle, GH = self._oracle(g, 33)
        expect, it = run_dense(GH, MinFilter())
        batched, iters = oracle.run_batch(MinFilter(), 2)
        assert iters.tolist() == [it, it]
        for s in range(2):
            assert batched.sample_states(s).equals(expect)


def _disconnected_graph():
    """Two weighted components plus an isolated vertex."""
    return Graph.from_edge_list(
        8,
        [(0, 1, 1.5), (1, 2, 0.5), (2, 0, 3.0), (3, 4, 2.0), (4, 5, 1.0), (5, 6, 0.25)],
    )


def _reference(g, rank, steps, scale=1.0):
    """LE lists after ``steps`` full-emission iterations of the generic
    one-global-sort path (``LEFilter`` never takes the incremental kernel),
    plus the step at which they stopped changing (``None`` if not yet)."""
    states = FlatStates.from_sources(g.n)
    settled = None
    for i in range(steps):
        nxt = dense_iteration(g, states, LEFilter(rank), weight_scale=scale)
        if settled is None and nxt.equals(states):
            settled = i
        states = nxt
    return states, settled


def _ledger_totals(ledgers):
    return [(led.work, led.depth) for led in ledgers]


def _delta_vs_full(g, states, spec, fresh, scale):
    """One step with the delta and one with full emission, on the same input.

    Asserts that states, ``changed`` flags, inserted masks and per-sample
    ledger charges agree, and returns the delta step.
    """
    full_ledgers = [CostLedger() for _ in range(states.k)]
    delta_ledgers = [CostLedger() for _ in range(states.k)]
    full = dense_iteration_batched_ex(
        g, states, spec, weight_scale=scale, ledgers=full_ledgers
    )
    delta = dense_iteration_batched_ex(
        g, states, spec, weight_scale=scale, ledgers=delta_ledgers, fresh=fresh
    )
    assert delta[0].equals(full[0])
    assert np.array_equal(delta[1], full[1])
    assert np.array_equal(delta[2], full[2])
    assert _ledger_totals(delta_ledgers) == _ledger_totals(full_ledgers)
    return delta


class TestSemiNaiveDelta:
    """Propagating only the entries the last step inserted is exact."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("scale", [1.0, 1.5625])
    def test_every_step_matches_full_emission(self, small_graphs, k, scale):
        for g in small_graphs + [_disconnected_graph()]:
            ranks = _ranks(k, g.n, 40)
            spec = BatchedLEFilter(ranks)
            states = BatchedFlatStates.from_sources(k, g.n)
            fresh = None
            for _ in range(g.n + 1):
                states, changed, fresh = _delta_vs_full(g, states, spec, fresh, scale)
                if not changed.any():
                    break
            else:
                pytest.fail("no fixpoint within n + 1 steps")
            for s, r in enumerate(ranks):
                expect, _ = _reference(g, r, g.n + 1, scale)
                assert states.sample_states(s).equals(expect)

    def test_inserted_marks_exactly_the_new_entries(self):
        g = gen.random_graph(16, 30, rng=41)
        k = 3
        spec = BatchedLEFilter(_ranks(k, g.n, 42))
        states = BatchedFlatStates.from_sources(k, g.n)
        fresh = None
        for _ in range(3):
            nxt, changed, fresh = dense_iteration_batched_ex(g, states, spec, fresh=fresh)
            seg = np.repeat(np.arange(k * g.n), states.counts())
            before = set(zip(seg.tolist(), states.ids.tolist(), states.dists.tolist()))
            seg = np.repeat(np.arange(k * g.n), nxt.counts())
            after = zip(seg.tolist(), nxt.ids.tolist(), nxt.dists.tolist())
            assert fresh.tolist() == [e not in before for e in after]
            per_sample = np.add.reduceat(fresh, nxt.offsets[:-1:g.n]) > 0
            assert changed.tolist() == per_sample.tolist()
            states = nxt

    def test_compaction_slices_the_mask(self):
        """Samples converge at different steps.  After each compaction
        the surviving samples must keep their own deltas: a stale or
        mis-sliced mask drops candidates that the full emission keeps, so
        the per-step comparison (or the final check) fails."""
        g = gen.path_graph(24, wmin=0.5, wmax=2.0, rng=43)
        k, scale = 6, 1.25
        ranks = _ranks(k, g.n, 44)
        batch_sizes = []
        progress_after_compaction = []

        def step(states, spec, ledgers, fresh):
            out = _delta_vs_full(g, states, spec, fresh, scale)
            if batch_sizes and states.k < batch_sizes[0]:
                progress_after_compaction.append(bool(out[1].any()))
            batch_sizes.append(states.k)
            return out

        x0 = BatchedFlatStates.from_sources(k, g.n)
        final, iters = run_batched_fixpoint(
            step, x0, BatchedLEFilter(ranks), None, g.n + 1
        )
        # Three or more distinct convergence steps: the batch shrank at
        # least twice, and the shrunken batches kept inserting entries.
        assert len(set(iters.tolist())) >= 3
        assert len(set(batch_sizes)) >= 3
        assert any(progress_after_compaction)
        for s, r in enumerate(ranks):
            expect, settled = _reference(g, r, g.n + 1, scale)
            assert final.sample_states(s).equals(expect)
            assert int(iters[s]) == settled

    @pytest.mark.parametrize("h", [1, 2, 3, 9])
    def test_fixed_h_threads_the_delta(self, h):
        g = _disconnected_graph()
        ranks = _ranks(3, g.n, 45)
        batched, _ = run_dense_batched(g, BatchedLEFilter(ranks), 3, h=h)
        for s, r in enumerate(ranks):
            assert batched.sample_states(s).equals(_reference(g, r, h)[0])

    def test_generic_path_reports_no_delta(self):
        g = gen.grid(3, 3, rng=46)
        b = BatchedFlatStates.from_sources(2, g.n)
        _, changed, inserted = dense_iteration_batched_ex(
            g, b, MinFilter(), fresh=np.ones(b.total, dtype=bool)
        )
        assert inserted is None and changed.all()

    def test_fresh_shape_validated(self):
        g = gen.cycle(5, rng=47)
        b = BatchedFlatStates.from_sources(2, g.n)
        spec = BatchedLEFilter(_ranks(2, g.n, 48))
        with pytest.raises(ValueError, match="entry mask"):
            dense_iteration_batched_ex(g, b, spec, fresh=np.ones(3, dtype=bool))


class TestIncrementalMatchesFullSort:
    """The LE kernel's prune, survivor sort and merge against the generic
    iteration, which sorts every candidate by ``(target, dist, rank)``."""

    @pytest.mark.parametrize("budget", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("scale", [1.0, 1.25**3])
    def test_every_step_matches_generic_iteration(self, monkeypatch, k, scale, budget):
        """Integer weights make equal-distance candidates of different
        ranks common, so the tie handling is exercised on every step.  The
        start states are partial lists (random vertices' lists emptied,
        vertex 0's always), so some segments, segment 0 among them, are
        empty when the steps begin.

        Small block budgets cut every step into many target blocks: at
        budget 1 each target with any load is a block of its own, so
        blocks without survivors sit next to blocks with survivors; at
        budget 7 and k = 3 some blocks straddle a sample boundary."""
        if budget is not None:
            monkeypatch.setattr(dense, "_LE_BLOCK_ENTRIES", budget)
        rng = np.random.default_rng(60)
        ties = 0
        for n, m in [(12, 24), (20, 45), (30, 80)]:
            base = gen.random_graph(n, m, rng=rng)
            g = Graph(n, base.edges, rng.integers(1, 4, size=base.m).astype(float))
            spec = BatchedLEFilter(_ranks(k, n, int(rng.integers(1 << 30))))
            states = BatchedFlatStates.from_sources(k, n)
            for _ in range(2):
                states = _generic_iteration_batched(g, states, spec, scale, None)
            keep = rng.random(n) < 0.6
            keep[0] = False
            states = states.restrict(keep)
            fresh = None
            for _ in range(n + 1):
                expect = _generic_iteration_batched(g, states, spec, scale, None)
                nxt, changed, fresh = _le_iteration_incremental(
                    g, states, spec, weight_scale=scale, fresh=fresh
                )
                assert nxt.equals(expect)
                assert np.array_equal(changed, ~states.sample_equal(expect))
                ties += _rank_ties(g, states, scale)
                states = nxt
                if not changed.any():
                    break
            else:
                pytest.fail("no fixpoint within n + 1 steps")
        assert ties > 0

    @pytest.mark.parametrize("method", ["direct", "oracle"])
    def test_ensemble_independent_of_block_budget(self, monkeypatch, method):
        """A whole ensemble, one target per block against the default
        budget: same lists, ranks, iterations, ledgers and forest."""
        g = gen.random_graph(40, 100, wmin=1.0, wmax=4.0, rng=61)
        cfg = PipelineConfig(
            hopset=HopsetConfig(eps=0.25, d0=4), embedding=EmbeddingConfig(method=method)
        )
        want = Pipeline(g, cfg).sample_ensemble(k=5, seed=62)
        monkeypatch.setattr(dense, "_LE_BLOCK_ENTRIES", 1)
        got = Pipeline(g, cfg).sample_ensemble(k=5, seed=62)
        assert got.le_lists.equals(want.le_lists)
        assert np.array_equal(got.ranks, want.ranks)
        assert got.iterations == want.iterations
        assert _ledger_totals(got.ledgers) == _ledger_totals(want.ledgers)
        assert _ledger_totals([got.ledger]) == _ledger_totals([want.ledger])
        for field in dataclasses.fields(want.forest):
            x, y = getattr(got.forest, field.name), getattr(want.forest, field.name)
            assert np.array_equal(x, y) and np.asarray(x).dtype == np.asarray(y).dtype, field.name

    def test_blocks_bound_the_step_transient(self, monkeypatch):
        """The step with the most candidates, in 1 << 10-entry blocks,
        peaks at no more than half its one-block peak (tracemalloc), with
        equal outputs."""
        g = gen.random_graph(1024, 3072, rng=63)
        k = 4
        spec = BatchedLEFilter(_ranks(k, g.n, 64))
        out_degree = np.bincount(g.directed_edges()[0], minlength=g.n)
        vertex = np.tile(np.arange(g.n), k)
        states, fresh = BatchedFlatStates.from_sources(k, g.n), None
        steps = []
        while True:
            emitting = np.repeat(vertex, states.counts())
            if fresh is not None:
                emitting = emitting[fresh]
            steps.append((int(out_degree[emitting].sum()), states, fresh))
            states, changed, fresh = _le_iteration_incremental(g, states, spec, fresh=fresh)
            if not changed.any():
                break
        _, states, fresh = max(steps, key=lambda step: step[0])

        def traced_step(budget):
            monkeypatch.setattr(dense, "_LE_BLOCK_ENTRIES", budget)
            tracemalloc.start()
            try:
                out = _le_iteration_incremental(g, states, spec, fresh=fresh)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, one_peak = traced_step(1 << 40)
        blocked, blocked_peak = traced_step(1 << 10)
        assert blocked[0].equals(one[0])
        assert np.array_equal(blocked[1], one[1])
        assert np.array_equal(blocked[2], one[2])
        assert blocked_peak <= one_peak / 2, (blocked_peak, one_peak)


def _rank_ties(g, states, scale):
    """Candidate pairs of one step with equal ``(target, dist)`` but
    different vertices: the ties only the rank can order."""
    src, dst, w = g.directed_edges()
    tgt, ids, dists = propagate_batched(states, src, dst, w * scale)
    order = np.lexsort((ids, dists, tgt))
    tgt, ids, dists = tgt[order], ids[order], dists[order]
    tied = (tgt[1:] == tgt[:-1]) & (dists[1:] == dists[:-1]) & (ids[1:] != ids[:-1])
    return int(np.count_nonzero(tied))


def _csr_cases():
    """``(offsets, values)`` with empty and length-1 segments, tied values
    and infinities; each segment sorted ascending."""
    inf = np.inf
    cases = [
        ([0], []),
        ([0, 0, 0], []),
        ([0, 1], [2.0]),
        ([0, 0, 3, 3, 4, 8, 8], [1.0, 1.0, 2.0, 5.0, -inf, 0.5, 0.5, inf]),
        ([0, 2, 3, 5], [inf, inf, 0.0, 1.0, 1.0]),
    ]
    rng = np.random.default_rng(50)
    lengths = rng.integers(0, 6, size=40)
    values = [np.sort(rng.integers(0, 4, size=c).astype(float)) for c in lengths]
    cases.append((np.concatenate([[0], np.cumsum(lengths)]), np.concatenate(values)))
    return [(np.asarray(o, dtype=np.int64), np.asarray(v, dtype=np.float64)) for o, v in cases]


#: Query values: below, on and between the stored values, and both infinities.
_QUERIES = np.array([-np.inf, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, np.inf])


def _steps(counts):
    """Bisection steps that settle every query of :func:`_last_at_most`."""
    return int(counts.max(initial=0)).bit_length()


def _segment(offsets, values, j):
    return values[offsets[j] : offsets[j + 1]]


class TestSegmentedSearch:
    """Both flat segmented searches equal a per-segment np.searchsorted."""

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_segmented_searchsorted(self, side):
        for offsets, values in _csr_cases():
            s = offsets.size - 1
            queries = np.tile(_QUERIES, (s, 1))
            got = segmented_searchsorted(offsets, values, queries, side=side)
            assert got.shape == (s, _QUERIES.size)
            for j in range(s):
                expect = np.searchsorted(_segment(offsets, values, j), queries[j], side=side)
                assert np.array_equal(got[j], expect), (offsets, j)

    def test_last_at_most_per_query(self):
        """The LE prune's search: an arbitrary ``(segment, q)`` query
        stream, bisected inside each segment.  No entry ``<= q`` gives
        ``offsets[segment] - 1``, which is ``-1`` for an empty segment 0."""
        rng = np.random.default_rng(51)
        for offsets, values in _csr_cases():
            s = offsets.size - 1
            seg = rng.integers(0, s, size=200) if s else np.zeros(0, dtype=np.int64)
            q = rng.choice(_QUERIES, size=seg.size)
            counts = np.diff(offsets)
            got = _last_at_most(offsets, counts, values, seg, q, _steps(counts))
            expect = [
                offsets[j] + np.searchsorted(_segment(offsets, values, j), x, side="right") - 1
                for j, x in zip(seg, q)
            ]
            assert got.tolist() == [int(e) for e in expect], offsets

    def test_last_at_most_empty_first_segment(self):
        """Segment 0 is empty, so "none" in segments 0 and 1 is index -1,
        which wraps to the last value (3.0): -1 must stay the answer whether
        that value is <= the query (5.0) or not (1.0)."""
        offsets = np.array([0, 0, 1, 3], dtype=np.int64)
        values = np.array([2.0, 1.0, 3.0])
        seg = np.array([0, 1, 1, 2, 2, 2])
        q = np.array([5.0, 1.0, 2.0, 0.5, 1.0, np.inf])
        counts = np.diff(offsets)
        got = _last_at_most(offsets, counts, values, seg, q, _steps(counts))
        assert got.tolist() == [-1, -1, 0, 0, 1, 2]

    def test_empty_csr(self):
        offsets = np.zeros(1, dtype=np.int64)
        empty = np.zeros(0)
        got = segmented_searchsorted(offsets, empty, np.zeros((0, 3)))
        assert got.shape == (0, 3)
        none = np.zeros(0, dtype=np.int64)
        assert _last_at_most(offsets, none, empty, none, empty, 0).size == 0

    def test_query_shape_validated(self):
        with pytest.raises(ValueError, match="num_segments"):
            segmented_searchsorted(np.array([0, 1]), np.array([1.0]), np.zeros((2, 1)))
