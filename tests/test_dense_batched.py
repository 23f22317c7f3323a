"""The batched multi-sample MBF engine: layout, kernels, drivers, independence.

The acceptance contract of the batched engine is that the batch is an
implementation detail, not a semantic change: sample ``s`` of a ``k``-batch
reproduces the ``k = 1`` run of sample ``s`` exactly — LE lists, iteration
counts and cost-ledger charges.  These tests pin that contract at every
layer (kernels, ``run_dense_batched``, ``HOracle.run_batch``) including
non-power-of-two k.  The LE kernel's semi-naive delta must match full
emission at every step, its prune/merge must match the generic full-sort
iteration, and its segmented searches must match a per-segment
``np.searchsorted``.  The compiled LE step must match the NumPy reference
kernel (``tests/le_reference.py``) bit for bit, raise a typed error
without a compiler, and reject an offset or id outside its batch.
Cutting a reference step into target blocks must change no output and
must bound its transient memory.
"""

import dataclasses
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc

import numpy as np
import pytest

import repro.mbf.dense as dense
from repro.api import EmbeddingConfig, HopsetConfig, Pipeline, PipelineConfig
from repro.graph import Graph
from repro.graph import generators as gen
from repro.hopsets import hub_hopset, rounded_hopset
from repro.mbf import native
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    MinFilter,
    TopKFilter,
    _generic_iteration_batched,
    aggregate_batched,
    dense_iteration_batched_ex,
    propagate_batched,
    run_batched_fixpoint,
    run_dense_batched,
    segmented_searchsorted,
    take_active_samples,
)
from repro.oracle import HOracle
from repro.pram import CostLedger
from repro.simulated import SimulatedGraph
from tests import le_reference
from tests.conftest import dense_k1, le_filter
from tests.le_reference import _last_at_most, _le_iteration_incremental

_COMPILED_STEP = dense._le_iteration_native


def _use_kernel(name, monkeypatch):
    """Run the LE step on one kernel: ``"native"``, the compiled step, or
    ``"numpy"``, the reference kernel, checked against the compiled step
    on every call (:func:`tests.le_reference.checked_step`)."""
    if name == "numpy":
        checked = le_reference.checked_step(_COMPILED_STEP)
        monkeypatch.setattr(dense, "_le_iteration_native", checked)
    else:
        assert dense._le_iteration_native is _COMPILED_STEP


def _ranks(k, n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n) for _ in range(k)])


def _source_batch(n, k, seed):
    """``k`` samples with different random source sets, one batch."""
    rng = np.random.default_rng(seed)
    return BatchedFlatStates.concat(
        [
            BatchedFlatStates.from_sources(1, n, rng.choice(n, size=1 + s % 3, replace=False))
            for s in range(k)
        ]
    )


def _assert_batch_independent(run, spec, k, *, x0=None, **kwargs):
    """Sample ``s`` of the ``k``-batch ``run(spec, k, ...)`` equals the
    ``k = 1`` run of sample ``s`` alone: lists, iteration count and
    per-sample ledger work/depth."""
    ledgers = [CostLedger() for _ in range(k)]
    batched, iters = run(spec, k, x0=x0, ledgers=ledgers, **kwargs)
    assert batched.k == k and iters.shape == (k,)
    for s in range(k):
        one_ledger = CostLedger()
        one, one_iters = run(
            spec.take([s]),
            1,
            x0=None if x0 is None else x0.take([s]),
            ledgers=[one_ledger],
            **kwargs,
        )
        assert batched.sample_states(s).equals(one), f"sample {s} lists differ"
        assert int(iters[s]) == int(one_iters[0]), f"sample {s} iterations differ"
        assert (ledgers[s].work, ledgers[s].depth) == (
            one_ledger.work,
            one_ledger.depth,
        ), f"sample {s} ledger differs"


class TestBatchedFlatStates:
    def test_from_sources_stacks_samples(self):
        b = BatchedFlatStates.from_sources(3, 4)
        one = BatchedFlatStates.from_sources(1, 4)
        assert b.k == 3 and b.n == 4 and b.total == 12
        for s in range(3):
            assert b.sample_states(s).equals(one)

    def test_from_states_roundtrip(self):
        """Stacking ``k = 1`` batches with ``concat`` and cutting them out
        again with ``sample_states`` round-trips every sample."""
        g = gen.cycle(9, rng=0)
        parts = [dense_k1(g, le_filter(r))[0] for r in _ranks(4, g.n, 1)]
        b = BatchedFlatStates.concat(parts)
        assert b.k == 4
        for s, st in enumerate(parts):
            assert st.k == 1
            assert b.sample_states(s).equals(st)

    def test_as_flat_view(self):
        """The segment accessors see the batch as ``k * n`` flat nodes."""
        b = BatchedFlatStates.from_sources(2, 3, [1])
        assert b.to_dicts() == [{}, {1: 0.0}, {}, {}, {1: 0.0}, {}]
        M = b.to_matrix()
        assert M.shape == (6, 3)
        assert M[1, 1] == M[4, 1] == 0.0 and np.isinf(M).sum() == 16
        ids, dists = b.node(4)
        assert ids.tolist() == [1] and dists.tolist() == [0.0]
        assert b.counts().tolist() == [0, 1, 0, 0, 1, 0]

    def test_take_subset_and_order(self):
        g = gen.cycle(7, rng=2)
        parts = [dense_k1(g, le_filter(r))[0] for r in _ranks(3, g.n, 3)]
        b = BatchedFlatStates.concat(parts)
        sub = b.take([2, 0])
        assert sub.k == 2
        assert sub.sample_states(0).equals(parts[2])
        assert sub.sample_states(1).equals(parts[0])

    def test_take_active_samples_lockstep(self):
        """Compaction shrinks states, filter, ledgers and the per-entry
        ``fresh`` mask with one sample index, in the order given — an
        empty sample included."""
        g = gen.cycle(7, rng=2)
        ranks = _ranks(4, g.n, 13)
        parts = [dense_k1(g, le_filter(r))[0] for r in ranks[:3]]
        empty = BatchedFlatStates.from_sources(1, g.n, [])
        b = BatchedFlatStates.concat([parts[0], empty, parts[1], parts[2]])
        fresh = np.random.default_rng(14).random(b.total) < 0.5
        ledgers = [CostLedger() for _ in range(4)]
        keep = np.array([3, 1, 0])
        states, spec, kept_ledgers, kept_fresh = take_active_samples(
            keep, b, BatchedLEFilter(ranks), ledgers, fresh
        )
        assert states.k == 3 and states.sample_totals().tolist() == [
            parts[2].total, 0, parts[0].total
        ]
        old, new = b.offsets[:: g.n], states.offsets[:: g.n]
        for i, s in enumerate(keep):
            assert states.sample_states(i).equals(b.sample_states(s))
            assert np.array_equal(
                kept_fresh[new[i] : new[i + 1]], fresh[old[s] : old[s + 1]]
            )
        assert np.array_equal(spec.ranks, ranks[keep])
        assert all(a is ledgers[s] for a, s in zip(kept_ledgers, keep))
        assert kept_fresh.shape == (states.total,)
        _, _, no_ledgers, no_fresh = take_active_samples(
            keep, b, BatchedLEFilter(ranks), None
        )
        assert no_ledgers is None and no_fresh is None

    def test_sample_equal_is_per_sample(self):
        g = gen.cycle(7, rng=2)
        parts = [dense_k1(g, le_filter(r))[0] for r in _ranks(3, g.n, 3)]
        a = BatchedFlatStates.concat(parts)
        c = BatchedFlatStates.concat([parts[0], parts[0], parts[2]])
        eq = a.sample_equal(c)
        assert eq.tolist() == [True, parts[1].equals(parts[0]), True]

    def test_restrict_matches_per_sample_restrict(self):
        g = gen.grid(3, 3, rng=4)
        parts = [dense_k1(g, le_filter(r))[0] for r in _ranks(2, g.n, 5)]
        b = BatchedFlatStates.concat(parts)
        mask = np.random.default_rng(6).random(g.n) < 0.5
        restricted = b.restrict(mask)
        for s, st in enumerate(parts):
            assert restricted.sample_states(s).equals(st.restrict(mask))

    def test_sample_totals(self):
        g = gen.cycle(6, rng=7)
        parts = [dense_k1(g, le_filter(r))[0] for r in _ranks(2, g.n, 8)]
        b = BatchedFlatStates.concat(parts)
        assert b.sample_totals().tolist() == [p.total for p in parts]

    def test_mixed_node_counts_rejected(self):
        with pytest.raises(ValueError, match="same node count"):
            BatchedFlatStates.concat(
                [BatchedFlatStates.from_sources(1, 3), BatchedFlatStates.from_sources(1, 4)]
            )

    def test_concat_inverts_sharding(self):
        """concat(split shards) == original, bit for bit — the sharded
        ensemble's re-assembly primitive."""
        g = gen.cycle(9, rng=0)
        b = run_dense_batched(g, BatchedLEFilter(_ranks(5, g.n, 11)), 5)[0]
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
        parts = [dense_k1(g, le_filter(r))[0] for r in _ranks(3, g.n, 12)]
        merged = BatchedFlatStates.concat([BatchedFlatStates.concat([p]) for p in parts])
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
    """Each kernel's sample ``s`` equals the kernel run on sample ``s``
    alone (the ``k = 1`` batch)."""

    def test_propagate_batched_matches_serial(self):
        g = gen.cycle(8, rng=0)
        b = run_dense_batched(g, BatchedLEFilter(_ranks(3, g.n, 1)), 3, h=1)[0]
        src, dst, w = g.directed_edges()
        vtgt, ids, dists = propagate_batched(b, src, dst, w)
        for s in range(3):
            t_s, i_s, d_s = propagate_batched(b.sample_states(s), src, dst, w)
            in_sample = (vtgt // g.n) == s
            assert np.array_equal(vtgt[in_sample] - s * g.n, t_s)
            assert np.array_equal(ids[in_sample], i_s)
            assert np.array_equal(dists[in_sample], d_s)

    def test_aggregate_batched_le_matches_serial(self):
        g = gen.random_graph(12, 25, rng=2)
        ranks = _ranks(3, g.n, 3)
        b = run_dense_batched(g, BatchedLEFilter(ranks), 3, h=1)[0]
        src, dst, w = g.directed_edges()
        vtgt, ids, dists = propagate_batched(b, src, dst, w)
        out = aggregate_batched(3, g.n, vtgt, ids, dists, BatchedLEFilter(ranks))
        for s in range(3):
            t_s, i_s, d_s = propagate_batched(b.sample_states(s), src, dst, w)
            expect = aggregate_batched(1, g.n, t_s, i_s, d_s, BatchedLEFilter(ranks[s : s + 1]))
            assert out.sample_states(s).equals(expect)

    def test_dense_iteration_batched_minfilter(self):
        """The generic (sample-oblivious) path: MinFilter over all samples
        in one pass equals the ``k = 1`` iteration."""
        g = gen.grid(3, 4, rng=4)
        b = BatchedFlatStates.from_sources(3, g.n)
        out, changed, _ = dense_iteration_batched_ex(g, b, MinFilter())
        expect, _, _ = dense_iteration_batched_ex(
            g, BatchedFlatStates.from_sources(1, g.n), MinFilter()
        )
        assert changed.tolist() == [True] * 3
        for s in range(3):
            assert out.sample_states(s).equals(expect)

    def test_filter_batch_shape_mismatch_rejected(self):
        g = gen.cycle(5, rng=5)
        b = BatchedFlatStates.from_sources(2, g.n)
        with pytest.raises(ValueError, match="does not match"):
            dense_iteration_batched_ex(g, b, BatchedLEFilter(_ranks(3, g.n, 6)))


def _dense_run(g):
    return lambda spec, k, **kw: run_dense_batched(g, spec, k, **kw)


class TestRunDenseBatchedParity:
    """``run_dense_batched``: sample ``s`` of a batch equals the ``k = 1``
    run of sample ``s`` — lists, iterations and ledgers."""

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_le_lists_bit_identical(self, k):
        g = gen.random_graph(24, 60, rng=10)
        _assert_batch_independent(_dense_run(g), BatchedLEFilter(_ranks(k, g.n, 11)), k)

    def test_families(self, small_graphs):
        for g in small_graphs:
            _assert_batch_independent(_dense_run(g), BatchedLEFilter(_ranks(3, g.n, 12)), 3)

    def test_ledgers_bit_identical(self):
        """Per-sample ledgers charge exactly the sample's own model cost
        (work *and* depth), including each sample's confirming iteration
        and nothing after it."""
        g = gen.random_graph(20, 50, rng=13)
        ranks = _ranks(4, g.n, 14)
        single_ledgers = [CostLedger() for _ in range(4)]
        batch_ledgers = [CostLedger() for _ in range(4)]
        for r, led in zip(ranks, single_ledgers):
            dense_k1(g, le_filter(r), ledgers=[led])
        run_dense_batched(g, BatchedLEFilter(ranks), 4, ledgers=batch_ledgers)
        for s, (a, b) in enumerate(zip(single_ledgers, batch_ledgers)):
            assert (a.work, a.depth) == (b.work, b.depth), f"sample {s}"

    def test_fixed_h_mode(self):
        g = gen.cycle(10, rng=15)
        ranks = _ranks(3, g.n, 16)
        batched, iters = run_dense_batched(g, BatchedLEFilter(ranks), 3, h=2)
        assert iters.tolist() == [2, 2, 2]
        _assert_batch_independent(_dense_run(g), BatchedLEFilter(ranks), 3, h=2)

    def test_minfilter_batch(self):
        g = gen.grid(4, 4, rng=17)
        batched, iters = run_dense_batched(g, MinFilter(), 3)
        one, it = run_dense_batched(g, MinFilter(), 1)
        assert iters.tolist() == [int(it[0])] * 3
        for s in range(3):
            assert batched.sample_states(s).equals(one)
        _assert_batch_independent(_dense_run(g), MinFilter(), 3, x0=_source_batch(g.n, 3, 17))

    def test_topkfilter_batch(self):
        g = gen.random_graph(18, 40, rng=18)
        mask = np.arange(g.n) % 2 == 0
        spec = TopKFilter(2, 6.0, mask)
        _assert_batch_independent(_dense_run(g), spec, 4, x0=_source_batch(g.n, 4, 18))
        _assert_batch_independent(_dense_run(g), spec, 2, x0=_source_batch(g.n, 2, 19), h=2)

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


def _oracle(g, seed, **kwargs):
    """An oracle on integer weights with the dyadic penalty base 1.5
    (eps = 0.5), so every path weight is exact and states compare
    bitwise; returns it with the materialized ``H``."""
    rng = np.random.default_rng(seed)
    g = _integer_weights(g, seed)
    hop = rounded_hopset(hub_hopset(g, 4, rng=rng), g, 0.5)
    oracle = HOracle(hop, rng=rng, **kwargs)
    return oracle, SimulatedGraph.build(hop, levels=oracle.levels).to_graph()


class TestOracleRunBatchParity:
    """``HOracle.run_batch``: sample ``s`` of a batch equals the ``k = 1``
    run of sample ``s``, and equals ``run_dense_batched`` on the
    materialized ``H`` (Lemma 5.1)."""

    def _assert_matches_h(self, oracle, GH, ranks, **kw):
        k = len(ranks)
        spec = BatchedLEFilter(ranks)
        _assert_batch_independent(oracle.run_batch, spec, k, **kw)
        batched, iters = oracle.run_batch(spec, k, **kw)
        on_h, h_iters = run_dense_batched(GH, spec, k, **kw)
        assert batched.equals(on_h)
        assert np.array_equal(iters, h_iters)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_le_lists_bit_identical(self, k):
        g = gen.cycle(20, wmin=1, wmax=2, rng=20)
        oracle, GH = _oracle(g, 21)
        self._assert_matches_h(oracle, GH, _ranks(k, g.n, 22))

    def test_ledgers_bit_identical(self):
        """A sample's ledger does not depend on the rest of the batch: it
        equals the k = 1 run of that sample alone."""
        g = gen.random_graph(18, 40, rng=23)
        oracle, _ = _oracle(g, 24)
        ranks = _ranks(3, g.n, 25)
        single_ledgers = [CostLedger() for _ in range(3)]
        batch_ledgers = [CostLedger() for _ in range(3)]
        for r, led in zip(ranks, single_ledgers):
            oracle.run_batch(BatchedLEFilter(r[None, :]), 1, ledgers=[led])
        oracle.run_batch(BatchedLEFilter(ranks), 3, ledgers=batch_ledgers)
        for s, (a, b) in enumerate(zip(single_ledgers, batch_ledgers)):
            assert (a.work, a.depth) == (b.work, b.depth), f"sample {s}"

    def test_without_inner_early_exit(self):
        """The literal (Λ+1)·d inner cost path computes H exactly too."""
        g = gen.cycle(14, rng=26)
        oracle, GH = _oracle(g, 27, inner_early_exit=False)
        self._assert_matches_h(oracle, GH, _ranks(3, g.n, 28))

    def test_fixed_h_mode(self):
        g = gen.cycle(12, rng=29)
        oracle, GH = _oracle(g, 30)
        self._assert_matches_h(oracle, GH, _ranks(2, g.n, 31), h=2)

    def test_minfilter_apsp_batch(self):
        """run_batch with a sample-oblivious filter: batched APSP on H."""
        g = gen.cycle(10, rng=32)
        oracle, GH = _oracle(g, 33)
        expect, it = run_dense_batched(GH, MinFilter(), 1)
        batched, iters = oracle.run_batch(MinFilter(), 2)
        assert iters.tolist() == [int(it[0])] * 2
        for s in range(2):
            assert batched.sample_states(s).equals(expect)
        _assert_batch_independent(oracle.run_batch, MinFilter(), 3, x0=_source_batch(g.n, 3, 33))

    @pytest.mark.parametrize("early", [True, False])
    def test_topkfilter_batch(self, early):
        g = gen.random_graph(16, 36, rng=34)
        oracle, _ = _oracle(g, 35, inner_early_exit=early)
        spec = TopKFilter(2, 8.0, np.arange(g.n) % 3 != 0)
        _assert_batch_independent(oracle.run_batch, spec, 4, x0=_source_batch(g.n, 4, 36))


def _driver(name, g):
    """``run(spec, k, **kw)`` of the named batched driver on ``g``."""
    if name == "dense":
        return _dense_run(g)
    return _oracle(g, 37)[0].run_batch


@pytest.mark.parametrize("driver", ["dense", "oracle"])
class TestDriverArgumentChecks:
    """Both drivers validate their arguments the same way, before any
    work (one shared helper)."""

    def test_negative_h_rejected(self, driver):
        g = gen.cycle(8, rng=38)
        run = _driver(driver, g)
        with pytest.raises(ValueError, match="h must be non-negative"):
            run(BatchedLEFilter(_ranks(1, g.n, 39)), 1, h=-2)

    def test_filter_batch_shape_rejected(self, driver):
        g = gen.cycle(8, rng=38)
        run = _driver(driver, g)
        with pytest.raises(ValueError, match="does not match"):
            run(BatchedLEFilter(_ranks(1, g.n, 39)), 2)

    def test_ledger_count_rejected(self, driver):
        g = gen.cycle(8, rng=38)
        run = _driver(driver, g)
        with pytest.raises(ValueError, match="one ledger per sample"):
            run(MinFilter(), 2, ledgers=[CostLedger()])

    def test_x0_shape_rejected(self, driver):
        g = gen.cycle(8, rng=38)
        run = _driver(driver, g)
        with pytest.raises(ValueError, match="x0 batch shape"):
            run(MinFilter(), 2, x0=BatchedFlatStates.from_sources(1, g.n))


def _disconnected_graph():
    """Two weighted components plus an isolated vertex."""
    return Graph.from_edge_list(
        8,
        [(0, 1, 1.5), (1, 2, 0.5), (2, 0, 3.0), (3, 4, 2.0), (4, 5, 1.0), (5, 6, 0.25)],
    )


def _reference(g, rank, steps, scale=1.0):
    """LE lists after ``steps`` full-emission iterations of the generic
    one-global-sort path (``BatchedLEFilter``'s own ``sort_keys`` and
    ``keep_mask``, never the incremental kernel), plus the step at which
    they stopped changing (``None`` if not yet)."""
    spec = BatchedLEFilter(np.asarray(rank)[None, :])
    states = BatchedFlatStates.from_sources(1, g.n)
    settled = None
    for i in range(steps):
        nxt = _generic_iteration_batched(g, states, spec, scale, None)
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
    """Propagating only the entries the last step inserted is exact.

    On the compiled LE step here; in the subclass, on the NumPy reference,
    checked against the compiled step at every step."""

    @pytest.fixture(autouse=True)
    def kernel(self, monkeypatch):
        _use_kernel("native", monkeypatch)

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


class TestSemiNaiveDeltaNumPy(TestSemiNaiveDelta):
    """The same semi-naive checks on the reference, step for step against
    the compiled step."""

    @pytest.fixture(autouse=True)
    def kernel(self, monkeypatch):
        _use_kernel("numpy", monkeypatch)


class TestBaseMerge:
    """``base=``: the fresh entries of ``states``, sent along every edge and
    to themselves, merged into ``base``'s lists — the oracle's warm chain
    step ``r(base ⊕ F ⊕ A·F)``.  On the compiled LE step here; in the
    subclass, on the NumPy reference, checked against the compiled step."""

    @pytest.fixture(autouse=True)
    def kernel(self, monkeypatch):
        _use_kernel("native", monkeypatch)

    @staticmethod
    def _entries(states):
        own = np.repeat(np.arange(states.k * states.n), states.counts())
        return set(zip(own.tolist(), states.ids.tolist(), states.dists.tolist()))

    @pytest.mark.parametrize("budget", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_full_sort_of_base_and_fresh(self, monkeypatch, k, budget):
        # Integer weights make equal-distance candidates common.  ``old``
        # and ``new`` play the previous and the current H-iteration's
        # step-j lists, ``base`` the previous one's step j + 1: it
        # dominates ``old``, so it holds or dominates every entry of
        # ``new`` outside ``fresh``, as the kernel requires.
        if budget is not None:
            monkeypatch.setattr(le_reference, "_LE_BLOCK_ENTRIES", budget)
        rng = np.random.default_rng(70)
        for n, m in [(12, 24), (30, 80)]:
            shape = gen.random_graph(n, m, rng=rng)
            g = Graph(n, shape.edges, rng.integers(1, 4, size=shape.m).astype(float))
            spec = BatchedLEFilter(_ranks(k, n, int(rng.integers(1 << 30))))
            old, _ = run_dense_batched(g, spec, k, h=1)
            base = _generic_iteration_batched(g, old, spec, 1.0, None)
            far, _ = run_dense_batched(g, spec, k, h=3)
            both = BatchedFlatStates.concat([old, far])  # samples 0..k-1, then again
            own = np.repeat(np.arange(2 * k * n) % (k * n), both.counts())
            new = aggregate_batched(k, n, own, both.ids, both.dists, spec)
            fresh_set = self._entries(new) - self._entries(old)
            own_new = np.repeat(np.arange(k * n), new.counts())
            fresh = np.array(
                [e in fresh_set for e in zip(own_new.tolist(), new.ids.tolist(),
                                             new.dists.tolist())]
            )
            assert fresh.any() and not fresh.all()
            ledgers = [CostLedger() for _ in range(k)]
            got, changed, inserted = dense_iteration_batched_ex(
                g, new, spec, ledgers=ledgers, fresh=fresh, base=base
            )
            counts = np.bincount(own_new[fresh], minlength=k * n)
            part = BatchedFlatStates(
                k, n, np.concatenate([[0], np.cumsum(counts)]), new.ids[fresh], new.dists[fresh]
            )
            tgt, ids, dists = propagate_batched(part, *g.directed_edges())  # A·F and F
            own_base = np.repeat(np.arange(k * n), base.counts())
            want = aggregate_batched(
                k, n, np.concatenate([own_base, tgt]), np.concatenate([base.ids, ids]),
                np.concatenate([base.dists, dists]), spec,
            )
            assert got.equals(want)
            own_got = np.repeat(np.arange(k * n), got.counts())
            added = self._entries(got) - self._entries(base)
            assert inserted.tolist() == [
                e in added for e in zip(own_got.tolist(), got.ids.tolist(), got.dists.tolist())
            ]
            assert np.array_equal(changed, np.bincount(own_got[inserted] // n, minlength=k) > 0)
            # Charged from ``states``, as a step without ``base`` charges it.
            plain = [CostLedger() for _ in range(k)]
            dense_iteration_batched_ex(g, new, spec, ledgers=plain)
            assert _ledger_totals(ledgers) == _ledger_totals(plain)

    def test_base_validated(self):
        g = gen.cycle(6, rng=71)
        b = BatchedFlatStates.from_sources(2, g.n)
        spec = BatchedLEFilter(_ranks(2, g.n, 72))
        with pytest.raises(ValueError, match="base batch shape"):
            dense_iteration_batched_ex(g, b, spec, base=BatchedFlatStates.from_sources(1, g.n))
        with pytest.raises(ValueError, match="LE filter only"):
            dense_iteration_batched_ex(g, b, MinFilter(), base=b)


class TestBaseMergeNumPy(TestBaseMerge):
    """The same ``base=`` checks on the reference, against the compiled step."""

    @pytest.fixture(autouse=True)
    def kernel(self, monkeypatch):
        _use_kernel("numpy", monkeypatch)


class TestIncrementalMatchesFullSort:
    """The LE kernel's prune, survivor sort and merge against the generic
    iteration, which sorts every candidate by ``(target, dist, rank)``.
    The block budget is the reference kernel's; the compiled step has none."""

    @pytest.fixture
    def kernel(self, monkeypatch):
        _use_kernel("native", monkeypatch)

    @pytest.mark.parametrize("budget", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("scale", [1.0, 1.25**3])
    def test_every_step_matches_generic_iteration(self, kernel, monkeypatch, k, scale, budget):
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
            monkeypatch.setattr(le_reference, "_LE_BLOCK_ENTRIES", budget)
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
                nxt, changed, fresh = dense_iteration_batched_ex(
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
        """A whole ensemble on the reference kernel, one target per block
        against the default budget: same lists, ranks, iterations, ledgers
        and forest."""
        _use_kernel("numpy", monkeypatch)
        g = gen.random_graph(40, 100, wmin=1.0, wmax=4.0, rng=61)
        cfg = PipelineConfig(
            hopset=HopsetConfig(eps=0.25, d0=4), embedding=EmbeddingConfig(method=method)
        )
        want = Pipeline(g, cfg).sample_ensemble(k=5, seed=62)
        monkeypatch.setattr(le_reference, "_LE_BLOCK_ENTRIES", 1)
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
            monkeypatch.setattr(le_reference, "_LE_BLOCK_ENTRIES", budget)
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


class TestIncrementalMatchesFullSortNumPy:
    """The same steps against the generic iteration on the reference,
    checked against the compiled step."""

    @pytest.fixture
    def kernel(self, monkeypatch):
        _use_kernel("numpy", monkeypatch)

    test_every_step_matches_generic_iteration = (
        TestIncrementalMatchesFullSort.test_every_step_matches_generic_iteration
    )


def _integer_family(name, rng):
    """A graph of the named family with weights drawn from 1..3, so equal
    distances of different vertices (rank ties) are common."""
    shape = {
        "cycle": lambda: gen.cycle(24),
        "grid": lambda: gen.grid(5, 5),
        "path": lambda: gen.path_graph(20),
        "cycle_with_hub": lambda: gen.cycle_with_hub(24, rng=rng),
        "random": lambda: gen.random_graph(30, 70, rng=rng),
    }[name]()
    return Graph(shape.n, shape.edges, rng.integers(1, 4, size=shape.m).astype(float))


def _ensemble_on(kernel, monkeypatch, g, method):
    """A ``k = 5`` ensemble with the LE step on ``kernel``, and the
    oracle's inner iteration counts (empty for the direct method)."""
    with monkeypatch.context() as patch:
        _use_kernel(kernel, patch)
        cfg = PipelineConfig(
            hopset=HopsetConfig(eps=0.25, d0=4), embedding=EmbeddingConfig(method=method)
        )
        pipe = Pipeline(g, cfg)
        result = pipe.sample_ensemble(k=5, seed=80)
        inner = list(pipe.oracle().inner_iterations_used) if method == "oracle" else []
    return result, inner


class TestNativeKernel:
    """The compiled LE step (``_lestep.c``): the same bits as the NumPy
    reference, the typed error without a compiler, and its build cache."""

    @pytest.mark.parametrize("family", ["cycle", "grid", "path", "cycle_with_hub", "random"])
    @pytest.mark.parametrize("method", ["direct", "oracle"])
    def test_ensembles_match_numpy(self, monkeypatch, family, method):
        g = _integer_family(family, np.random.default_rng(81))
        want, want_inner = _ensemble_on("numpy", monkeypatch, g, method)
        got, got_inner = _ensemble_on("native", monkeypatch, g, method)
        assert got.le_lists.equals(want.le_lists)
        assert np.array_equal(got.ranks, want.ranks)
        assert got.iterations == want.iterations
        assert got_inner == want_inner
        assert _ledger_totals(got.ledgers) == _ledger_totals(want.ledgers)
        assert _ledger_totals([got.ledger]) == _ledger_totals([want.ledger])
        for field in dataclasses.fields(want.forest):
            x, y = getattr(got.forest, field.name), getattr(want.forest, field.name)
            assert np.array_equal(x, y) and np.asarray(x).dtype == np.asarray(y).dtype, field.name

    @pytest.mark.parametrize("kernel", ["native", "numpy"])
    def test_step_without_survivors_returns_its_input(self, monkeypatch, kernel):
        """``HOracle._le_chain`` tests ``nxt is cur``: a step that inserts
        nothing hands back the lists it merged into, not a copy."""
        _use_kernel(kernel, monkeypatch)
        g = gen.random_graph(20, 45, rng=82)
        spec = BatchedLEFilter(_ranks(3, g.n, 83))
        states, _ = run_dense_batched(g, spec, 3)
        nxt, changed, inserted = dense_iteration_batched_ex(g, states, spec)
        assert nxt is states and not changed.any() and not inserted.any()
        base = states.take(np.arange(3))
        fresh = np.zeros(states.total, dtype=bool)
        fresh[::4] = True
        nxt, changed, inserted = dense_iteration_batched_ex(g, states, spec, fresh=fresh, base=base)
        assert nxt is base and not changed.any() and inserted.shape == (base.total,)

    def test_typed_error_without_a_compiler(self, monkeypatch, tmp_path):
        """While the build fails, every LE step raises LEStepBuildError with
        the compiler's message, before charging anything, and nothing is
        kept: once the compiler works, the next step builds and runs."""
        g = gen.random_graph(24, 60, rng=84)
        spec = BatchedLEFilter(_ranks(2, g.n, 85))
        states = BatchedFlatStates.from_sources(2, g.n)
        want = dense_iteration_batched_ex(g, states, spec)

        def no_compiler(out):
            raise OSError("cc failed (1): cc: fatal error: no input files")

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_library", None)
        with monkeypatch.context() as patch:
            patch.setattr(native, "_compile", no_compiler)
            ledgers = [CostLedger(), CostLedger()]
            for _ in range(2):
                with pytest.raises(native.LEStepBuildError, match="fatal error: no input") as err:
                    dense_iteration_batched_ex(g, states, spec, ledgers=ledgers)
                assert isinstance(err.value, RuntimeError)
                assert isinstance(err.value.__cause__, OSError)
                assert native._library is None
            assert _ledger_totals(ledgers) == [(0, 0), (0, 0)]
        got = dense_iteration_batched_ex(g, states, spec)
        le_reference.assert_same_step(got, want, states)
        assert native._library is not None

    def test_compiler_on_path_means_native(self):
        """With ``cc`` on PATH the library builds and loads: a compile
        error fails here, not in some later step."""
        assert isinstance(native.library(), native.ctypes.CDLL)

    def test_wrapper_checks_arrays(self):
        lib = native.library()
        offsets = np.array([0, 2], dtype=np.int64)
        with pytest.raises(TypeError, match="contiguous int64"):
            native.fresh_lists(lib, offsets.astype(np.int32), np.ones(2, dtype=bool))
        with pytest.raises(TypeError, match="contiguous bool"):
            native.fresh_lists(lib, offsets, np.ones(4, dtype=bool)[::2])

    @pytest.mark.parametrize(
        "code, error", [(-1, MemoryError), (-2, ValueError), (-3, ValueError), (0, None)]
    )
    def test_error_codes(self, code, error):
        """Each of ``_lestep.c``'s error codes raises; a target index passes."""
        if error is None:
            assert native._check(code) == code
        else:
            with pytest.raises(error):
                native._check(code)

    def test_unwritable_cache_builds_in_a_temporary_directory(self, monkeypatch, tmp_path):
        """A cache path that cannot be created still yields the compiled
        step, built in a directory of the process that is removed again."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        monkeypatch.setattr(native, "_library", None)
        lib = native.library()
        assert lib is native._library and not lib._name.startswith(str(blocker))
        assert os.listdir(temp_root) == []

    def test_concurrent_builds_leave_one_library(self, tmp_path):
        """Two processes started together on an empty cache both load the
        step, and the cache ends up holding the one library file."""
        script = "from repro.mbf import native; print(native.library()._name)"
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120)[0].split() for p in procs]
        assert [p.returncode for p in procs] == [0, 0]
        files = sorted(os.listdir(tmp_path / "repro-frt-mbf"))
        assert len(files) == 1 and files[0].startswith("lestep-") and files[0].endswith(".so")
        assert outs == [[str(tmp_path / "repro-frt-mbf" / files[0])]] * 2

    def test_compiles_only_on_the_first_step(self, tmp_path):
        """Importing, building a pipeline, its hop set and its oracle start
        no compiler; the first LE step builds the library once."""
        script = textwrap.dedent(
            """
            import os, sys
            import repro
            from repro.api import Pipeline, PipelineConfig
            from repro.graph import generators as gen
            from repro.mbf import native
            pipe = Pipeline(gen.random_graph(30, 70, rng=1), PipelineConfig())
            pipe.hopset()
            pipe.oracle()
            cache = os.path.join(os.environ["XDG_CACHE_HOME"], "repro-frt-mbf")
            assert native._library is None and not os.path.exists(cache)
            pipe.sample_ensemble(2, seed=1)
            assert native._library is not None and len(os.listdir(cache)) == 1
            """
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_no_compiler_on_path(self, tmp_path):
        """A process with no ``cc`` on PATH and an empty cache imports
        ``repro`` and builds a pipeline, its hop set and its oracle without
        starting a compiler; then sampling raises LEStepBuildError, also
        from the workers of a process pool."""
        script = textwrap.dedent(
            """
            import os
            from repro.api import ExecutionConfig, Pipeline, PipelineConfig
            from repro.graph import generators as gen
            from repro.mbf import native
            pipe = Pipeline(gen.random_graph(30, 70, rng=1), PipelineConfig())
            pipe.hopset()
            pipe.oracle()
            assert not os.path.exists(os.path.join(os.environ["XDG_CACHE_HOME"], "repro-frt-mbf"))
            for workers in (1, 2):
                try:
                    pipe.sample_ensemble(2, seed=1, execution=ExecutionConfig(workers=workers))
                except Exception as err:
                    print(workers, type(err).__qualname__, str(err).replace(chr(10), " "))
            """
        )
        empty = tmp_path / "bin"
        empty.mkdir()
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"), PATH=str(empty))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["1", "LEStepBuildError"],
            ["2", "LEStepBuildError"],
        ], proc.stdout
        assert all("no C compiler (cc) on PATH" in line for line in lines)


def _malformed(kind, g, k):
    """``k`` samples' start lists on ``g`` with one defect: ``kind`` is an
    entry id (``n``, ``10**8`` or ``-1``) put in a middle entry, or
    ``"falling"`` for offsets that fall between two segments."""
    b = BatchedFlatStates.from_sources(k, g.n)
    ids, offsets = b.ids.copy(), b.offsets.copy()
    if kind == "falling":
        offsets[2] = offsets[3] + 1
    else:
        ids[ids.size // 2] = {"n": g.n, "huge": 10**8, "negative": -1}[kind]
    return BatchedFlatStates(k, g.n, offsets, ids, b.dists.copy())


_DEFECTS = ["n", "huge", "negative", "falling"]


class TestStepChecksIndices:
    """The compiled step checks every offset range and entry id it follows:
    a bad one raises ValueError instead of reading out of bounds."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kind", _DEFECTS)
    @pytest.mark.parametrize("call", ["plain", "fresh", "base"])
    def test_step_rejects(self, call, kind, k):
        g = gen.cycle(6, rng=86)
        spec = BatchedLEFilter(_ranks(k, g.n, 87))
        bad = _malformed(kind, g, k)
        good = BatchedFlatStates.from_sources(k, g.n)
        with pytest.raises(ValueError, match="outside"):
            if call == "plain":
                dense_iteration_batched_ex(g, bad, spec)
            elif call == "fresh":
                dense_iteration_batched_ex(g, bad, spec, fresh=np.ones(bad.total, dtype=bool))
            else:
                fresh = np.ones(good.total, dtype=bool)
                dense_iteration_batched_ex(g, good, spec, fresh=fresh, base=bad)

    @pytest.mark.parametrize("kind", _DEFECTS)
    @pytest.mark.parametrize("driver", ["dense", "oracle"])
    def test_driver_rejects_x0(self, driver, kind):
        g = gen.cycle(8, rng=38)
        run = _driver(driver, g)
        with pytest.raises(ValueError, match="x0"):
            run(BatchedLEFilter(_ranks(1, g.n, 39)), 1, x0=_malformed(kind, g, 1))
        with pytest.raises(ValueError, match="x0"):
            run(MinFilter(), 2, x0=_malformed(kind, g, 2))


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
