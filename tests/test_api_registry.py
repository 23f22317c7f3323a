"""Engine dispatch of repro.api: ``solve``/``pick_engine`` over the two
engines, and the direct pipeline's LE-list driver against the reference
engine."""

import numpy as np
import pytest

from repro.api import (
    EmbeddingConfig,
    MBFProblem,
    Pipeline,
    PipelineConfig,
    generators as gen,
    pick_engine,
    problems,
    solve,
)
import repro.frt.lelists as lelists
from repro.frt.lelists import compute_le_lists_batch
from repro.mbf.dense import BatchedFlatStates


def _reference_le_lists(G, ranks, h=None):
    """LE lists through the reference engine: the zoo's LE-list problem,
    solved once per row of ``ranks`` and stacked."""
    solved = [
        solve(G, problems.le_lists(G.n, rank), engine="reference", h=h)
        for rank in np.atleast_2d(ranks)
    ]
    lists = BatchedFlatStates.concat([states for states, _ in solved])
    return lists, np.array([iters for _, iters in solved], dtype=np.int64)


def _zoo(n: int) -> dict:
    rank = np.random.default_rng(0).permutation(n)
    return {
        "sssp": problems.sssp(n, 0),
        "mssp": problems.mssp(n, [0, 1]),
        "forest_fire": problems.forest_fire(n, [0], dmax=2.0),
        "connectivity": problems.connectivity(n),
        "sswp": problems.sswp(n, 0),
        "mswp": problems.mswp(n, [0, 1]),
        "apwp": problems.apwp(n),
        "apsp": problems.apsp(n),
        "source_detection": problems.source_detection(n, [0, 1], k=1, dmax=3.0),
        "k_ssp": problems.k_ssp(n, 2),
        "le_lists": problems.le_lists(n, rank),
        "k_sdp": problems.k_sdp(n, 2, sink=0),
        "k_dsdp": problems.k_dsdp(n, 2, sink=0),
    }


class TestLookup:
    def test_unknown_key_raises_with_available_set(self):
        with pytest.raises(KeyError, match="available: \\('dense', 'reference'\\)"):
            pick_engine(problems.sssp(4, 0), "nope")


class TestBackendEquivalence:
    """The dense LE-list driver and the reference engine agree sample by
    sample."""

    def test_dense_and_reference_agree(self):
        g = gen.random_graph(14, 30, rng=0)
        rng = np.random.default_rng(1)
        ranks = np.stack([rng.permutation(g.n) for _ in range(2)])
        dense, it_d = compute_le_lists_batch(g, ranks)
        for s in range(2):
            ref, it_r = solve(g, problems.le_lists(g.n, ranks[s]), engine="reference")
            assert isinstance(ref, BatchedFlatStates)
            assert dense.sample_states(s).to_dicts() == pytest.approx(ref.to_dicts())
            assert it_d[s] == it_r

    def test_fixed_iteration_count(self):
        g = gen.cycle(10, rng=2)
        rank = np.random.default_rng(3).permutation(g.n)
        dense, it_d = compute_le_lists_batch(g, rank[None, :], h=2)
        ref, it_r = solve(g, problems.le_lists(g.n, rank), engine="reference", h=2)
        assert it_d.tolist() == [it_r] == [2]
        assert dense.to_dicts() == pytest.approx(ref.to_dicts())

    def test_rank_validated(self):
        g = gen.cycle(6, rng=4)
        for bad in (np.zeros((1, 6), dtype=np.int64), np.arange(6)):
            with pytest.raises(ValueError):
                compute_le_lists_batch(g, bad)
        with pytest.raises(ValueError):
            problems.le_lists(6, np.zeros(6, dtype=np.int64))


class TestEngineRegistry:
    def test_builtin_engines_and_capabilities(self):
        """Auto picks "dense" exactly for the zoo problems with a dense form."""
        for name, inst in _zoo(6).items():
            expect = "reference" if inst.family == "all-paths" else "dense"
            assert (inst.dense_form is not None) == (expect == "dense"), name
            assert pick_engine(inst) == expect, name
            assert pick_engine(inst, "auto") == expect, name
            assert pick_engine(inst, "reference") == "reference", name
        with pytest.raises(TypeError, match="MBFProblem"):
            pick_engine("sssp")

    def test_backend_overwrite_keeps_solve_capability(self, monkeypatch):
        """A spy installed on ``repro.frt.lelists.compute_le_lists_batch``
        (the name profilers wrap) sees the direct ensemble's one ``(k, n)``
        call, and ``solve`` is untouched by it."""
        calls = []
        original = lelists.compute_le_lists_batch

        def spy(G, ranks, **kw):
            calls.append(np.shape(ranks))
            return original(G, ranks, **kw)

        monkeypatch.setattr(lelists, "compute_le_lists_batch", spy)
        g = gen.path_graph(5)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=0)
        Pipeline(g, cfg).sample_ensemble(k=3)
        assert calls == [(3, 5)]
        out, _ = solve(g, problems.sssp(5, 0), engine="dense")
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert calls == [(3, 5)]

    def test_explicit_engine_capability_mismatch(self):
        g = gen.path_graph(4)
        for inst in (problems.k_sdp(4, 1, sink=0), problems.k_dsdp(4, 1, sink=0)):
            with pytest.raises(ValueError, match="cannot solve family 'all-paths'"):
                solve(g, inst, engine="dense")
        with pytest.raises(KeyError, match="unknown MBF engine"):
            solve(g, problems.sssp(4, 0), engine="nope")

    def test_explicit_engine_requires_dense_form(self):
        """Pinning the dense engine on a formless problem fails in
        pick_engine, not deep inside the driver."""
        inst = problems.sssp(4, 0)
        stripped = MBFProblem(inst.algo, inst.x0, inst.decode, family=inst.family)
        with pytest.raises(ValueError, match="dense form"):
            pick_engine(stripped, "dense")
        with pytest.raises(ValueError, match="dense form"):
            solve(gen.path_graph(4), stripped, engine="dense")


class TestBatchedDrivers:
    def test_batch_driver_matches_scalar_driver(self):
        """Sample s of a batch equals the k = 1 call on ranks[s], on the
        dense driver and the reference engine alike."""
        g = gen.random_graph(16, 35, rng=32)
        rng = np.random.default_rng(33)
        ranks = np.stack([rng.permutation(g.n) for _ in range(3)])
        for batch in (compute_le_lists_batch, _reference_le_lists):
            lists, iters = batch(g, ranks)
            for s in range(3):
                expect, it = batch(g, ranks[s : s + 1])
                assert lists.sample_states(s).equals(expect.sample_states(0))
                assert iters[s] == it[0]
