"""The string-keyed, capability-based MBF engine registry of repro.api."""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    EmbeddingConfig,
    MBFEngine,
    MBFProblem,
    Pipeline,
    PipelineConfig,
    available_engines,
    engines_for,
    generators as gen,
    get_engine,
    problems,
    register_engine,
    resolve_engine,
    solve,
    unregister_engine,
)
from repro.mbf.dense import BatchedFlatStates


def _le_only(G, ranks, **kw):
    return None, np.zeros(len(ranks), dtype=np.int64)


class TestLookup:
    def test_builtins_registered(self):
        names = available_engines()
        assert "dense" in names
        assert "reference" in names
        assert names == tuple(sorted(names))

    def test_unknown_key_raises_with_available_set(self):
        with pytest.raises(KeyError, match="dense"):
            get_engine("nope")

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister_engine("nope")


class TestRegistration:
    def test_register_and_unregister(self):
        engine = MBFEngine(name="test-third-party", le_lists_batch=_le_only)
        try:
            register_engine(engine)
            assert get_engine("test-third-party") is engine
            assert "test-third-party" in available_engines()
        finally:
            unregister_engine("test-third-party")
        assert "test-third-party" not in available_engines()

    def test_duplicate_requires_overwrite(self):
        engine = MBFEngine(name="test-dup", le_lists_batch=_le_only)
        try:
            register_engine(engine)
            with pytest.raises(ValueError, match="already registered"):
                register_engine(engine)
            replacement = MBFEngine(name="test-dup", le_lists_batch=lambda G, r, **kw: None)
            register_engine(replacement, overwrite=True)
            assert get_engine("test-dup") is replacement
        finally:
            unregister_engine("test-dup")

    def test_backend_validation(self):
        """An LE-list-only engine (what EmbeddingConfig.backend names) is
        validated like any other."""
        with pytest.raises(ValueError):
            MBFEngine(name="", le_lists_batch=_le_only)
        with pytest.raises(TypeError):
            MBFEngine(name="x", le_lists_batch="not-callable")
        with pytest.raises(TypeError):
            register_engine("dense")


class TestBackendEquivalence:
    """The two built-in LE-list drivers agree sample by sample."""

    def test_dense_and_reference_agree(self):
        g = gen.random_graph(14, 30, rng=0)
        rng = np.random.default_rng(1)
        ranks = np.stack([rng.permutation(g.n) for _ in range(2)])
        dense, it_d = get_engine("dense").le_lists_batch(g, ranks)
        ref, it_r = get_engine("reference").le_lists_batch(g, ranks)
        assert isinstance(ref, BatchedFlatStates)
        for s in range(2):
            assert dense.sample_states(s).to_dicts() == pytest.approx(
                ref.sample_states(s).to_dicts()
            )
        assert np.array_equal(it_d, it_r)

    def test_fixed_iteration_count(self):
        g = gen.cycle(10, rng=2)
        ranks = np.random.default_rng(3).permutation(g.n)[None, :]
        dense, it_d = get_engine("dense").le_lists_batch(g, ranks, h=2)
        ref, it_r = get_engine("reference").le_lists_batch(g, ranks, h=2)
        assert it_d.tolist() == it_r.tolist() == [2]
        assert dense.sample_states(0).to_dicts() == pytest.approx(
            ref.sample_states(0).to_dicts()
        )

    def test_rank_validated(self):
        g = gen.cycle(6, rng=4)
        for bad in (np.zeros((1, 6), dtype=np.int64), np.arange(6)):
            for name in ("dense", "reference"):
                with pytest.raises(ValueError):
                    get_engine(name).le_lists_batch(g, bad)


class TestEngineRegistry:
    def test_builtin_engines_and_capabilities(self):
        assert set(available_engines()) >= {"dense", "reference"}
        dense = get_engine("dense")
        ref = get_engine("reference")
        assert "distance-map" in dense.families and "min-plus" in dense.families
        assert "all-paths" not in dense.families
        assert "all-paths" in ref.families
        assert engines_for("all-paths") == ("reference",)
        assert set(engines_for("max-min")) >= {"dense", "reference"}
        with pytest.raises(ValueError, match="unknown state family"):
            engines_for("minplus")  # typo'd family names fail loudly

    def test_engine_validation(self):
        with pytest.raises(ValueError, match="name"):
            MBFEngine(name="", solve=lambda *a, **k: None, families=("min-plus",))
        with pytest.raises(ValueError, match="families"):
            MBFEngine(name="x", solve=lambda *a, **k: None)  # solve without families
        with pytest.raises(ValueError, match="families"):
            MBFEngine(name="x", families=("min-plus",), le_lists_batch=_le_only)
        with pytest.raises(ValueError, match="capability"):
            MBFEngine(name="x")
        with pytest.raises(ValueError, match="unknown state families"):
            # typo'd family names must fail loudly, not register unselectably
            MBFEngine(name="x", solve=lambda *a, **k: None, families=("min_plus",))
        with pytest.raises(TypeError, match="callable"):
            MBFEngine(name="x", solve=7, families=("min-plus",))
        with pytest.raises(TypeError):
            register_engine("dense")

    def test_register_resolve_unregister_custom_engine(self):
        calls = []

        def my_solve(G, problem, *, h=None, ledger=None, **kw):
            calls.append(problem.name)
            return "custom", 0

        eng = MBFEngine(name="test-custom", solve=my_solve, families=("all-paths",))
        try:
            register_engine(eng)
            assert get_engine("test-custom") is eng
            with pytest.raises(ValueError, match="already registered"):
                register_engine(eng)
            # Explicit selection dispatches to the custom driver...
            g = gen.path_graph(4)
            out, it = solve(g, problems.k_sdp(4, 1, sink=0), engine="test-custom")
            assert out == "custom" and calls == ["k-SDP(k=1, s=0)"]
            # ...but auto still prefers the built-in preference order.
            assert resolve_engine(problems.k_sdp(4, 1, sink=0)).name == "reference"
            assert eng.le_lists_batch is None  # solve-only: cannot sample trees
        finally:
            unregister_engine("test-custom")
        assert "test-custom" not in available_engines()
        with pytest.raises(KeyError):
            unregister_engine("test-custom")

    def test_solve_only_engine_name_not_free_for_backends(self):
        """A registered solve-only engine is another plugin's slot: an
        LE-list engine under the same name needs overwrite=True, so
        nothing grafts onto it silently."""
        register_engine(
            MBFEngine(
                name="test-solve-only",
                solve=lambda *a, **k: ("x", 0),
                families=("all-paths",),
                description="plugin A engine",
            )
        )
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_engine(MBFEngine(name="test-solve-only", le_lists_batch=_le_only))
            assert get_engine("test-solve-only").description == "plugin A engine"
        finally:
            unregister_engine("test-solve-only")

    def test_backend_overwrite_keeps_solve_capability(self):
        """Overwriting a built-in with an instrumented LE-list driver (the
        record copied with one field replaced) keeps its solve capability
        and provenance, and the pipeline samples through the new driver."""
        orig = get_engine("dense")
        calls = []

        def wrapped(G, ranks, **kw):
            calls.append(len(ranks))
            return orig.le_lists_batch(G, ranks, **kw)

        g = gen.path_graph(5)
        try:
            register_engine(dataclasses.replace(orig, le_lists_batch=wrapped), overwrite=True)
            cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=0)
            Pipeline(g, cfg).sample_ensemble(k=2)
            assert calls == [2]  # the instrumented driver is live...
            out, _ = solve(g, problems.sssp(5, 0), engine="dense")
            assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0, 4.0])  # ...solve intact
            assert get_engine("dense").module == "repro.mbf.dense"
        finally:
            register_engine(orig, overwrite=True)
        assert get_engine("dense") is orig

    def test_minimal_solve_signature_cap_error(self):
        """A driver with the minimal documented signature works without a
        cap and fails with a capability message when one is supplied."""

        def minimal(G, problem, *, h=None, ledger=None):
            return "ok", 0

        register_engine(MBFEngine(name="test-minimal", solve=minimal, families=("min-plus",)))
        try:
            g = gen.path_graph(4)
            assert solve(g, problems.sssp(4, 0), engine="test-minimal") == ("ok", 0)
            with pytest.raises(TypeError, match="does not accept"):
                solve(g, problems.sssp(4, 0), engine="test-minimal", max_iterations=3)
        finally:
            unregister_engine("test-minimal")

    def test_explicit_engine_capability_mismatch(self):
        g = gen.path_graph(4)
        with pytest.raises(ValueError, match="cannot solve"):
            solve(g, problems.k_sdp(4, 1, sink=0), engine="dense")
        with pytest.raises(KeyError, match="unknown MBF engine"):
            solve(g, problems.sssp(4, 0), engine="nope")

    def test_explicit_engine_requires_dense_form(self):
        """Pinning a dense engine on a formless problem fails at resolve
        time (capability check), not deep inside the driver."""
        inst = problems.sssp(4, 0)
        stripped = MBFProblem(inst.algo, inst.x0, inst.decode, family=inst.family)
        with pytest.raises(ValueError, match="dense form"):
            resolve_engine(stripped, "dense")


class TestBatchedDrivers:
    def test_le_lists_batch_validated(self):
        with pytest.raises(TypeError, match="le_lists_batch"):
            MBFEngine(name="x", le_lists_batch=42)

    def test_batch_driver_matches_scalar_driver(self):
        """Sample s of a batch equals the k = 1 call on ranks[s]."""
        g = gen.random_graph(16, 35, rng=32)
        rng = np.random.default_rng(33)
        ranks = np.stack([rng.permutation(g.n) for _ in range(3)])
        for name in ("dense", "reference"):
            batch = get_engine(name).le_lists_batch
            lists, iters = batch(g, ranks)
            for s in range(3):
                expect, it = batch(g, ranks[s : s + 1])
                assert lists.sample_states(s).equals(expect.sample_states(0))
                assert iters[s] == it[0]
