"""The Pipeline facade: artifact caching, batch sampling, legacy parity."""

import contextlib
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.api import (
    EmbeddingConfig,
    ExecutionConfig,
    HopsetConfig,
    OracleConfig,
    Pipeline,
    PipelineConfig,
    PipelineResult,
    ShardWorkerError,
    generators as gen,
    problems,
    solve,
)
import repro.frt.lelists as lelists
from repro.frt.embedding import _draw_randomness
from repro.frt.lelists import compute_le_lists_batch_via_oracle
from tests.frt_reference import build_frt_tree, distance_matrix
from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_distances
from repro.hopsets import hub_hopset, rounded_hopset
from repro.io import load_result, save_result
from repro.oracle import HOracle
from repro.pram import CostLedger
from repro.util.rng import spawn_rngs, split_seed


def _assert_same_embedding(a, b):
    assert np.array_equal(a.rank, b.rank)
    assert a.beta == b.beta
    assert a.iterations == b.iterations
    assert a.le_lists.to_dicts() == b.le_lists.to_dicts()
    assert np.array_equal(distance_matrix(a.tree), distance_matrix(b.tree))


class TestLegacyParity:
    def test_oracle_sample_matches_hand_wired_legacy(self):
        """Pipeline.sample() is bit-identical to the pre-facade wiring
        (hub_hopset → rounded_hopset → HOracle → LE lists → tree) when the
        same generator is threaded through in the same order."""
        g = gen.cycle(20, wmin=1, wmax=2, rng=0)
        eps, d0, seed = 0.25, 4, 42

        rng = np.random.default_rng(seed)
        base = hub_hopset(g, d0, rng=rng)
        hopset = rounded_hopset(base, g, eps)
        oracle = HOracle(hopset, rng=rng)
        r, b = _draw_randomness(g.n, rng)
        lists, iters = compute_le_lists_batch_via_oracle(oracle, r[None, :])
        wmin, _ = g.weight_bounds()
        legacy_tree = build_frt_tree(lists.sample_states(0), r, b, wmin)

        pipe = Pipeline(
            g, PipelineConfig(hopset=HopsetConfig(eps=eps, d0=d0)), rng=seed
        )
        res = pipe.sample()
        assert np.array_equal(res.rank, r)
        assert res.beta == b
        assert res.iterations == iters[0]
        assert np.array_equal(distance_matrix(res.tree), distance_matrix(legacy_tree))
        assert res.meta["pipeline"] == "oracle"

    def test_direct_sample_reproducible_and_labelled(self):
        g = gen.cycle(12, rng=2)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
        a = Pipeline(g, cfg, rng=9).sample()
        b = Pipeline(g, cfg, rng=9).sample()
        _assert_same_embedding(a, b)
        assert b.meta == {"pipeline": "direct"}


class TestArtifactCaching:
    def test_one_build_across_samples(self):
        g = gen.cycle(16, rng=3)
        pipe = Pipeline(g, PipelineConfig(seed=0))
        for _ in range(3):
            pipe.sample()
        assert pipe.stats["hopset_builds"] == 1
        assert pipe.stats["oracle_builds"] == 1
        assert pipe.stats["samples"] == 3
        assert pipe.hopset() is pipe.hopset()
        assert pipe.oracle() is pipe.oracle()

    def test_injected_artifacts_not_counted(self):
        g = gen.cycle(16, rng=3)
        hop = rounded_hopset(hub_hopset(g, 3, rng=0), g, 0.25)
        pipe = Pipeline(g, PipelineConfig(), hopset=hop, rng=1)
        pipe.sample()
        assert pipe.hopset() is hop
        assert pipe.stats["hopset_builds"] == 0
        assert pipe.stats["oracle_builds"] == 1

    def test_direct_method_builds_nothing(self):
        g = gen.cycle(10, rng=4)
        pipe = Pipeline(
            g, PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=0)
        )
        pipe.sample()
        assert pipe.stats["hopset_builds"] == 0
        assert pipe.stats["oracle_builds"] == 0

    def test_timings_recorded(self):
        g = gen.cycle(16, rng=3)
        pipe = Pipeline(g, PipelineConfig(seed=0))
        pipe.sample()
        assert pipe.timings["hopset"] >= 0
        assert pipe.timings["oracle"] >= 0
        assert pipe.timings["samples"] >= 0

    def test_builds_and_samples_only(self):
        """Pipeline's public surface is its stages and its samplers; its
        counters and timings cover exactly those."""
        public = {name for name in dir(Pipeline) if not name.startswith("_")}
        assert public == {"hopset", "oracle", "sample", "sample_ensemble", "embed_metric"}
        pipe = Pipeline(gen.cycle(12, rng=3), PipelineConfig(seed=0))
        pipe.sample_ensemble(3)
        pipe.embed_metric()
        assert pipe.stats == {
            "hopset_builds": 1, "oracle_builds": 1, "metric_builds": 1, "samples": 3,
        }
        assert set(pipe.timings) == {"hopset", "oracle", "samples", "metric"}


class TestEnsemble:
    def test_bit_identical_across_runs_and_reuses_one_build(self):
        """The acceptance contract: k trees, deterministic under a fixed
        seed, one hopset/oracle build amortized over the batch."""
        g = gen.cycle(24, wmin=1, wmax=2, rng=5)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))

        results = []
        for _ in range(2):
            pipe = Pipeline(g, cfg)
            res = pipe.sample_ensemble(k=8, seed=0)
            assert len(res) == 8
            assert res.meta["stats"]["hopset_builds"] == 1
            assert res.meta["stats"]["oracle_builds"] == 1
            assert res.meta["stats"]["samples"] == 8
            results.append(res)
        for a, b in zip(results[0], results[1]):
            _assert_same_embedding(a, b)

    def test_samples_are_independent(self):
        g = gen.cycle(16, rng=6)
        res = Pipeline(g, PipelineConfig()).sample_ensemble(k=4, seed=1)
        betas = {e.beta for e in res}
        assert len(betas) == 4  # distinct child streams

    def test_ledgers_join_as_parallel_branches(self):
        g = gen.cycle(16, rng=6)
        res = Pipeline(g, PipelineConfig()).sample_ensemble(k=3, seed=2)
        assert len(res.ledgers) == 3
        assert all(led.work > 0 for led in res.ledgers)
        assert res.ledger.work == sum(led.work for led in res.ledgers)
        assert res.ledger.depth == max(led.depth for led in res.ledgers)

    def test_workers_match_serial(self):
        g = gen.cycle(12, rng=7)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=3))
        serial = Pipeline(g, cfg).sample_ensemble(k=3, seed=3)
        parallel = Pipeline(g, cfg).sample_ensemble(
            k=3, seed=3, execution=ExecutionConfig(workers=2)
        )
        for a, b in zip(serial, parallel):
            _assert_same_embedding(a, b)
        assert parallel.ledger.work == serial.ledger.work

    def test_seed_none_continues_pipeline_stream(self):
        g = gen.cycle(12, rng=7)
        a = Pipeline(g, PipelineConfig(seed=11)).sample_ensemble(k=2)
        b = Pipeline(g, PipelineConfig(seed=11)).sample_ensemble(k=2)
        for x, y in zip(a, b):
            _assert_same_embedding(x, y)

    def test_batch_seed_does_not_shift_pipeline_stream(self):
        """Regression: a seeded batch must not replace the pipeline's own
        RNG stream — later sample() calls draw from the constructor
        stream, as if the batch had never happened."""
        g = gen.cycle(16, rng=5)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))
        p1 = Pipeline(g, cfg, rng=0)
        p1.sample_ensemble(k=2, seed=5)
        after_batch = p1.sample()
        p2 = Pipeline(g, cfg, rng=0, hopset=p1.hopset(), oracle=p1.oracle())
        _assert_same_embedding(after_batch, p2.sample())

    def test_size_validated(self):
        g = gen.cycle(8, rng=8)
        with pytest.raises(ValueError):
            Pipeline(g, PipelineConfig(seed=0)).sample_ensemble(k=0)

    def test_result_structure_and_provenance(self):
        g = gen.cycle(16, rng=9)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.5, d0=3), seed=4)
        res = Pipeline(g, cfg).sample_ensemble(k=2)
        assert isinstance(res, PipelineResult)
        assert res.size == len(res) == len(res.forest.trees()) == len(res.iterations) == 2
        assert res.forest.size == res.le_lists.k == 2
        assert res.timings["total"] > 0
        # meta round-trips back into an identical config
        assert PipelineConfig.from_dict(res.meta["config"]) == cfg
        assert res.meta["n"] == g.n and res.meta["m"] == g.m
        assert res.meta["method"] == "oracle"
        assert res.meta["hopset"]["d"] == 7
        assert res.meta["oracle"]["penalty_base"] == pytest.approx(1.5)

    def test_batch_timings_are_per_batch(self):
        """Regression: result timings cover only this batch — stages done
        before the call (artifact builds, earlier samples) are excluded."""
        g = gen.cycle(16, rng=9)
        pipe = Pipeline(g, PipelineConfig(seed=4))
        pipe.sample()  # builds artifacts and samples before the batch
        res = pipe.sample_ensemble(k=2)
        assert "samples" in res.timings
        assert "hopset" not in res.timings and "oracle" not in res.timings
        assert res.timings["samples"] <= res.timings["total"] + 1e-9
        par = Pipeline(g, PipelineConfig(seed=4)).sample_ensemble(
            k=2, execution=ExecutionConfig(workers=2)
        )
        assert "samples" in par.timings  # pool wall-time recorded too

    def test_empty_result_rejected(self):
        res = Pipeline(gen.cycle(8, rng=8), PipelineConfig(seed=0)).sample_ensemble(k=1)
        with pytest.raises(ValueError):
            PipelineResult(
                forest=res.forest,
                le_lists=res.le_lists,
                ranks=res.ranks[:0],
                iterations=[],
                ledgers=[],
            )


class TestEnsembleValue:
    """PipelineResult is the stacked ensemble; embeddings are its views."""

    def test_embeddings_are_lazy_views_of_the_stacked_arrays(self):
        g = gen.random_graph(24, 60, rng=5)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
        res = Pipeline(g, cfg).sample_ensemble(k=3, seed=1)
        assert "embeddings" not in vars(res)  # nothing built yet
        views = res.embeddings
        assert res.embeddings is views  # built once
        for s, emb in enumerate(views):
            assert np.array_equal(emb.tree.level_ids, res.forest.tree(s).level_ids)
            assert emb.beta == res.forest.betas[s]
            assert np.array_equal(emb.rank, res.ranks[s])
            assert emb.le_lists.equals(res.le_lists.sample_states(s))
            assert emb.iterations == res.iterations[s]
            assert emb.meta == res.embedding_meta == {"pipeline": "direct"}

    def test_ledger_defaults_to_the_join(self):
        g = gen.cycle(12, rng=3)
        res = Pipeline(g, PipelineConfig(seed=2)).sample_ensemble(k=2)
        again = PipelineResult(
            forest=res.forest,
            le_lists=res.le_lists,
            ranks=res.ranks,
            iterations=res.iterations,
            ledgers=res.ledgers,
        )
        assert again.ledger.snapshot() == res.ledger.snapshot()


class TestIntegerArguments:
    """One fingerprint per integer value; bad integers fail before work."""

    def setup_method(self):
        self.g = gen.random_graph(24, 60, rng=5)
        self.cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))

    def test_bool_k_rejected_before_sampling(self):
        pipe = Pipeline(self.g, PipelineConfig(hopset=HopsetConfig(d0=3)))
        with pytest.raises(TypeError, match="k"):
            pipe.sample_ensemble(True, seed=1)
        assert pipe.stats["samples"] == 0 and pipe.stats["oracle_builds"] == 0

    def test_bool_seed_rejected_before_sampling(self):
        pipe = Pipeline(self.g, PipelineConfig(hopset=HopsetConfig(d0=3)))
        with pytest.raises(TypeError, match="seed"):
            pipe.sample_ensemble(2, seed=True)
        assert pipe.stats["samples"] == 0 and pipe.stats["oracle_builds"] == 0

    def test_non_integer_k_rejected(self):
        with pytest.raises(TypeError):
            Pipeline(self.g, self.cfg).sample_ensemble(2.0)

    def test_numpy_ints_fingerprint_like_python_ints(self):
        a = Pipeline(self.g, self.cfg).sample_ensemble(np.int64(3), seed=np.int64(1))
        b = Pipeline(self.g, self.cfg).sample_ensemble(3, seed=1)
        assert a.fingerprint == b.fingerprint
        assert type(a.meta["k"]) is int and type(a.meta["seed"]) is int
        assert np.array_equal(a.forest.level_ids, b.forest.level_ids)

    def test_numpy_ints_save(self, tmp_path):
        pipe = Pipeline(self.g, self.cfg)
        result = pipe.sample_ensemble(np.int64(2), seed=np.int32(4))
        meta = save_result(tmp_path / "a.rpz", result)
        assert meta["provenance"]["k"] == 2 and meta["provenance"]["seed"] == 4


class TestDistanceQueries:
    def test_metric_dominates_and_respects_bound(self):
        g = gen.random_graph(20, 50, rng=10)
        pipe = Pipeline(g, PipelineConfig(seed=1))
        metric = pipe.embed_metric()
        D = dijkstra_distances(g)
        off = ~np.eye(g.n, dtype=bool)
        M = metric.matrix
        assert np.all(M[off] >= D[off] - 1e-9)
        assert float((M[off] / D[off]).max()) <= metric.stretch_bound + 1e-9
        assert metric.query(0, 5) == M[0, 5]
        assert list(M[[0, 1], [5, 6]]) == [metric.query(0, 5), metric.query(1, 6)]
        assert metric.n == g.n

    def test_metric_cached_and_shares_artifacts(self):
        g = gen.cycle(16, rng=11)
        pipe = Pipeline(g, PipelineConfig(seed=2))
        pipe.sample()  # builds hopset + oracle
        m1 = pipe.embed_metric()
        m2 = pipe.embed_metric()
        assert m1 is m2
        assert pipe.stats["hopset_builds"] == 1
        assert pipe.stats["metric_builds"] == 1

    def test_metric_ledger_charged_even_when_cached(self):
        """Regression: a cached metric must not silently report zero cost
        when the caller asks for a ledger-instrumented run."""
        g = gen.cycle(12, rng=11)
        pipe = Pipeline(g, PipelineConfig(seed=2))
        pipe.embed_metric()  # warm the cache
        ledger = CostLedger()
        pipe.embed_metric(ledger=ledger)
        assert ledger.work > 0 and ledger.depth > 0

    def test_penalty_base_override(self):
        g = gen.cycle(16, rng=12)
        pipe = Pipeline(
            g,
            PipelineConfig(
                hopset=HopsetConfig(eps=0.5, d0=3),
                oracle=OracleConfig(penalty_base=1.6),
                seed=3,
            ),
        )
        assert pipe.oracle().penalty_base == pytest.approx(1.6)

    def test_penalty_base_below_theorem_bound_rejected(self):
        """penalty_base < 1 + eps would report a stretch bound the metric
        cannot honor (Theorem 4.5); the pipeline rejects it at build time."""
        g = gen.cycle(16, rng=12)
        pipe = Pipeline(
            g,
            PipelineConfig(
                hopset=HopsetConfig(eps=0.5, d0=3),
                oracle=OracleConfig(penalty_base=1.1),
                seed=3,
            ),
        )
        with pytest.raises(ValueError, match="Theorem 4.5"):
            pipe.oracle()


class TestHopsetKinds:
    def test_identity_kind_single_iteration(self):
        g = gen.grid(4, 4, rng=13)
        pipe = Pipeline(
            g, PipelineConfig(hopset=HopsetConfig(kind="identity", eps=0.0), seed=0)
        )
        res = pipe.sample()
        assert res.iterations == 1  # H is the exact metric
        assert pipe.hopset().extra_edges == 0

    def test_exact_closure_kind(self):
        g = gen.cycle(12, rng=14)
        pipe = Pipeline(
            g,
            PipelineConfig(hopset=HopsetConfig(kind="exact-closure", eps=0.0), seed=0),
        )
        res = pipe.sample()
        assert pipe.hopset().d == 1
        D = dijkstra_distances(g)
        assert np.all(distance_matrix(res.tree) >= D - 1e-9)


class TestValidationAndBackends:
    def test_disconnected_rejected(self):
        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="connected"):
            Pipeline(g, PipelineConfig())

    def test_bad_types_rejected(self):
        g = gen.cycle(8, rng=15)
        with pytest.raises(TypeError):
            Pipeline("not-a-graph", PipelineConfig())
        with pytest.raises(TypeError):
            Pipeline(g, {"seed": 0})

    def test_reference_backend_end_to_end(self):
        """The direct method's LE lists are the reference engine's, sample
        by sample."""
        g = gen.cycle(10, rng=16)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
        res = Pipeline(g, cfg, rng=4).sample_ensemble(k=3, seed=0)
        for s in range(3):
            ref, iters = solve(g, problems.le_lists(g.n, res.ranks[s]), engine="reference")
            assert res.le_lists.sample_states(s).to_dicts() == ref.to_dicts()
            assert res.iterations[s] == iters

    def test_ledger_threaded_through_sample(self):
        g = gen.cycle(12, rng=17)
        ledger = CostLedger()
        Pipeline(g, PipelineConfig(seed=5)).sample(ledger=ledger)
        assert ledger.work > 0 and ledger.depth > 0

    @pytest.mark.parametrize(
        "method, pinned",
        [
            ("oracle", ((7905597, 632, 4), (5242979, 576, 4))),
            ("direct", ((41690, 105, 8), (44122, 114, 9))),
        ],
    )
    def test_sample_ledgers_pinned(self, method, pinned):
        """Model costs and iteration counts of two consecutive samples,
        recorded when sample() still ran its own serial path; the k = 1
        view of the batched engine must charge exactly the same."""
        g = gen.grid(5, 6, wmin=1.0, wmax=2.0, rng=6)
        pipe = Pipeline(g, PipelineConfig(embedding=EmbeddingConfig(method=method), seed=11))
        for work, depth, iters in pinned:
            ledger = CostLedger()
            emb = pipe.sample(ledger=ledger)
            assert (ledger.work, ledger.depth, emb.iterations) == (work, depth, iters)


def _samples_on_children(pipe, children):
    """One ``Pipeline.sample()`` per child generator, with its own ledger."""
    ledgers = [CostLedger() for _ in children]
    embeddings = [pipe.sample(rng=c, ledger=led) for c, led in zip(children, ledgers)]
    return embeddings, ledgers


def _seeded_children(seed, k):
    """The child generators ``sample_ensemble(k, seed=seed)`` samples from."""
    return spawn_rngs(split_seed(seed, 2)[1], k)


class TestBatchedEnsemble:
    """An ensemble of k is the batched engine on k stacked samples, and
    sample() is its k = 1 view: the ensemble equals k sample() calls on
    the same child generators — same trees, same per-sample LE lists, same
    iteration counts, same per-sample ledger charges."""

    def _assert_matches_samples(self, res, pipe, children):
        embeddings, ledgers = _samples_on_children(pipe, children)
        for a, b in zip(embeddings, res):
            _assert_same_embedding(a, b)
        assert [led.snapshot() for led in ledgers] == [led.snapshot() for led in res.ledgers]

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_oracle_path_parity(self, k):
        g = gen.cycle(24, wmin=1, wmax=2, rng=5)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))
        pipe = Pipeline(g, cfg)
        res = pipe.sample_ensemble(k=k, seed=0)
        self._assert_matches_samples(res, pipe, _seeded_children(0, k))

    @pytest.mark.parametrize("k", [1, 5])
    def test_direct_dense_path_parity(self, k):
        g = gen.random_graph(30, 70, rng=6)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
        pipe = Pipeline(g, cfg)
        res = pipe.sample_ensemble(k=k, seed=1)
        self._assert_matches_samples(res, pipe, _seeded_children(1, k))

    def test_ledger_work_totals_match_serial(self):
        """The merged ledger joins the k sample() ledgers as parallel
        branches."""
        g = gen.cycle(20, rng=7)
        for cfg in (
            PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4)),
            PipelineConfig(embedding=EmbeddingConfig(method="direct")),
        ):
            pipe = Pipeline(g, cfg)
            res = pipe.sample_ensemble(k=3, seed=2)
            _, ledgers = _samples_on_children(pipe, _seeded_children(2, 3))
            assert [led.work for led in res.ledgers] == [led.work for led in ledgers]
            assert [led.depth for led in res.ledgers] == [led.depth for led in ledgers]
            assert res.ledger.work == sum(led.work for led in ledgers)
            assert res.ledger.depth == max(led.depth for led in ledgers)

    def test_trees_identical_not_just_metrically(self):
        """Beyond the distance matrix: the structure arrays coincide."""
        g = gen.grid(4, 5, rng=8)
        pipe = Pipeline(g, PipelineConfig(embedding=EmbeddingConfig(method="direct")))
        res = pipe.sample_ensemble(k=3, seed=3)
        embeddings, _ = _samples_on_children(pipe, _seeded_children(3, 3))
        for a, b in zip(embeddings, res):
            assert np.array_equal(a.tree.level_ids, b.tree.level_ids)
            assert np.array_equal(a.tree.parent, b.tree.parent)
            assert np.array_equal(a.tree.node_leading, b.tree.node_leading)
            assert np.array_equal(a.tree.edge_weights, b.tree.edge_weights)

    def test_seed_none_continues_pipeline_stream(self):
        """Unseeded, the children come from the pipeline's own stream."""
        g = gen.cycle(12, rng=9)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=11)
        res = Pipeline(g, cfg).sample_ensemble(k=2)
        self._assert_matches_samples(res, Pipeline(g, cfg), spawn_rngs(11, 2))

    def test_mode_defaults_to_config(self):
        """config.execution (here the accepted mode="batched" spelling) is
        what an ensemble runs when no per-call execution is given."""
        g = gen.cycle(12, rng=9)
        cfg = PipelineConfig(
            embedding=EmbeddingConfig(method="direct"),
            execution=ExecutionConfig(mode="batched"),
        )
        res = Pipeline(g, cfg).sample_ensemble(k=2, seed=4)
        assert res.meta["execution"]["mode"] == "batched"
        assert res.meta["stats"]["samples"] == 2
        assert res.forest is not None and res.forest.size == 2

    def test_batched_amortizes_one_build(self):
        g = gen.cycle(16, rng=11)
        pipe = Pipeline(g, PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4)))
        res = pipe.sample_ensemble(k=4, seed=6)
        assert res.meta["stats"]["hopset_builds"] == 1
        assert res.meta["stats"]["oracle_builds"] == 1
        assert res.meta["stats"]["samples"] == 4
        assert res.timings["samples"] <= res.timings["total"] + 1e-9
        assert res.forest is not None and res.forest.size == 4

    def test_unknown_mode_rejected(self):
        """Execution knobs live only on ExecutionConfig: an unknown mode
        fails there, and the loose per-call kwargs are gone."""
        g = gen.cycle(8, rng=12)
        with pytest.raises(ValueError, match="mode"):
            ExecutionConfig(mode="turbo")
        with pytest.raises(TypeError):
            Pipeline(g, PipelineConfig(seed=0)).sample_ensemble(k=2, mode="batched")
        with pytest.raises(TypeError):
            Pipeline(g, PipelineConfig(seed=0)).sample_ensemble(k=2, workers=2)

    def test_workers_no_longer_rejected_with_batched(self):
        """Regression (sharded-ensemble PR): batched mode used to reject
        workers > 1; it now shards the sample axis instead of raising."""
        g = gen.cycle(8, rng=12)
        res = Pipeline(g, PipelineConfig(seed=0)).sample_ensemble(
            k=2, execution=ExecutionConfig(mode="batched", workers=2)
        )
        assert res.size == 2 and res.forest is not None

    def test_batch_seed_does_not_shift_pipeline_stream(self):
        g = gen.cycle(16, rng=5)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))
        p1 = Pipeline(g, cfg, rng=0)
        p1.sample_ensemble(k=2, seed=5)
        after_batch = p1.sample()
        p2 = Pipeline(g, cfg, rng=0, hopset=p1.hopset(), oracle=p1.oracle())
        _assert_same_embedding(after_batch, p2.sample())


FOREST_ARRAYS = (
    "betas",
    "depths",
    "radii",
    "edge_weights",
    "cum_weights",
    "level_ids",
    "node_offsets",
    "parent",
    "node_level",
    "node_leading",
)


def _assert_same_forest(a, b):
    assert a.n == b.n and a.size == b.size
    assert a.k_max == b.k_max and a.scale == b.scale
    for name in FOREST_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def _assert_same_result(a, b):
    for x, y in zip(a, b):
        _assert_same_embedding(x, y)
        assert np.array_equal(x.tree.level_ids, y.tree.level_ids)
        assert np.array_equal(x.tree.parent, y.tree.parent)
        assert np.array_equal(x.tree.node_leading, y.tree.node_leading)
    assert [led.work for led in a.ledgers] == [led.work for led in b.ledgers]
    assert [led.depth for led in a.ledgers] == [led.depth for led in b.ledgers]
    _assert_same_forest(a.forest, b.forest)


_TEST_PID = os.getpid()


def _die_in_worker(G, ranks, **kwargs):
    """An LE driver whose process dies mid-shard, as under the OOM killer."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("the dying driver ran in the test process")
    os._exit(1)


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail with ``TimeoutError`` instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestShardedBatchedEnsemble:
    """The sample axis is cut into shards — run in-process one after the
    other, or over a process pool with workers > 1; the contract is
    *bit-identical* output vs the one-shard run — all stacked forest
    arrays, per-tree views, per-sample LE lists, and ledgers — for every
    shard geometry."""

    def _cfg(self, **kw):
        return PipelineConfig(embedding=EmbeddingConfig(method="direct"), **kw)

    def test_even_split_matches_in_process(self):
        g = gen.random_graph(30, 70, rng=13)
        one = Pipeline(g, self._cfg()).sample_ensemble(k=4, seed=7)
        two = Pipeline(g, self._cfg()).sample_ensemble(
            k=4, seed=7, execution=ExecutionConfig(workers=2)
        )
        _assert_same_result(one, two)

    def test_k_not_divisible_by_workers(self):
        g = gen.random_graph(24, 60, rng=14)
        one = Pipeline(g, self._cfg()).sample_ensemble(k=7, seed=8)
        two = Pipeline(g, self._cfg()).sample_ensemble(
            k=7, seed=8, execution=ExecutionConfig(workers=3)
        )
        _assert_same_result(one, two)

    def test_workers_exceed_k(self):
        g = gen.cycle(16, rng=15)
        one = Pipeline(g, self._cfg()).sample_ensemble(k=3, seed=9)
        two = Pipeline(g, self._cfg()).sample_ensemble(
            k=3, seed=9, execution=ExecutionConfig(workers=8)
        )
        _assert_same_result(one, two)

    def test_workers_one_is_in_process(self):
        """workers=1 must not spin up a pool — and must equal the plain
        run bit for bit (same code path)."""
        g = gen.cycle(12, rng=16)
        one = Pipeline(g, self._cfg()).sample_ensemble(k=3, seed=10)
        two = Pipeline(g, self._cfg()).sample_ensemble(
            k=3, seed=10, execution=ExecutionConfig(mode="batched", workers=1)
        )
        _assert_same_result(one, two)

    def test_explicit_shard_size(self):
        """shard_size=1 degenerates to one sample per task; still identical."""
        g = gen.random_graph(20, 50, rng=17)
        one = Pipeline(g, self._cfg()).sample_ensemble(k=5, seed=11)
        two = Pipeline(g, self._cfg()).sample_ensemble(
            k=5,
            seed=11,
            execution=ExecutionConfig(workers=2, shard_size=1),
        )
        _assert_same_result(one, two)

    @pytest.mark.parametrize("method", ["oracle", "direct"])
    @pytest.mark.parametrize("shard_size", [1, 2])
    def test_in_process_shards_match_one_batch(self, method, shard_size):
        """shard_size applies in-process too: k samples one shard after the
        other (the serial memory profile at shard_size=1) equal one batch."""
        g = gen.cycle(18, wmin=1, wmax=3, rng=22)
        cfg = PipelineConfig(
            hopset=HopsetConfig(eps=0.25, d0=4), embedding=EmbeddingConfig(method=method)
        )
        one = Pipeline(g, cfg).sample_ensemble(k=5, seed=23)
        pipe = Pipeline(g, cfg)
        shards = pipe.sample_ensemble(
            k=5, seed=23, execution=ExecutionConfig(shard_size=shard_size)
        )
        _assert_same_result(one, shards)
        assert pipe.stats["samples"] == 5

    def test_ragged_shard_depths(self):
        """Shards whose local k_max differ re-pad to the global k_max.

        A wide weight range spreads per-sample root distances, so with
        singleton shards each worker's forest has its own depth; the
        concat must still reproduce the one-shard padding."""
        g = gen.random_graph(24, 60, wmin=1.0, wmax=64.0, rng=18)
        one = Pipeline(g, self._cfg()).sample_ensemble(k=6, seed=12)
        two = Pipeline(g, self._cfg()).sample_ensemble(
            k=6,
            seed=12,
            execution=ExecutionConfig(workers=3, shard_size=1),
        )
        assert len(set(one.forest.depths.tolist())) > 1  # genuinely ragged
        _assert_same_result(one, two)

    def test_oracle_method_shards_too(self):
        g = gen.cycle(20, wmin=1, wmax=2, rng=19)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))
        one = Pipeline(g, cfg).sample_ensemble(k=4, seed=13)
        two = Pipeline(g, cfg).sample_ensemble(
            k=4, seed=13, execution=ExecutionConfig(workers=2)
        )
        _assert_same_result(one, two)

    def test_single_vertex_graph(self):
        g = Graph(1, np.empty((0, 2), dtype=np.int64), [])
        one = Pipeline(g, self._cfg()).sample_ensemble(k=3, seed=14)
        two = Pipeline(g, self._cfg()).sample_ensemble(
            k=3, seed=14, execution=ExecutionConfig(workers=2)
        )
        _assert_same_result(one, two)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers inherit the patched LE driver only when forked",
    )
    def test_dead_worker_names_its_shard(self, monkeypatch):
        """A worker that dies surfaces as a typed error naming the first
        shard that did not complete and its sample range, chained from
        the pool's own error."""
        monkeypatch.setattr(lelists, "compute_le_lists_batch", _die_in_worker)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
        with _time_limit(60), pytest.raises(ShardWorkerError) as info:
            Pipeline(gen.cycle(12, rng=24), cfg).sample_ensemble(
                k=4, seed=25, execution=ExecutionConfig(workers=2)
            )
        err = info.value
        assert isinstance(err, RuntimeError)
        assert (err.shard, err.lo, err.hi) == (0, 0, 2)
        assert "shard 0 (samples [0, 2))" in str(err)
        assert isinstance(err.__cause__, BrokenProcessPool)

    def test_stats_and_meta(self):
        g = gen.cycle(12, rng=16)
        pipe = Pipeline(g, self._cfg())
        res = pipe.sample_ensemble(k=4, seed=15, execution=ExecutionConfig(workers=2))
        assert pipe.stats["samples"] == 4
        assert res.meta["execution"] == {
            "mode": None,
            "workers": 2,
            "shard_size": None,
        }
        # meta["execution"] is the one record of how the batch ran
        assert "mode" not in res.meta and "workers" not in res.meta
        assert res.timings["samples"] <= res.timings["total"] + 1e-9

    def test_fingerprint_excludes_execution(self):
        """One config sampled under every execution shape — per call or
        through config.execution — yields one fingerprint and equal
        forests: the fingerprint is an execution-independent content
        identity."""
        g = gen.random_graph(20, 50, rng=18)
        base = self._cfg(seed=0)
        ref = Pipeline(g, base).sample_ensemble(k=3, seed=1)
        prints = {ref.fingerprint}
        for workers in (1, 2):
            for shard_size in (None, 1):
                for mode in (None, "batched"):
                    execution = ExecutionConfig(
                        mode=mode, workers=workers, shard_size=shard_size
                    )
                    per_call = Pipeline(g, base).sample_ensemble(
                        k=3, seed=1, execution=execution
                    )
                    configured = Pipeline(
                        g, self._cfg(seed=0, execution=execution)
                    ).sample_ensemble(k=3, seed=1)
                    for res in (per_call, configured):
                        prints.add(res.fingerprint)
                        _assert_same_forest(ref.forest, res.forest)
        assert len(prints) == 1

    def test_execution_config_from_pipeline_config(self):
        """config.execution drives sample_ensemble when no override given."""
        g = gen.random_graph(20, 50, rng=19)
        cfg = PipelineConfig(
            embedding=EmbeddingConfig(method="direct"),
            execution=ExecutionConfig(mode="batched", workers=2),
        )
        res = Pipeline(g, cfg).sample_ensemble(k=4, seed=16)
        baseline = Pipeline(g, self._cfg()).sample_ensemble(k=4, seed=16)
        _assert_same_result(baseline, res)
        assert res.meta["execution"]["workers"] == 2

    def test_save_result_with_workers(self, tmp_path):
        """Regression: a pooled offline build used to raise through the
        batched-mode guard; it must shard the build and persist arrays
        bit-identical to the in-process build."""
        g = gen.random_graph(24, 60, rng=21)
        p1, p2 = tmp_path / "one.rpz", tmp_path / "two.rpz"
        save_result(p1, Pipeline(g, self._cfg(seed=0)).sample_ensemble(4, seed=3))
        pooled = Pipeline(g, self._cfg(seed=0)).sample_ensemble(
            4, seed=3, execution=ExecutionConfig(workers=2)
        )
        meta = save_result(p2, pooled)
        one = load_result(p1)
        two = load_result(p2)
        _assert_same_forest(one.forest, two.forest)
        for a, b in zip(one, two):
            _assert_same_embedding(a, b)
        assert one.fingerprint == two.fingerprint == meta["fingerprint"]
