"""Artifact round-trip suite (repro.io.artifacts).

The contract under test: ``save_*`` → ``load_*`` is *bit-identical* —
every stacked array, every per-tree view, every query output — in both
in-memory and memmap mode; memmap loads map the CSR payload instead of
copying it; and anything that is not a valid current-schema artifact is
rejected with an :class:`~repro.io.artifacts.ArtifactError` that says
why.
"""

import dataclasses
import json
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.api import EmbeddingConfig, Pipeline, PipelineConfig
from repro.graph import generators as gen
from repro.graph.core import Graph
from repro.io import (
    SCHEMA_VERSION,
    ArtifactError,
    content_fingerprint,
    load_forest,
    load_result,
    read_artifact_meta,
    save_forest,
    save_result,
)
from tests.frt_reference import assert_forests_equal

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


def _pipeline(n=40, *, seed=11, graph_rng=3, wmax=8.0):
    g = gen.random_graph(n, rng=graph_rng, wmin=1.0, wmax=wmax)
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=seed)
    return Pipeline(g, cfg)


def _result(n=40, k=5, *, seed=11, batch_seed=7, wmax=8.0):
    return _pipeline(n, seed=seed, wmax=wmax).sample_ensemble(k, seed=batch_seed)


def _assert_forest_identical(got, want):
    assert got.n == want.n
    assert got.size == want.size
    assert got.k_max == want.k_max
    assert got.scale == want.scale
    for name in FOREST_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def _query_pairs(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, 25), rng.integers(0, n, 25)


# -- forest round trips --------------------------------------------------------


@pytest.mark.parametrize("mmap", [False, True], ids=["inmem", "mmap"])
@pytest.mark.parametrize("k", [1, 5], ids=["k1", "k5"])
def test_forest_round_trip_bit_identical(tmp_path, k, mmap):
    """Arrays, per-tree views, and query outputs survive save→load exactly.

    ``k=1`` (a one-sample forest) and ``k=5`` (non-power-of-two) cover the
    degenerate and ragged ends of the stacked layout.
    """
    forest = _result(40, k).forest
    path = tmp_path / "forest.rpz"
    save_forest(path, forest)
    loaded = load_forest(path, mmap=mmap)
    _assert_forest_identical(loaded, forest)
    for s in range(forest.size):
        assert_forests_equal(loaded.tree(s), forest.tree(s))
    us, vs = _query_pairs(40)
    assert np.array_equal(forest.distances(us, vs), loaded.distances(us, vs))
    assert np.array_equal(
        forest.distance_upper_bounds(us, vs), loaded.distance_upper_bounds(us, vs)
    )
    assert np.array_equal(
        forest.median_distances(us, vs), loaded.median_distances(us, vs)
    )


def test_forest_round_trip_ragged_depths(tmp_path):
    """A wide weight range makes per-sample depths differ — the padded
    stacked layout (and its validation) must survive raggedness."""
    forest = _result(48, 6, wmax=64.0).forest
    assert forest.depths.min() < forest.depths.max(), "fixture not ragged"
    path = tmp_path / "ragged.rpz"
    save_forest(path, forest)
    for mmap in (False, True):
        _assert_forest_identical(load_forest(path, mmap=mmap), forest)


def test_forest_round_trip_single_vertex(tmp_path):
    """n=1: the smallest legal forest (one leaf per sample) round-trips."""
    g = Graph(1, np.empty((0, 2), dtype=np.int64), np.empty(0))
    pipe = Pipeline(g, PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=0))
    forest = pipe.sample_ensemble(3, seed=1).forest
    path = tmp_path / "one.rpz"
    save_forest(path, forest)
    loaded = load_forest(path, mmap=True)
    _assert_forest_identical(loaded, forest)
    assert np.array_equal(forest.distances([0], [0]), loaded.distances([0], [0]))


def test_memmap_load_does_not_copy_csr_arrays(tmp_path):
    """The acceptance pin: mmap=True maps the stacked arrays read-only.

    Two independent witnesses: the loaded arrays *are* ``np.memmap``
    instances backed by the artifact file, and the Python-side allocation
    delta across the load is a small fraction of the payload nbytes.
    """
    forest = _result(256, 12).forest
    payload = sum(getattr(forest, n).nbytes for n in FOREST_ARRAYS)
    assert payload > 1 << 18, "fixture too small to witness a copy"
    path = tmp_path / "big.rpz"
    save_forest(path, forest)

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    loaded = load_forest(path, mmap=True)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    for name in ("level_ids", "radii", "edge_weights", "cum_weights", "parent"):
        arr = getattr(loaded, name)
        assert isinstance(arr, np.memmap), f"{name} was materialized"
        assert not arr.flags.writeable
    # Allocation overhead is headers + small arrays, never the payload.
    assert after - before < payload / 10
    # ... and the mapped arrays still read back bit-identically.
    assert np.array_equal(loaded.level_ids, forest.level_ids)


def test_in_memory_load_is_read_only_like_mmap(tmp_path):
    """mmap=False and mmap=True expose identical mutation semantics."""
    forest = _result(32, 3).forest
    path = tmp_path / "f.rpz"
    save_forest(path, forest)
    loaded = load_forest(path)
    assert not isinstance(loaded.level_ids, np.memmap)
    for name in ("betas", "depths", "radii", "edge_weights", "cum_weights",
                 "level_ids", "node_offsets", "parent", "node_level",
                 "node_leading"):
        arr = getattr(loaded, name)
        assert not arr.flags.writeable, f"{name} is writable after load"
    with pytest.raises(ValueError):
        loaded.level_ids[0, 0, 0] = -1
    # A private writable buffer is one explicit copy away.
    assert loaded.radii.copy().flags.writeable


# -- result round trips --------------------------------------------------------


@pytest.mark.parametrize("mmap", [False, True], ids=["inmem", "mmap"])
def test_result_round_trip(tmp_path, mmap):
    """PipelineResult: stacked arrays, embeddings, ledgers, timings, meta."""
    result = _result(40, 5)
    path = tmp_path / "result.rpz"
    save_result(path, result)
    loaded = load_result(path, mmap=mmap)
    assert np.array_equal(loaded.ranks, result.ranks)
    assert loaded.le_lists.equals(result.le_lists)
    assert loaded.iterations == result.iterations
    assert loaded.embedding_meta == result.embedding_meta
    assert len(loaded.embeddings) == len(result.embeddings)
    for e0, e1 in zip(result.embeddings, loaded.embeddings):
        assert np.array_equal(e0.rank, e1.rank)
        assert e0.beta == e1.beta
        assert e0.iterations == e1.iterations
        assert e0.le_lists.equals(e1.le_lists)
        assert e0.meta == e1.meta
    _assert_forest_identical(loaded.forest, result.forest)
    assert loaded.meta == result.meta
    assert loaded.timings == result.timings
    assert loaded.ledger.work == result.ledger.work
    assert loaded.ledger.depth == result.ledger.depth
    assert [(led.work, led.depth) for led in loaded.ledgers] == [
        (led.work, led.depth) for led in result.ledgers
    ]
    us, vs = _query_pairs(40, seed=4)
    assert np.array_equal(
        result.forest.median_distances(us, vs),
        loaded.forest.median_distances(us, vs),
    )


def test_result_mmap_load_keeps_lists_mapped(tmp_path):
    """load_result(mmap=True) maps the stacked LE lists and ranks from the
    file and makes no per-sample copies: the embeddings views are built
    only on first access."""
    result = _result(512, 12)
    lists = result.le_lists
    payload = lists.offsets.nbytes + lists.ids.nbytes + lists.dists.nbytes
    assert payload > 1 << 18, "fixture too small to witness a copy"
    path = tmp_path / "big.rpz"
    save_result(path, result)

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    loaded = load_result(path, mmap=True)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    for arr in (loaded.le_lists.offsets, loaded.le_lists.ids, loaded.le_lists.dists,
                loaded.ranks):
        assert isinstance(arr, np.memmap)
        assert not arr.flags.writeable
    assert "embeddings" not in vars(loaded)
    assert after - before < payload / 10
    assert loaded.le_lists.equals(lists)
    assert loaded.embeddings[3].le_lists.equals(lists.sample_states(3))


def test_result_load_rejects_per_sample_embedding_meta(tmp_path):
    path = tmp_path / "r.rpz"
    save_result(path, _result(24, 2))
    _rewrite_meta(
        path, lambda m: m["result"]["embedding_meta"][1].update(pipeline="oracle")
    )
    with pytest.raises(ArtifactError, match="embedding_meta"):
        load_result(path)


def test_load_result_round_trip_is_read_only(tmp_path, monkeypatch):
    """A rehydrated result exposes only read-only storage, in freeze mode
    and out of it — loads are frozen unconditionally."""
    monkeypatch.setenv("REPRO_FREEZE", "1")
    pipe = _pipeline(24)
    path = tmp_path / "ens.rpz"
    save_result(path, pipe.sample_ensemble(3, seed=5))
    loaded = load_result(path)
    assert not loaded.forest.level_ids.flags.writeable
    with pytest.raises(ValueError):
        loaded.forest.level_ids[0, 0, 0] = -1
    tree = loaded.forest.tree(0)
    with pytest.raises(ValueError):
        tree.radii[0, 0] = -1.0
    # Frozen storage still answers queries normally.
    us, vs = _query_pairs(24, seed=2)
    assert loaded.forest.distances(us, vs).shape == (3, us.size)


def test_offline_build_save_and_load_result(tmp_path):
    """The offline build step: save_result of a sampled ensemble, read
    back by load_result."""
    pipe = _pipeline(32)
    path = tmp_path / "ens.rpz"
    meta = save_result(path, pipe.sample_ensemble(4, seed=9))
    assert meta["kind"] == "result"
    loaded = load_result(path, mmap=True)
    assert loaded.size == 4
    assert loaded.fingerprint == meta["fingerprint"]
    reference = _pipeline(32).sample_ensemble(4, seed=9)
    us, vs = _query_pairs(32, seed=1)
    assert np.array_equal(
        reference.forest.distances(us, vs), loaded.forest.distances(us, vs)
    )


# -- provenance + fingerprinting -----------------------------------------------


def test_content_fingerprint_is_order_insensitive_and_content_sensitive():
    a = content_fingerprint({"seed": 7, "config": {"eps": 0.25}})
    b = content_fingerprint({"config": {"eps": 0.25}, "seed": 7})
    c = content_fingerprint({"config": {"eps": 0.25}, "seed": 8})
    assert a == b
    assert a != c
    with pytest.raises(TypeError):
        content_fingerprint({"oops": object()})


def test_pipeline_fingerprint_depends_on_configs_and_seeds_only():
    r1 = _result(32, 3, seed=11, batch_seed=7)
    r2 = _result(32, 3, seed=11, batch_seed=7)
    r3 = _result(32, 3, seed=11, batch_seed=8)
    assert r1.fingerprint is not None
    assert r1.fingerprint == r2.fingerprint
    assert r1.fingerprint != r3.fingerprint


def test_artifact_meta_carries_provenance(tmp_path):
    result = _result(28, 3)
    path = tmp_path / "r.rpz"
    save_result(path, result)
    meta = read_artifact_meta(path)
    assert meta["schema_version"] == SCHEMA_VERSION
    assert meta["fingerprint"] == result.fingerprint
    assert meta["provenance"]["config"] == result.meta["config"]
    assert meta["arrays"]["forest/level_ids"]["dtype"] == "int64"


def test_forest_fingerprint_falls_back_to_array_digest(tmp_path):
    forest = _result(24, 2).forest
    p1, p2 = tmp_path / "a.rpz", tmp_path / "b.rpz"
    m1 = save_forest(p1, forest)
    m2 = save_forest(p2, forest)
    assert m1["fingerprint"] == m2["fingerprint"]  # content, not identity


# -- rejection of bad files ----------------------------------------------------


def _forest_artifact(tmp_path):
    path = tmp_path / "f.rpz"
    save_forest(path, _result(24, 2).forest)
    return path


def _rewrite_meta(path, mutate):
    """Rewrite an artifact with a mutated meta.json (same array members)."""
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
        members = {
            name: zf.read(name) for name in zf.namelist() if name != "meta.json"
        }
    mutate(meta)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr("meta.json", json.dumps(meta))
        for name, blob in members.items():
            zf.writestr(name, blob)


def test_rejects_missing_and_non_zip_files(tmp_path):
    with pytest.raises(ArtifactError, match="no artifact file"):
        load_forest(tmp_path / "absent.rpz")
    junk = tmp_path / "junk.rpz"
    junk.write_bytes(b"this is not a zip file at all")
    with pytest.raises(ArtifactError, match="bad container"):
        load_forest(junk)


def test_rejects_zip_without_meta(tmp_path):
    path = tmp_path / "bare.rpz"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("something.npy", b"xx")
    with pytest.raises(ArtifactError, match="meta.json"):
        read_artifact_meta(path)


def test_rejects_unknown_schema_and_future_version(tmp_path):
    path = _forest_artifact(tmp_path)
    _rewrite_meta(path, lambda m: m.update(schema="other-format"))
    with pytest.raises(ArtifactError, match="unknown schema"):
        load_forest(path)
    path2 = _forest_artifact(tmp_path)
    _rewrite_meta(path2, lambda m: m.update(schema_version=SCHEMA_VERSION + 1))
    with pytest.raises(ArtifactError, match="not\\s+supported"):
        load_forest(path2)


def test_rejects_wrong_kind(tmp_path):
    # A kind this build does not write (such as the retired "metric" kind)
    # is rejected on open, before any array is read.
    path = _forest_artifact(tmp_path)
    _rewrite_meta(path, lambda m: m.update(kind="metric"))
    with pytest.raises(ArtifactError, match="unknown artifact kind 'metric'"):
        load_forest(path)
    with pytest.raises(ArtifactError, match="unknown artifact kind 'metric'"):
        load_result(path)
    fpath = _forest_artifact(tmp_path)
    with pytest.raises(ArtifactError, match="not a 'result'"):
        load_result(fpath)


def test_rejects_manifest_shape_and_dtype_mismatch(tmp_path):
    path = _forest_artifact(tmp_path)
    _rewrite_meta(
        path, lambda m: m["arrays"]["forest/betas"].update(shape=[999])
    )
    with pytest.raises(ArtifactError, match="manifest declares"):
        load_forest(path)
    path2 = _forest_artifact(tmp_path)
    _rewrite_meta(
        path2, lambda m: m["arrays"]["forest/depths"].update(dtype="int32")
    )
    with pytest.raises(ArtifactError, match="manifest declares"):
        load_forest(path2)


def test_rejects_missing_array_member(tmp_path):
    path = _forest_artifact(tmp_path)
    with zipfile.ZipFile(path) as zf:
        meta = zf.read("meta.json")
        members = {
            n: zf.read(n)
            for n in zf.namelist()
            if n not in ("meta.json", "forest/betas.npy")
        }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr("meta.json", meta)
        for name, blob in members.items():
            zf.writestr(name, blob)
    with pytest.raises(ArtifactError, match="no forest/betas.npy member"):
        load_forest(path)


def test_rejects_truncated_array_member(tmp_path):
    path = _forest_artifact(tmp_path)
    with zipfile.ZipFile(path) as zf:
        meta = zf.read("meta.json")
        members = {n: zf.read(n) for n in zf.namelist() if n != "meta.json"}
    members["forest/level_ids.npy"] = members["forest/level_ids.npy"][:64]
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr("meta.json", meta)
        for name, blob in members.items():
            zf.writestr(name, blob)
    with pytest.raises(ArtifactError):
        load_forest(path)


def test_rejects_compressed_member_in_mmap_mode(tmp_path):
    path = _forest_artifact(tmp_path)
    with zipfile.ZipFile(path) as zf:
        meta = zf.read("meta.json")
        members = {n: zf.read(n) for n in zf.namelist() if n != "meta.json"}
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("meta.json", meta)
        for name, blob in members.items():
            zf.writestr(name, blob)
    with pytest.raises(ArtifactError, match="compressed"):
        load_forest(path, mmap=True)
    # ... but the in-memory path still reads deflated members fine.
    _assert_forest_identical(load_forest(path), load_forest(path, mmap=False))


def test_rejects_nan_betas(tmp_path):
    """Regression: a forest whose betas hold NaN saved, loaded, and answered
    queries; the NaN passed the [1, 2) range check."""
    forest = _result(24, 2).forest
    path = tmp_path / "nan.rpz"
    save_forest(path, dataclasses.replace(forest, betas=np.array([np.nan, 1.5])))
    for mmap in (False, True):
        with pytest.raises(ArtifactError, match="betas must lie in"):
            load_forest(path, mmap=mmap)


def test_rejects_inconsistent_forest_header(tmp_path):
    path = _forest_artifact(tmp_path)
    _rewrite_meta(path, lambda m: m["forest"].update(n=7))
    with pytest.raises(ArtifactError, match="expected"):
        load_forest(path)
