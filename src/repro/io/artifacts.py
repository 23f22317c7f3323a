"""Versioned, provenance-stamped serialization for pipeline artifacts.

Without it nothing survives the process: hop sets, oracles, and
:class:`~repro.frt.forest.FRTForest` ensembles are rebuilt from scratch
every run.  This module is the offline half of the offline-build /
online-serve split: the expensive stage outputs become *artifact files*
that a serving process (:mod:`repro.serve`) preloads once.  Saving a
sampled ensemble is ``save_result(path, pipe.sample_ensemble(k, seed=s))``
and reading it back ``load_result(path, mmap=...)``; there is no other
spelling.

**File format.**  One artifact is one uncompressed zip (the npz container
layout) written by this module directly, so every member's byte offset is
under our control:

- ``meta.json`` — schema name + version, artifact kind, a stable content
  :func:`content_fingerprint`, the producer's provenance dict, and a
  manifest of every array member (dtype + shape, validated on load);
- one ``<name>.npy`` member per array, stored (never deflated) in standard
  npy format.

**Kinds.**  ``"forest"`` (:func:`save_forest`, a stacked
:class:`~repro.frt.forest.FRTForest`) and ``"result"`` (:func:`save_result`,
a batched ``PipelineResult``).  Both carry a forest, so :func:`load_forest`
reads either; any other kind is rejected on open.

Because members are stored uncompressed, ``mmap=True`` loads map each
array's payload bytes straight out of the file
(:func:`numpy.memmap` at the member's data offset) — *zero copies* of the
stacked CSR arrays, pinned by a tracemalloc test.

**Loaded arrays are read-only in both modes.**  Memmapped members are
read-only by construction (``mode="r"``); in-memory loads are frozen
(``writeable=False`` via :func:`repro.util.freeze.freeze`) after
validation, so ``mmap=True`` and ``mmap=False`` expose *identical*
mutation semantics — a write through any loaded array raises
``ValueError`` either way, matching the repo-wide convention that
forests and trees are never mutated after construction.  ``.copy()`` an
array if a caller genuinely needs a private writable buffer.

**Schema discipline.**  ``meta.json`` carries ``schema``/``schema_version``;
loads reject unknown schemas, future versions, missing members, and any
dtype/shape that disagrees with the manifest — with errors that say what
was expected.  Bit-identity of a save→load round trip (arrays, per-tree
views, and query outputs) is pinned by ``tests/test_io_artifacts.py``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zipfile
from pathlib import Path

import numpy as np

from repro.frt.forest import FRTForest
from repro.mbf.dense import BatchedFlatStates
from repro.util.freeze import freeze

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactError",
    "SCHEMA",
    "SCHEMA_VERSION",
    "content_fingerprint",
    "load_forest",
    "load_result",
    "read_artifact_meta",
    "save_forest",
    "save_result",
]

#: Schema name stamped into (and required of) every artifact file.
SCHEMA = "repro-artifact"

#: Current schema version; loads reject any other value with a clear error.
SCHEMA_VERSION = 1

#: The artifact kinds this module writes and reads; both carry a forest.
ARTIFACT_KINDS = ("forest", "result")

_META_MEMBER = "meta.json"

# FRTForest array fields and their required dtypes; shapes are validated
# against the scalar header (n, size, k_max, total_nodes) on load.
_FOREST_FIELDS = (
    ("betas", "float64"),
    ("depths", "int64"),
    ("radii", "float64"),
    ("edge_weights", "float64"),
    ("cum_weights", "float64"),
    ("level_ids", "int64"),
    ("node_offsets", "int64"),
    ("parent", "int64"),
    ("node_level", "int64"),
    ("node_leading", "int64"),
)


class ArtifactError(ValueError):
    """A file failed artifact validation (corrupt, wrong schema/version,
    missing members, or dtype/shape mismatch)."""


# -- fingerprinting ------------------------------------------------------------


def content_fingerprint(
    payload,  # shape: scalar
) -> str:  # shape: -> scalar
    """Stable hex digest of a JSON-able payload (configs + seeds).

    The canonical content key for cache entries and artifact filenames:
    two payloads with equal *content* — regardless of dict ordering or
    object identity — hash identically (sha256 over the sorted-key,
    compact-separator JSON encoding).  Non-JSON-able payloads are a
    ``TypeError``: fingerprints must never depend on ``repr`` fallbacks.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _array_digest(arrays: dict) -> str:
    """Content hash over raw array bytes — the provenance-free fallback."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode("utf-8"))
        h.update(str(arr.dtype).encode("utf-8"))
        h.update(str(arr.shape).encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


# -- low-level container I/O ---------------------------------------------------


def _write_artifact(path, kind: str, header: dict, arrays: dict, provenance) -> dict:
    """Write one artifact zip; returns the meta dict that was stamped in."""
    provenance = dict(provenance or {})
    fingerprint = provenance.get("fingerprint") or _array_digest(arrays)
    meta = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "fingerprint": fingerprint,
        "provenance": provenance,
        "arrays": {
            name: {"dtype": str(arr.dtype), "shape": list(arr.shape)}
            for name, arr in arrays.items()
        },
        **header,
    }
    path = Path(path)
    # ZIP_STORED is load-bearing: memmap mode maps member payloads in
    # place, which only works when the bytes on disk are the array bytes.
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr(_META_MEMBER, json.dumps(meta, indent=2, sort_keys=True))
        for name, arr in arrays.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(
                    fh, np.ascontiguousarray(arr), allow_pickle=False
                )
    return meta


def _open_artifact(path) -> tuple[zipfile.ZipFile, dict]:
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"no artifact file at {path}")
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"{path} is not an artifact (bad container: {exc})") from exc
    try:
        raw = zf.read(_META_MEMBER)
    except KeyError:
        zf.close()
        raise ArtifactError(f"{path} has no {_META_MEMBER} member — not an artifact") from None
    try:
        meta = json.loads(raw)
    except json.JSONDecodeError as exc:
        zf.close()
        raise ArtifactError(f"{path}: corrupt {_META_MEMBER}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("schema") != SCHEMA:
        zf.close()
        raise ArtifactError(
            f"{path}: unknown schema {meta.get('schema') if isinstance(meta, dict) else meta!r} "
            f"(expected {SCHEMA!r})"
        )
    if meta.get("schema_version") != SCHEMA_VERSION:
        zf.close()
        raise ArtifactError(
            f"{path}: schema version {meta.get('schema_version')!r} is not "
            f"supported (this build reads version {SCHEMA_VERSION}); "
            "regenerate the artifact with the current repro.io"
        )
    if meta.get("kind") not in ARTIFACT_KINDS:
        zf.close()
        raise ArtifactError(
            f"{path}: unknown artifact kind {meta.get('kind')!r} "
            f"(expected one of {ARTIFACT_KINDS})"
        )
    return zf, meta


def _memmap_member(path: Path, zf: zipfile.ZipFile, member: str) -> np.ndarray:
    """Map one stored ``.npy`` member's payload directly from the file."""
    info = zf.getinfo(member)
    if info.compress_type != zipfile.ZIP_STORED:
        raise ArtifactError(
            f"{path}: member {member} is compressed — memmap load needs the "
            "stored (uncompressed) layout repro.io writes"
        )
    with open(path, "rb") as fh:
        # The central directory's sizes can disagree with the local header's
        # name/extra lengths (zip64 padding), so read the local header.
        fh.seek(info.header_offset)
        local = fh.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise ArtifactError(f"{path}: corrupt local header for {member}")
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        fh.seek(info.header_offset + 30 + name_len + extra_len)
        try:
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                raise ArtifactError(
                    f"{path}: {member} uses npy format {version}, "
                    "expected (1, 0) or (2, 0)"
                )
        except ValueError as exc:
            raise ArtifactError(f"{path}: corrupt npy header in {member}: {exc}") from exc
        if fortran:
            raise ArtifactError(f"{path}: {member} is Fortran-ordered; artifacts are C-ordered")
        offset = fh.tell()
    if int(np.prod(shape)) == 0:
        return freeze(np.empty(shape, dtype=dtype))
    return np.memmap(path, mode="r", dtype=dtype, shape=shape, offset=offset)


def _read_arrays(path, zf: zipfile.ZipFile, meta: dict, mmap: bool) -> dict:
    """Read (or map) every manifest array, validating dtype and shape."""
    manifest = meta.get("arrays")
    if not isinstance(manifest, dict) or not manifest:
        raise ArtifactError(f"{path}: meta.json lacks an array manifest")
    members = set(zf.namelist())
    arrays: dict[str, np.ndarray] = {}
    for name, spec in manifest.items():
        member = name + ".npy"
        if member not in members:
            raise ArtifactError(f"{path}: manifest array {name!r} has no {member} member")
        if mmap:
            arr = _memmap_member(Path(path), zf, member)
        else:
            with zf.open(member) as fh:
                try:
                    arr = np.lib.format.read_array(fh, allow_pickle=False)
                except ValueError as exc:
                    raise ArtifactError(f"{path}: corrupt array member {member}: {exc}") from exc
        if str(arr.dtype) != spec.get("dtype"):
            raise ArtifactError(
                f"{path}: array {name!r} has dtype {arr.dtype}, "
                f"manifest declares {spec.get('dtype')!r}"
            )
        if list(arr.shape) != list(spec.get("shape", [])):
            raise ArtifactError(
                f"{path}: array {name!r} has shape {list(arr.shape)}, "
                f"manifest declares {spec.get('shape')}"
            )
        # Both load modes hand out read-only arrays: memmaps are mode="r"
        # already; in-memory arrays are frozen here, after validation.
        arrays[name] = freeze(arr)
    return arrays


def read_artifact_meta(
    path,  # shape: scalar
) -> dict:  # shape: -> scalar
    """The artifact's ``meta.json`` (schema, kind, fingerprint, provenance,
    array manifest) — without touching any array member.

    The cheap way to inspect provenance or route on ``meta["kind"]``
    before deciding how (or whether) to load the payload.
    """
    zf, meta = _open_artifact(path)
    zf.close()
    return meta


# -- forests -------------------------------------------------------------------


def save_forest(
    path,  # shape: scalar
    forest: FRTForest,
    *,
    provenance: dict | None = None,  # shape: scalar
) -> dict:  # shape: -> scalar
    """Persist an :class:`~repro.frt.forest.FRTForest` as one artifact file.

    ``provenance`` (typically ``PipelineResult.meta``) is stamped into
    ``meta.json`` verbatim; its ``fingerprint`` — the configs+seeds hash
    the pipeline computes — becomes the artifact fingerprint, falling back
    to a digest of the array bytes when absent.  Returns the written meta
    dict.  The save→load round trip is bit-identical (arrays, per-tree
    views, query outputs); see :func:`load_forest`.
    """
    if not isinstance(forest, FRTForest):
        raise TypeError(f"expected an FRTForest, got {type(forest)!r}")
    header, arrays = _forest_payload(forest)
    return _write_artifact(path, "forest", header, arrays, provenance)


def _forest_payload(forest: FRTForest) -> tuple[dict, dict]:
    """The ``forest`` header and ``forest/*`` array members of an artifact."""
    header = {
        "forest": {
            "n": int(forest.n),
            "size": int(forest.size),
            "k_max": int(forest.k_max),
            "scale": float(forest.scale),
        }
    }
    return header, {f"forest/{name}": getattr(forest, name) for name, _ in _FOREST_FIELDS}


def _forest_from_arrays(path, meta: dict, arrays: dict) -> FRTForest:
    """Validate the forest header + arrays and assemble the dataclass."""
    head = meta.get("forest")
    if not isinstance(head, dict):
        raise ArtifactError(f"{path}: missing 'forest' header in meta.json")
    try:
        n, size, k_max = int(head["n"]), int(head["size"]), int(head["k_max"])
        scale = float(head["scale"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: bad forest header: {exc}") from exc
    if n < 1 or size < 1 or k_max < 1 or scale <= 0:
        raise ArtifactError(
            f"{path}: forest header out of range (n={n}, size={size}, "
            f"k_max={k_max}, scale={scale})"
        )
    fields: dict[str, np.ndarray] = {}
    for name, dtype in _FOREST_FIELDS:
        arr = arrays.get(f"forest/{name}")
        if arr is None:
            raise ArtifactError(f"{path}: forest artifact lacks array {name!r}")
        if str(arr.dtype) != dtype:
            raise ArtifactError(
                f"{path}: forest array {name!r} must be {dtype}, got {arr.dtype}"
            )
        fields[name] = arr
    total_nodes = fields["parent"].shape[0]
    expected = {
        "betas": (size,),
        "depths": (size,),
        "radii": (size, k_max + 1),
        "edge_weights": (size, k_max),
        "cum_weights": (size, k_max + 1),
        "level_ids": (size, n, k_max + 1),
        "node_offsets": (size + 1,),
        "parent": (total_nodes,),
        "node_level": (total_nodes,),
        "node_leading": (total_nodes,),
    }
    for name, want in expected.items():
        if fields[name].shape != want:
            raise ArtifactError(
                f"{path}: forest array {name!r} has shape {fields[name].shape}, "
                f"expected {want} for (n={n}, size={size}, k_max={k_max})"
            )
    # Structural checks on the *small* arrays only: memmap loads must not
    # be forced to fault in the stacked CSR payload just to validate.
    depths = np.asarray(fields["depths"])
    if depths.min() < 1 or depths.max() != k_max:
        raise ArtifactError(
            f"{path}: depths must lie in [1, k_max={k_max}] and attain k_max"
        )
    offsets = np.asarray(fields["node_offsets"])
    if offsets[0] != 0 or offsets[-1] != total_nodes or np.any(np.diff(offsets) <= 0):
        raise ArtifactError(
            f"{path}: node_offsets must rise from 0 to total_nodes={total_nodes}"
        )
    betas = np.asarray(fields["betas"])
    # Written so that NaN fails it too.
    if not np.all((betas >= 1.0) & (betas < 2.0)):
        raise ArtifactError(f"{path}: betas must lie in [1, 2)")
    return FRTForest(n=n, size=size, k_max=k_max, scale=scale, **fields)


def load_forest(
    path,  # shape: scalar
    *,
    mmap: bool = False,  # shape: scalar
) -> FRTForest:  # shape: -> object view
    """Load a forest artifact (kind ``"forest"`` or ``"result"``).

    ``mmap=True`` maps the stacked arrays read-only straight out of the
    file — no copy of the CSR payload is materialized (pinned by a
    tracemalloc test), so cold-starting a server over a multi-GB ensemble
    costs file-open time, not array-read time.  Every load validates the
    schema version and each array's dtype/shape against the manifest.
    The loaded arrays are read-only in *both* modes (in-memory loads are
    frozen after validation), so a write through the forest raises
    ``ValueError`` instead of depending on how the artifact was opened.
    """
    zf, meta = _open_artifact(path)
    try:
        manifest = meta.get("arrays", {})
        if not isinstance(manifest, dict):
            raise ArtifactError(f"{path}: meta.json lacks an array manifest")
        wanted = {n: s for n, s in manifest.items() if n.startswith("forest/")}
        sub = dict(meta, arrays=wanted)
        arrays = _read_arrays(path, zf, sub, mmap)
    finally:
        zf.close()
    return _forest_from_arrays(path, meta, arrays)


# -- pipeline results ----------------------------------------------------------


def save_result(
    path,  # shape: scalar
    result,  # shape: scalar
    *,
    provenance: dict | None = None,  # shape: scalar
) -> dict:  # shape: -> scalar
    """Persist a :class:`~repro.api.result.PipelineResult` ensemble.

    Writes the result's stacked arrays as they are: the forest, the
    ``(k, n)`` ranks, the LE lists (one
    :class:`~repro.mbf.dense.BatchedFlatStates` CSR block), iteration
    counts, ledger totals, stage timings, and the full provenance ``meta``
    — enough that :func:`load_result` reconstructs a ``PipelineResult``
    whose arrays, per-sample views, and ensemble query outputs are
    bit-identical.

    ``provenance`` defaults to ``result.meta``; pass an override to stamp
    extra context without mutating the result.  Per-phase ledger traces
    are not preserved — only the work/depth totals round-trip.
    """
    size, lists = result.size, result.le_lists
    header, arrays = _forest_payload(result.forest)
    header["result"] = {
        "size": size,
        "timings": dict(result.timings),
        "ledger": {"work": int(result.ledger.work), "depth": int(result.ledger.depth)},
        "ledgers": [
            {"work": int(led.work), "depth": int(led.depth)} for led in result.ledgers
        ],
        "embedding_meta": [dict(result.embedding_meta) for _ in range(size)],
    }
    arrays["result/ranks"] = np.asarray(result.ranks, dtype=np.int64)
    arrays["result/iterations"] = np.asarray(result.iterations, dtype=np.int64)
    arrays["lelists/offsets"] = np.asarray(lists.offsets, dtype=np.int64)
    arrays["lelists/ids"] = np.asarray(lists.ids, dtype=np.int64)
    arrays["lelists/dists"] = np.asarray(lists.dists, dtype=np.float64)
    prov = provenance if provenance is not None else result.meta
    return _write_artifact(path, "result", header, arrays, prov)


def load_result(
    path,  # shape: scalar
    *,
    mmap: bool = False,  # shape: scalar
):  # shape: -> object view
    """Rebuild a :class:`~repro.api.result.PipelineResult` from an artifact.

    The inverse of :func:`save_result`: the forest, ranks and LE-list CSR
    arrays become the result's stacked fields as loaded, and the ledgers
    work/depth totals.  No per-sample copies are made: ``mmap=True`` maps
    every stacked array read-only from the file, and the per-sample
    :attr:`~repro.api.result.PipelineResult.embeddings` views are built
    only when first accessed.  In-memory loads freeze the same arrays
    after validation, so both modes reject in-place writes identically.
    """
    # Local imports: repro.api imports this module's savers via the facade.
    from repro.api.result import PipelineResult
    from repro.pram.cost import CostLedger

    zf, meta = _open_artifact(path)
    try:
        if meta["kind"] != "result":
            raise ArtifactError(
                f"{path}: kind {meta['kind']!r} is not a 'result' artifact"
            )
        arrays = _read_arrays(path, zf, meta, mmap)
    finally:
        zf.close()
    forest = _forest_from_arrays(path, meta, arrays)
    head = meta.get("result")
    if not isinstance(head, dict):
        raise ArtifactError(f"{path}: missing 'result' header in meta.json")
    size = forest.size
    for name in ("result/ranks", "result/iterations", "lelists/offsets",
                 "lelists/ids", "lelists/dists"):
        if name not in arrays:
            raise ArtifactError(f"{path}: result artifact lacks array {name!r}")
    ranks = arrays["result/ranks"]
    iterations = arrays["result/iterations"]
    if ranks.shape != (size, forest.n) or iterations.shape != (size,):
        raise ArtifactError(
            f"{path}: ranks/iterations shapes {ranks.shape}/{iterations.shape} "
            f"do not match {size} samples over n={forest.n}"
        )
    offsets = arrays["lelists/offsets"]
    if offsets.shape != (size * forest.n + 1,):
        raise ArtifactError(
            f"{path}: LE-list offsets shape {offsets.shape} does not match "
            f"csr({size}*{forest.n})"
        )
    lists = BatchedFlatStates(
        k=size,
        n=forest.n,
        offsets=offsets,
        ids=arrays["lelists/ids"],
        dists=arrays["lelists/dists"],
    )
    emb_meta = head.get("embedding_meta") or [{} for _ in range(size)]
    if len(emb_meta) != size:
        raise ArtifactError(f"{path}: embedding_meta length != {size} samples")
    if any(m != emb_meta[0] for m in emb_meta):
        raise ArtifactError(f"{path}: embedding_meta differs between samples")
    led = head.get("ledger", {})
    merged = CostLedger(work=int(led.get("work", 0)), depth=int(led.get("depth", 0)))
    ledgers = [
        CostLedger(work=int(d.get("work", 0)), depth=int(d.get("depth", 0)))
        for d in head.get("ledgers", [])
    ]
    return PipelineResult(
        forest=forest,
        le_lists=lists,
        ranks=ranks,
        iterations=iterations,
        ledgers=ledgers,
        ledger=merged,
        timings=dict(head.get("timings", {})),
        meta=dict(meta.get("provenance", {})),
        embedding_meta=dict(emb_meta[0]),
    )
