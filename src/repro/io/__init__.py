"""Versioned, provenance-stamped artifact serialization (offline half).

``repro.io`` turns the expensive pipeline outputs — stacked
:class:`~repro.frt.forest.FRTForest` ensembles (kind ``"forest"``) and
batched ``PipelineResult``s (kind ``"result"``) — into schema-versioned
files that :mod:`repro.serve` preloads once and queries many times.  See
:mod:`repro.io.artifacts` for the file format and the zero-copy
``mmap=True`` load path.
"""

from repro.io.artifacts import (
    ARTIFACT_KINDS,
    SCHEMA,
    SCHEMA_VERSION,
    ArtifactError,
    content_fingerprint,
    load_forest,
    load_result,
    read_artifact_meta,
    save_forest,
    save_result,
)

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
