"""Frozen, validated stage configurations for the :mod:`repro.api` pipeline.

Each stage of the paper's pipeline — hop set (Section 1.2/DESIGN.md §2),
simulated-graph oracle (Sections 4-5), FRT embedding (Section 7) — gets one
immutable config dataclass, composed into :class:`PipelineConfig`.  All
configs validate eagerly in ``__post_init__`` and round-trip through plain
dicts (``to_dict`` / ``from_dict``) so experiment definitions can live in
JSON/YAML provenance records.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field, fields

__all__ = [
    "HopsetConfig",
    "OracleConfig",
    "EmbeddingConfig",
    "ExecutionConfig",
    "PipelineConfig",
    "HOPSET_KINDS",
    "EMBEDDING_METHODS",
]

HOPSET_KINDS = ("hub", "identity", "exact-closure")
EMBEDDING_METHODS = ("oracle", "direct")


def _as_int(name: str, value) -> int:
    """``value`` as the Python int it equals, so each integer value has one
    config dict and one fingerprint (a NumPy integer becomes that int); a
    ``bool`` or a non-integer raises ``TypeError`` before any work runs."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an int, got {value!r}") from None


class _ConfigBase:
    """Shared dict round-tripping for the flat (non-nested) configs."""

    def to_dict(self) -> dict:
        """A plain, JSON-serializable dict of all fields."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild from :meth:`to_dict` output; unknown keys are an error."""
        if not isinstance(data, dict):
            raise TypeError(f"{cls.__name__}.from_dict expects a dict, got {type(data)!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} keys: {sorted(unknown)} (known: {sorted(known)})"
            )
        return cls(**data)


@dataclass(frozen=True)
class HopsetConfig(_ConfigBase):
    """How to build the ``(d, eps)``-hop set (stage 1).

    Parameters
    ----------
    kind:
        ``"hub"`` — Ullman-Yannakakis-style hub sampling
        (:func:`~repro.hopsets.skeleton.hub_hopset`, the default);
        ``"identity"`` — no extra edges, ``d = SPD(G)`` baseline;
        ``"exact-closure"`` — the full metric clique (``d = 1``, Ω(n²)).
    d0:
        Segment length for ``kind="hub"`` (``None`` = ``~sqrt(n ln n)``);
        not applicable to the other kinds (identity measures ``SPD(G)``,
        the closure is ``d = 1``), where a non-``None`` value is rejected.
    eps:
        Rounding granularity, finite and ``>= 0``: shortcut weights are
        rounded up to powers of ``1 + eps``
        (:func:`~repro.hopsets.rounded.rounded_hopset`), which makes the
        Section-4 level machinery load-bearing.  ``0`` keeps the exact
        construction.  Ignored for ``kind="identity"`` (no shortcuts).
    c:
        Hub sampling oversampling constant, finite and ``>= 1``
        (``kind="hub"`` only).
    """

    kind: str = "hub"
    d0: int | None = None
    eps: float = 0.25
    c: float = 2.0

    def __post_init__(self):
        if self.kind not in HOPSET_KINDS:
            raise ValueError(f"hopset kind must be one of {HOPSET_KINDS}, got {self.kind!r}")
        for name in ("eps", "c"):
            # A bool would build the same hop set as 1.0 under a different
            # fingerprint.
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"hopset {name} must be a number, got a bool")
        if self.d0 is not None:
            object.__setattr__(self, "d0", _as_int("hopset d0", self.d0))
            if self.d0 < 1:
                raise ValueError("hopset d0 must be >= 1 (or None for the default)")
            if self.kind != "hub":
                raise ValueError(
                    f"d0 only applies to kind='hub' (got kind={self.kind!r}); "
                    "identity measures SPD(G) and exact-closure is d = 1"
                )
        # NaN fails every comparison, so each bound is written to be true
        # only for good values.
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"hopset eps must be non-negative and finite, got {self.eps!r}")
        if not (math.isfinite(self.c) and self.c >= 1):
            raise ValueError(f"hopset sampling constant c must be finite and >= 1, got {self.c!r}")


@dataclass(frozen=True)
class OracleConfig(_ConfigBase):
    """How to run MBF-like queries on the simulated graph ``H`` (stage 2).

    Parameters
    ----------
    penalty_base:
        The level penalty base of Section 4, finite and ``>= 1``; ``None``
        defaults to ``1 + eps`` of the hop set (the Theorem 4.5 requirement).
        Explicit values below ``1 + eps`` of the built hop set are
        rejected at oracle-build time — the reported stretch bound would
        not hold (use :class:`repro.simulated.SimulatedGraph` directly
        for below-bound ablations).
    inner_early_exit:
        Stop each inner ``d``-chain at its fixpoint (lossless; see
        :mod:`repro.oracle.oracle`).  Disable to reproduce the paper's
        literal ``(Λ+1)·d`` cost.
    """

    penalty_base: float | None = None
    inner_early_exit: bool = True

    def __post_init__(self):
        base = self.penalty_base
        if base is not None and not (math.isfinite(base) and base >= 1.0):
            raise ValueError(f"oracle penalty_base must be finite and >= 1 (or None), got {base!r}")


@dataclass(frozen=True)
class EmbeddingConfig(_ConfigBase):
    """How to sample FRT trees (stage 3).

    Parameters
    ----------
    method:
        ``"oracle"`` — LE lists on the simulated graph ``H`` through the
        Section-5 oracle (polylog iterations; the paper's main pipeline);
        ``"direct"`` — LE lists on ``G`` itself (``SPD(G)`` iterations, the
        Khan-et-al. regime, on the dense engine).
    """

    method: str = "oracle"

    def __post_init__(self):
        if self.method not in EMBEDDING_METHODS:
            raise ValueError(
                f"embedding method must be one of {EMBEDDING_METHODS}, got {self.method!r}"
            )


@dataclass(frozen=True)
class ExecutionConfig(_ConfigBase):
    """*How* to run the ensemble — never *what* it computes.

    Every ensemble runs the fused batched engine over contiguous shards of
    the sample axis.  Execution knobs are deliberately separated from the
    stage configs: every combination of ``workers`` / ``shard_size``
    produces bit-identical results (per-sample child generators are
    spawned before any fan-out, and the shard concat re-stacks the
    per-shard arrays to the exact one-shard layout), so this config is
    *excluded* from the provenance fingerprint stamped on results and
    artifacts.

    Parameters
    ----------
    mode:
        Accepted spelling only: ``None`` (default) or ``"batched"``, which
        is what every ensemble runs.  ``"serial"`` is rejected; its memory
        profile is ``shard_size=1``.
    workers:
        Process-pool width.  ``1`` (default) runs the shards in-process,
        one after the other; ``> 1`` maps them over a pool and the parent
        concatenates the stacked results.
    shard_size:
        Maximum samples per shard.  ``None`` (default) balances ``k``
        evenly across ``workers`` (``ceil(k / workers)``), so one worker
        runs one shard.  Peak memory scales with the shard, not with
        ``k``: ``shard_size=1`` samples one tree at a time.  Smaller shards
        trade per-call overhead for memory and scheduling granularity; the
        results are bit-identical either way.
    """

    mode: str | None = None
    workers: int = 1
    shard_size: int | None = None

    def __post_init__(self):
        if self.mode == "serial":
            raise ValueError(
                "execution mode 'serial' is gone: every ensemble runs the batched "
                "engine; use ExecutionConfig(shard_size=1) to sample one tree at a time"
            )
        if self.mode not in (None, "batched"):
            raise ValueError(f"execution mode must be None or 'batched', got {self.mode!r}")
        object.__setattr__(self, "workers", _as_int("workers", self.workers))
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.shard_size is not None:
            object.__setattr__(self, "shard_size", _as_int("shard_size", self.shard_size))
            if self.shard_size < 1:
                raise ValueError(
                    f"shard_size must be a positive int or None, got {self.shard_size!r}"
                )


@dataclass(frozen=True)
class PipelineConfig(_ConfigBase):
    """Composite configuration of the full hop-set → oracle → FRT pipeline.

    Parameters
    ----------
    hopset, oracle, embedding:
        Per-stage configs (defaults reproduce the paper's main pipeline).
    execution:
        How ensembles run (:class:`ExecutionConfig`: pool width and shard
        granularity).  Excluded from the provenance fingerprint —
        execution never changes results.
    seed:
        Base seed for all pipeline randomness (construction *and*
        sampling).  ``None`` draws fresh OS entropy; an explicit ``rng``
        passed to :class:`~repro.api.pipeline.Pipeline` takes precedence.
    """

    hopset: HopsetConfig = field(default_factory=HopsetConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.hopset, HopsetConfig):
            raise TypeError("hopset must be a HopsetConfig")
        if not isinstance(self.oracle, OracleConfig):
            raise TypeError("oracle must be an OracleConfig")
        if not isinstance(self.embedding, EmbeddingConfig):
            raise TypeError("embedding must be an EmbeddingConfig")
        if not isinstance(self.execution, ExecutionConfig):
            raise TypeError("execution must be an ExecutionConfig")
        if self.seed is not None:
            object.__setattr__(self, "seed", _as_int("seed", self.seed))
            if self.seed < 0:
                raise ValueError("seed must be a non-negative int or None")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Rebuild a nested config; stage values may be dicts or configs."""
        if not isinstance(data, dict):
            raise TypeError(f"PipelineConfig.from_dict expects a dict, got {type(data)!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown PipelineConfig keys: {sorted(unknown)} (known: {sorted(known)})"
            )
        kwargs: dict = {}
        for key, sub_cls in (
            ("hopset", HopsetConfig),
            ("oracle", OracleConfig),
            ("embedding", EmbeddingConfig),
            ("execution", ExecutionConfig),
        ):
            if key in data:
                value = data[key]
                kwargs[key] = value if isinstance(value, sub_cls) else sub_cls.from_dict(value)
        if "seed" in data:
            kwargs["seed"] = data["seed"]
        return cls(**kwargs)
