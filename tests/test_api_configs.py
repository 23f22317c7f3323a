"""Config dataclasses of the repro.api facade: validation + round-tripping."""

import dataclasses
import math

import numpy as np
import pytest

from repro.api import (
    EMBEDDING_METHODS,
    HOPSET_KINDS,
    EmbeddingConfig,
    ExecutionConfig,
    HopsetConfig,
    OracleConfig,
    Pipeline,
    PipelineConfig,
    content_fingerprint,
    generators,
)


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = PipelineConfig()
        assert cfg.hopset.kind == "hub"
        assert cfg.embedding.method == "oracle"
        assert cfg.seed is None

    def test_hopset_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            HopsetConfig(kind="cohen")
        for kind in HOPSET_KINDS:
            HopsetConfig(kind=kind)

    def test_hopset_numeric_bounds(self):
        with pytest.raises(ValueError):
            HopsetConfig(d0=0)
        with pytest.raises(ValueError):
            HopsetConfig(eps=-0.1)
        with pytest.raises(ValueError):
            HopsetConfig(c=0.0)

    @pytest.mark.parametrize("name", ["d0", "eps", "c"])
    def test_hopset_numbers_reject_bools(self, name):
        """Regression: d0=True / eps=True built the same hop set as 1 / 1.0
        under a different fingerprint."""
        with pytest.raises(TypeError, match=name):
            HopsetConfig(**{name: True})

    @pytest.mark.parametrize("d0", [3.0, 2.5])
    def test_d0_float_rejected(self, d0):
        """Regression: d0=3.0 built d0=3's hop set under another
        fingerprint, and d0=2.5 was accepted and built with hop bound 5."""
        with pytest.raises(TypeError, match="d0 must be an int"):
            HopsetConfig(d0=d0)

    def test_d0_numpy_integer_fingerprints_as_int(self):
        """Regression: d0=np.int64(3) sampled the whole ensemble, then
        failed to fingerprint it (int64 is not JSON serializable)."""
        cfg = HopsetConfig(d0=np.int64(3))
        assert cfg.d0 == 3 and type(cfg.d0) is int
        assert cfg == HopsetConfig(d0=3)
        g = generators.random_graph(30, 70, rng=1)
        runs = [
            Pipeline(g, PipelineConfig(hopset=HopsetConfig(d0=d0)), rng=5).sample_ensemble(
                2, seed=1
            )
            for d0 in (np.int64(3), 3)
        ]
        assert runs[0].meta["fingerprint"] == runs[1].meta["fingerprint"]
        assert runs[0].le_lists.equals(runs[1].le_lists)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("eps", math.nan),
            ("eps", math.inf),
            ("eps", -math.inf),
            ("c", math.nan),
            ("c", math.inf),
            ("c", 0.5),
        ],
    )
    def test_hopset_floats_finite_and_in_range(self, field, value):
        """Regression: eps=nan sampled from an unrounded hop set under a
        NaN fingerprint, eps=inf crashed inside the LE kernel, and c=nan,
        c=inf or c=0.5 were accepted (every vertex a hub, or a failure only
        at build)."""
        with pytest.raises(ValueError, match=f"hopset .*{field}"):
            HopsetConfig(**{field: value})

    def test_d0_rejected_for_non_hub_kinds(self):
        """Regression: d0 used to be forwarded to identity_hopset as an
        explicit hop bound, silently truncating distances when d0 < SPD."""
        with pytest.raises(ValueError, match="d0 only applies"):
            HopsetConfig(kind="identity", d0=2)
        with pytest.raises(ValueError, match="d0 only applies"):
            HopsetConfig(kind="exact-closure", d0=2)

    def test_oracle_penalty_base(self):
        with pytest.raises(ValueError):
            OracleConfig(penalty_base=0.5)
        assert OracleConfig(penalty_base=None).penalty_base is None
        assert OracleConfig(penalty_base=1.0).penalty_base == 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_oracle_penalty_base_finite(self, value):
        """Regression: penalty_base=nan ran into the H-iteration cap and
        penalty_base=inf crashed inside the LE kernel."""
        with pytest.raises(ValueError, match="penalty_base must be finite"):
            OracleConfig(penalty_base=value)

    def test_embedding_method_checked(self):
        with pytest.raises(ValueError, match="method"):
            EmbeddingConfig(method="quantum")
        for method in EMBEDDING_METHODS:
            EmbeddingConfig(method=method)

    def test_pipeline_nested_types_checked(self):
        with pytest.raises(TypeError):
            PipelineConfig(hopset={"kind": "hub"})
        with pytest.raises(TypeError):
            PipelineConfig(oracle=42)
        with pytest.raises(TypeError):
            PipelineConfig(embedding=None)

    def test_pipeline_seed_checked(self):
        with pytest.raises(ValueError):
            PipelineConfig(seed=-1)
        with pytest.raises(TypeError):
            PipelineConfig(seed=1.5)
        assert PipelineConfig(seed=0).seed == 0

    def test_pipeline_seed_rejects_bools(self):
        """Regression: seed=True sampled the seed=1 forest under another
        fingerprint."""
        for seed in (True, False):
            with pytest.raises(TypeError, match="seed"):
                PipelineConfig(seed=seed)

    def test_configs_are_frozen(self):
        cfg = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.hopset.eps = 0.5


_INT_FIELDS = {
    "d0": (lambda v: PipelineConfig(hopset=HopsetConfig(d0=v)), lambda c: c.hopset.d0),
    "seed": (lambda v: PipelineConfig(seed=v), lambda c: c.seed),
    "workers": (
        lambda v: PipelineConfig(execution=ExecutionConfig(workers=v)),
        lambda c: c.execution.workers,
    ),
    "shard_size": (
        lambda v: PipelineConfig(execution=ExecutionConfig(shard_size=v)),
        lambda c: c.execution.shard_size,
    ),
}


class TestIntegerRule:
    """One rule for every integer field: a NumPy integer is stored as the
    Python int it equals (bools and non-integers are checked per field
    above and in TestExecutionConfig)."""

    @pytest.mark.parametrize("name", sorted(_INT_FIELDS))
    def test_numpy_integer_stored_as_int(self, name):
        make, get = _INT_FIELDS[name]
        ref = make(3)
        for np_int in (np.int64, np.int32, np.uint16):
            cfg = make(np_int(3))
            assert type(get(cfg)) is int and get(cfg) == 3
            assert cfg == ref and cfg.to_dict() == ref.to_dict()
            assert content_fingerprint(cfg.to_dict()) == content_fingerprint(ref.to_dict())


class TestRoundTrip:
    def test_stage_round_trip(self):
        for cfg in (
            HopsetConfig(kind="identity", eps=0.0),
            OracleConfig(penalty_base=1.25, inner_early_exit=False),
            EmbeddingConfig(method="direct"),
        ):
            assert type(cfg).from_dict(cfg.to_dict()) == cfg

    def test_pipeline_round_trip(self):
        cfg = PipelineConfig(
            hopset=HopsetConfig(kind="hub", d0=4, eps=0.125, c=1.5),
            oracle=OracleConfig(penalty_base=1.2),
            embedding=EmbeddingConfig(method="direct"),
            seed=7,
        )
        d = cfg.to_dict()
        assert d["hopset"]["eps"] == 0.125  # plain nested dicts
        assert PipelineConfig.from_dict(d) == cfg

    def test_from_dict_partial(self):
        cfg = PipelineConfig.from_dict({"seed": 3, "hopset": {"eps": 0.0}})
        assert cfg.seed == 3
        assert cfg.hopset.eps == 0.0
        assert cfg.embedding == EmbeddingConfig()  # defaults fill the rest

    def test_from_dict_accepts_config_instances(self):
        cfg = PipelineConfig.from_dict({"hopset": HopsetConfig(d0=3)})
        assert cfg.hopset.d0 == 3

    def test_from_dict_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            HopsetConfig.from_dict({"kind": "hub", "typo": 1})
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"hopsets": {}})

    def test_from_dict_type_checked(self):
        with pytest.raises(TypeError):
            PipelineConfig.from_dict([("seed", 3)])

    def test_from_dict_validates_values(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"hopset": {"eps": -1.0}})


class TestEnsembleMode:
    """Every ensemble runs the batched engine; the mode survives only as an
    accepted spelling on ExecutionConfig."""

    def test_batched_accepted(self):
        assert ExecutionConfig(mode="batched").mode == "batched"

    def test_serial_points_at_shard_size(self):
        with pytest.raises(ValueError, match="shard_size=1"):
            ExecutionConfig(mode="serial")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="execution mode"):
            ExecutionConfig(mode="parallel")

    def test_round_trips(self):
        """The embedding stage config says what to compute, not how: it
        holds no execution mode."""
        cfg = EmbeddingConfig(method="direct")
        assert cfg.to_dict() == {"method": "direct"}
        assert EmbeddingConfig.from_dict(cfg.to_dict()) == cfg


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.mode is None
        assert cfg.workers == 1
        assert cfg.shard_size is None

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="execution mode"):
            ExecutionConfig(mode="parallel")
        ExecutionConfig(mode=None)
        ExecutionConfig(mode="batched")

    def test_workers_checked(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=0)
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=-2)
        with pytest.raises(TypeError, match="workers"):
            ExecutionConfig(workers=2.0)
        with pytest.raises(TypeError, match="workers"):
            ExecutionConfig(workers=True)  # bools are not worker counts

    def test_shard_size_checked(self):
        with pytest.raises(ValueError, match="shard_size"):
            ExecutionConfig(shard_size=0)
        with pytest.raises(TypeError, match="shard_size"):
            ExecutionConfig(shard_size="big")
        assert ExecutionConfig(shard_size=3).shard_size == 3

    def test_shard_size_rejects_bools(self):
        """shard_size=True is not a shard of one, as workers=True is not a
        pool of one."""
        for flag in (True, False):
            with pytest.raises(TypeError, match="shard_size"):
                ExecutionConfig(shard_size=flag)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionConfig().workers = 2

    def test_round_trip(self):
        cfg = ExecutionConfig(mode="batched", workers=4, shard_size=2)
        d = cfg.to_dict()
        assert d == {"mode": "batched", "workers": 4, "shard_size": 2}
        assert ExecutionConfig.from_dict(d) == cfg

    def test_pipeline_nesting(self):
        cfg = PipelineConfig(execution=ExecutionConfig(workers=2))
        assert cfg.execution.workers == 2
        assert PipelineConfig().execution == ExecutionConfig()
        with pytest.raises(TypeError):
            PipelineConfig(execution={"workers": 2})

    def test_pipeline_round_trip_with_execution(self):
        cfg = PipelineConfig(
            execution=ExecutionConfig(mode="batched", workers=3), seed=1
        )
        d = cfg.to_dict()
        assert d["execution"] == {"mode": "batched", "workers": 3, "shard_size": None}
        assert PipelineConfig.from_dict(d) == cfg

    def test_pipeline_from_dict_validates_execution(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"execution": {"workers": 0}})
