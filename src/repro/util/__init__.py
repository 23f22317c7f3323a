"""Small shared utilities: RNG handling, pair sampling, read-only freezing."""

from repro.util.freeze import freeze, freeze_enabled
from repro.util.pairs import all_pairs, sample_distinct, unrank_pairs
from repro.util.rng import as_rng, spawn_rngs, split_seed

__all__ = [
    "as_rng",
    "freeze",
    "freeze_enabled",
    "spawn_rngs",
    "split_seed",
    "all_pairs",
    "unrank_pairs",
    "sample_distinct",
]
