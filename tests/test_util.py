"""Tests for repro.util (rng coercion and spawning)."""

import numpy as np
import pytest

from repro.util import as_rng, spawn_rngs


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_numpy_integer_seed(self):
        g = as_rng(np.int64(7))
        assert isinstance(g, np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            as_rng("seed")


class TestSpawnRngs:
    def test_count_and_type(self):
        children = spawn_rngs(1, 4)
        assert len(children) == 4
        assert all(isinstance(c, np.random.Generator) for c in children)

    def test_reproducible(self):
        a = [c.random() for c in spawn_rngs(9, 3)]
        b = [c.random() for c in spawn_rngs(9, 3)]
        assert a == b

    def test_children_differ(self):
        a, b = spawn_rngs(3, 2)
        assert a.random() != b.random()
