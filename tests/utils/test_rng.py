"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import new_rng, spawn_rngs


class TestNewRng:
    def test_deterministic_for_same_seed(self):
        a = new_rng(42).random(10)
        b = new_rng(42).random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = new_rng(1).random(10)
        b = new_rng(2).random(10)
        assert not np.array_equal(a, b)

    def test_none_seed_allowed(self):
        gen = new_rng(None)
        assert isinstance(gen.random(), float)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_streams_independent(self):
        streams = spawn_rngs(7, 3)
        draws = [g.random(5) for g in streams]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_reproducible(self):
        a = [g.random(3) for g in spawn_rngs(9, 2)]
        b = [g.random(3) for g in spawn_rngs(9, 2)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
