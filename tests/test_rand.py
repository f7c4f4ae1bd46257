"""Seeded random streams: reproducibility and independence."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.rand import RandomStreams, stable_index


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(seed=7).stream("topology").random(5)
        b = RandomStreams(seed=7).stream("topology").random(5)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=7).stream("topology").random(5)
        b = RandomStreams(seed=8).stream("topology").random(5)
        assert list(a) != list(b)

    def test_streams_are_independent(self):
        """Draws on one stream must not perturb another."""
        family1 = RandomStreams(seed=7)
        family1.stream("congestion").random(100)  # interleaved noise
        after_noise = family1.stream("topology").random(5)

        family2 = RandomStreams(seed=7)
        clean = family2.stream("topology").random(5)
        assert list(after_noise) == list(clean)

    def test_stream_is_cached(self):
        family = RandomStreams(seed=7)
        assert family.stream("x") is family.stream("x")

    def test_fork_derives_new_family(self):
        family = RandomStreams(seed=7)
        child = family.fork("trial-3")
        assert child.seed != family.seed
        # forks are reproducible
        again = RandomStreams(seed=7).fork("trial-3")
        assert child.seed == again.seed

    def test_spawn_generator_replayable(self):
        family = RandomStreams(seed=7)
        a = family.spawn_generator("link", 42).random(3)
        b = family.spawn_generator("link", 42).random(3)
        assert list(a) == list(b)

    def test_spawn_generator_varies_by_index(self):
        family = RandomStreams(seed=7)
        a = family.spawn_generator("link", 1).random(3)
        b = family.spawn_generator("link", 2).random(3)
        assert list(a) != list(b)

    def test_non_int_seed_rejected(self):
        with pytest.raises(ConfigError):
            RandomStreams(seed="42")  # type: ignore[arg-type]


class TestStableIndex:
    def test_pinned_for_a_fixed_key(self):
        # sha256-derived, so the same under every PYTHONHASHSEED; the
        # MPTCP campaign seeds its per-path noise from these indices.
        assert stable_index("d/a/b/0") == 457068714
        assert stable_index("mptcp") == 1810936359

    def test_fits_a_31_bit_index(self):
        assert all(0 <= stable_index(f"k{i}") < 2**31 for i in range(100))
