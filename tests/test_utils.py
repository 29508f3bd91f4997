"""Tests for repro.utils (seeding, units, logging)."""

import logging

import numpy as np
import pytest

from repro.utils import (
    SeedSequenceFactory,
    format_bytes,
    format_flops,
    format_time,
    get_logger,
    spawn_rng,
)


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        factory = SeedSequenceFactory(7)
        a = factory.generator("init").normal(size=8)
        b = factory.generator("init").normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_names_different_streams(self):
        factory = SeedSequenceFactory(7)
        a = factory.generator("init").normal(size=8)
        b = factory.generator("data").normal(size=8)
        assert not np.array_equal(a, b)

    def test_different_roots_different_streams(self):
        a = SeedSequenceFactory(1).generator("x").normal(size=8)
        b = SeedSequenceFactory(2).generator("x").normal(size=8)
        assert not np.array_equal(a, b)

    def test_integer_and_string_names_compose(self):
        factory = SeedSequenceFactory(7)
        a = factory.generator("rank", 0).normal(size=4)
        b = factory.generator("rank", 1).normal(size=4)
        assert not np.array_equal(a, b)

    def test_integer_seed_stable(self):
        factory = SeedSequenceFactory(7)
        assert factory.integer_seed("x") == factory.integer_seed("x")
        assert factory.integer_seed("x") != factory.integer_seed("y")

    def test_rejects_non_int_root(self):
        with pytest.raises(TypeError):
            SeedSequenceFactory("seed")


class TestSpawnRng:
    def test_none_gives_generator(self):
        assert isinstance(spawn_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        assert spawn_rng(3).normal() == spawn_rng(3).normal()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert spawn_rng(rng) is rng


class TestUnits:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, "0 B"), (512, "512 B"), (1 << 20, "1.00 MiB"), (64 * 10**9, "59.60 GiB")],
    )
    def test_format_bytes(self, value, expected):
        assert format_bytes(value) == expected

    def test_format_flops_exa(self):
        assert format_flops(1.6e18) == "1.6 EFLOPS"

    def test_format_flops_peta(self):
        assert format_flops(684e15) == "684 PFLOPS"

    @pytest.mark.parametrize(
        "seconds,expected",
        [(0.003, "3 ms"), (3e-6, "3 us"), (2.0, "2 s"), (90, "1m30.0s"), (3720, "1h02m")],
    )
    def test_format_time(self, seconds, expected):
        assert format_time(seconds) == expected

    def test_format_time_negative(self):
        assert format_time(-2.0) == "-2 s"


class TestLogging:
    def test_namespaced(self):
        assert get_logger("parallel.fsdp").name == "repro.parallel.fsdp"

    def test_root(self):
        assert get_logger().name == "repro"

    def test_null_handler_attached(self):
        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
