"""Shared utilities: logging, seeding, and unit formatting."""

from repro.utils.logging import get_logger
from repro.utils.seeding import SeedSequenceFactory, spawn_rng
from repro.utils.units import (
    GB,
    GIB,
    MB,
    MIB,
    format_bytes,
    format_flops,
    format_time,
)

__all__ = [
    "GB",
    "GIB",
    "MB",
    "MIB",
    "SeedSequenceFactory",
    "format_bytes",
    "format_flops",
    "format_time",
    "get_logger",
    "spawn_rng",
]
