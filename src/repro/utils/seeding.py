"""Deterministic, hierarchical random-number seeding.

Every stochastic component in the library takes either an integer seed
or a :class:`numpy.random.Generator`.  :class:`SeedSequenceFactory`
provides reproducible *named* streams so that, e.g., the rank-7 data
loader and the parameter initializer never share a stream regardless of
call order.
"""

from __future__ import annotations

import zlib

import numpy as np


class SeedError(ValueError):
    """A seed NumPy's generators would reject: a negative integer."""


def check_seed(seed: int) -> int:
    """``seed``, or :class:`SeedError` when it is negative — checked by
    the seed's owner before any work, not by NumPy after some."""
    if seed < 0:
        raise SeedError(f"seed {seed} must be non-negative")
    return seed


def spawn_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize ``seed`` into a fresh :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class SeedSequenceFactory:
    """Produce independent generators keyed by name.

    The stream for a given ``(root_seed, name)`` pair is stable across
    processes and call orders: the name is hashed (CRC32) into the
    ``spawn_key`` of a :class:`numpy.random.SeedSequence`.

    Examples
    --------
    >>> factory = SeedSequenceFactory(1234)
    >>> rng_a = factory.generator("init")
    >>> rng_b = factory.generator("data", 3)
    """

    def __init__(self, root_seed: int):
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed)!r}")
        self.root_seed = int(root_seed)

    def _spawn_key(self, *names: str | int) -> tuple[int, ...]:
        key = []
        for name in names:
            if isinstance(name, (int, np.integer)):
                key.append(int(name))
            else:
                key.append(zlib.crc32(str(name).encode("utf-8")))
        return tuple(key)

    def sequence(self, *names: str | int) -> np.random.SeedSequence:
        """Return the :class:`~numpy.random.SeedSequence` for a named stream."""
        return np.random.SeedSequence(self.root_seed, spawn_key=self._spawn_key(*names))

    def generator(self, *names: str | int) -> np.random.Generator:
        """Return a fresh generator for a named stream."""
        return np.random.default_rng(self.sequence(*names))

    def integer_seed(self, *names: str | int) -> int:
        """Return a stable 63-bit integer seed for a named stream."""
        return int(self.sequence(*names).generate_state(1, np.uint64)[0] >> np.uint64(1))
