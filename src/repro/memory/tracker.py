"""Per-device memory accounting with simulated out-of-memory behaviour.

Each :class:`~repro.cluster.device.VirtualGPU` owns a
:class:`MemoryTracker` sized like a Frontier MI250X GCD (64 GB).  All
allocations made by the neural-network substrate and the parallelism
engines — persistent parameter shards, optimizer state, transient
gathered shards, activations — pass through the tracker, so peak memory
and OOM events are observable exactly where the paper reports them
(Fig 5, Fig 6b, Table I first column).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.utils.units import format_bytes


class OutOfDeviceMemoryError(RuntimeError):
    """Raised when an allocation would exceed the device capacity.

    Mirrors a HIP/CUDA out-of-memory error in the simulated cluster.
    """

    def __init__(self, device: str, requested: int, in_use: int, capacity: int):
        self.device = device
        self.requested = int(requested)
        self.in_use = int(in_use)
        self.capacity = int(capacity)
        super().__init__(
            f"simulated OOM on {device}: requested {format_bytes(requested)}, "
            f"in use {format_bytes(in_use)} of {format_bytes(capacity)}"
        )


class Allocation(NamedTuple):
    """Handle for one live allocation; pass back to :meth:`MemoryTracker.free`."""

    handle: int
    nbytes: int
    tag: str


@dataclass(frozen=True)
class Rise:
    """How far a block of work drove a tracker's peaks above the live
    bytes at the block's start: in total, and per tag it raised."""

    total: int
    by_tag: tuple[tuple[str, int], ...] = ()


class MemoryTracker:
    """Track live/current/peak bytes for one device.

    Parameters
    ----------
    capacity_bytes:
        Simulated device capacity; allocations beyond it raise
        :class:`OutOfDeviceMemoryError`.  ``None`` disables the limit
        (useful for analytic what-if estimation).
    name:
        Device name used in error messages.
    """

    def __init__(self, capacity_bytes: int | None, name: str = "gpu"):
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative or None")
        self.capacity_bytes = None if capacity_bytes is None else int(capacity_bytes)
        self.name = name
        self._counter = itertools.count()
        self._live: dict[int, Allocation] = {}
        self._current = 0
        self._peak = 0
        #: tag -> ``[current, peak]`` bytes
        self._categories: dict[str, list[int]] = {}

    # -- queries ---------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._current

    @property
    def peak_bytes(self) -> int:
        """High-water mark since construction or :meth:`reset_peak`."""
        return self._peak

    @property
    def live_allocations(self) -> int:
        """Number of outstanding allocations."""
        return len(self._live)

    @property
    def peak_fraction(self) -> float | None:
        """Peak bytes over capacity — the health monitor's OOM-proximity
        signal.  ``None`` when the tracker is uncapped."""
        if not self.capacity_bytes:
            return None
        return self._peak / self.capacity_bytes

    def category_peak(self, tag_prefix: str) -> int:
        """Peak bytes among allocations whose tag starts with ``tag_prefix``."""
        return max(
            (peak for tag, (_, peak) in self._categories.items() if tag.startswith(tag_prefix)),
            default=0,
        )

    def category_current(self, tag_prefix: str) -> int:
        """Live bytes among allocations whose tag starts with ``tag_prefix``."""
        return sum(
            current for tag, (current, _) in self._categories.items()
            if tag.startswith(tag_prefix)
        )

    def breakdown(self) -> dict[str, int]:
        """Current live bytes per tag (zero-byte tags omitted)."""
        return {tag: current for tag, (current, _) in self._categories.items() if current}

    # -- mutation --------------------------------------------------------
    def allocate(self, nbytes: int, tag: str = "untagged") -> Allocation:
        """Reserve ``nbytes``; raise :class:`OutOfDeviceMemoryError` if over capacity."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes: {nbytes}")
        current = self._current + nbytes
        if self.capacity_bytes is not None and current > self.capacity_bytes:
            raise OutOfDeviceMemoryError(self.name, nbytes, self._current, self.capacity_bytes)
        alloc = Allocation(next(self._counter), nbytes, tag)
        self._live[alloc.handle] = alloc
        self._current = current
        if current > self._peak:
            self._peak = current
        cat = self._categories.get(tag)
        if cat is None:
            self._categories[tag] = [nbytes, nbytes]
        else:
            cat[0] += nbytes
            if cat[0] > cat[1]:
                cat[1] = cat[0]
        return alloc

    def free(self, alloc: Allocation) -> None:
        """Release a live allocation. Double-free raises ``KeyError``."""
        stored = self._live.pop(alloc.handle, None)
        if stored is None:
            raise KeyError(f"allocation {alloc.handle} ({alloc.tag}) is not live")
        self._current -= stored.nbytes
        self._categories[stored.tag][0] -= stored.nbytes

    @contextmanager
    def scoped(self, nbytes: int, tag: str = "scratch") -> Iterator[Allocation]:
        """Context manager allocating on entry and freeing on exit."""
        alloc = self.allocate(nbytes, tag)
        try:
            yield alloc
        finally:
            self.free(alloc)

    def reset_peak(self) -> None:
        """Reset the high-water marks to the current live totals."""
        self._peak = self._current
        for cat in self._categories.values():
            cat[1] = cat[0]

    def begin_rise(self) -> tuple:
        """Start measuring a :class:`Rise`: the peaks restart at the live
        bytes.  Hand the result to :meth:`end_rise`."""
        start = (self._current, self._peak,
                 {tag: tuple(cat) for tag, cat in self._categories.items()})
        self.reset_peak()
        return start

    def end_rise(self, start: tuple | None) -> Rise:
        """The :class:`Rise` since :meth:`begin_rise` returned ``start``
        (``None``: since this tracker was made); the peaks it restarted
        are restored wherever they stood higher."""
        current, peak, categories = start or (0, 0, {})
        by_tag = []
        for tag, cat in self._categories.items():
            base, old_peak = categories.get(tag, (0, 0))
            if cat[1] > base:
                by_tag.append((tag, cat[1] - base))
            cat[1] = max(cat[1], old_peak)
        rise = Rise(self._peak - current, tuple(by_tag))
        self._peak = max(self._peak, peak)
        return rise

    def raise_peaks(self, rise: Rise) -> None:
        """Move the peaks where a block of this :class:`Rise` would take
        them from the live bytes now, allocating nothing."""
        self._peak = max(self._peak, self._current + rise.total)
        for tag, excess in rise.by_tag:
            cat = self._categories.setdefault(tag, [0, 0])
            cat[1] = max(cat[1], cat[0] + excess)

    def free_all(self) -> None:
        """Release every live allocation (used between simulated runs)."""
        self._live.clear()
        self._current = 0
        for cat in self._categories.values():
            cat[0] = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity_bytes is None else format_bytes(self.capacity_bytes)
        return (
            f"MemoryTracker({self.name}, current={format_bytes(self._current)}, "
            f"peak={format_bytes(self._peak)}, capacity={cap})"
        )
