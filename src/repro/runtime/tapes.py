"""The process's step tapes and meta step streams, kept apart from any Session.

A numeric step tape (:meth:`~repro.runtime.session.Session.numeric_step`)
depends on what the step computes, not on who computed it: the whole
:class:`~repro.runtime.spec.RunSpec`, the step's input signature, the
precision policy, whether a grad scaler is present and whether the
tracer is on.  Its owners are addresses into a session's engine and
trainer, bound by each session that replays it, so a stored tape pins
no session.  A Session built in a process that has already recorded its
spec (a resume, or a Supervisor incarnation after a crash that came
once the tape was recorded) replays from its first step.  See
DESIGN.md §9, "Numeric step replay", for where that holds and where not.

A meta step stream (:meth:`~repro.runtime.session.Session.meta_step`)
depends on the whole ``RunSpec``, the fold mode and whether the tracer
is on, so it is kept the same way: a rollback, a refold or a later
``run_case`` of a captured spec replays from its first step (DESIGN.md
§5, "Step replay").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple


class NumericTape(NamedTuple):
    """One recorded ``forward_backward``, addressed to no session."""

    #: The frozen kernel recording; its params are ``(slot, address, key)``.
    kernels: tuple
    num_losses: int
    #: Indices into the flat ``dense_parameters`` / ``sharded_parameters``
    #: lists of every replica: the parameters the segment left a gradient.
    dense: tuple
    sharded: tuple
    #: The ``step.<N>/`` prefix the stream was captured under.
    captured: str
    events: list
    #: ``(rank, memory Rise)`` of every device over the segment.
    rises: tuple


class MetaStream(NamedTuple):
    """One captured meta engine step, addressed to no session."""

    #: The ``step.<N>/`` prefix the stream was captured under.
    captured: str
    events: list
    matmul_flops: float
    other_flops: float
    #: ``(rank, memory Rise)`` of every device over the step.
    rises: tuple


#: Keys a :class:`TapeStore` holds; the least recently used goes first.
#: A Supervisor keeps the tape of every layout it has left, and each
#: regroup is a new key, so the store is bounded, by keys (a tape's
#: kernels and events have no cheap byte size); 8 keys of the
#: ``numeric-train`` spec are about 11 MiB.  A meta stream is smaller:
#: 0.07-0.3 MiB per key on the replan demo, ``exact-step`` and
#: ``tune-4d`` specs, 1.4 MiB for ``frontier-fold``'s folded 49,152-GCD
#: step.  No bench workload holds more than one numeric key (a numeric
#: regroup holds two) or more than four meta keys (``exact-step``).
CAPACITY = 8


class TapeStore:
    """Key -> :class:`NumericTape` or the reason (str) the key runs
    per-op, or -> :class:`MetaStream`; at most :data:`CAPACITY` keys."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)

    def values(self) -> list:
        return list(self._entries.values())

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Every Session's step tapes.  A tape is about 1.4 MiB on the
#: ``numeric-train`` spec; a Supervisor run keeps one per layout it
#: trains on.
NUMERIC_TAPES = TapeStore()

#: Every Session's meta step streams, one per spec, fold mode and
#: tracer setting.
META_STREAMS = TapeStore()
