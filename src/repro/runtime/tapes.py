"""The process's step tapes, kept apart from any Session.

A step tape (:meth:`~repro.runtime.session.Session.meta_step`,
:meth:`~repro.runtime.session.Session.numeric_step`) depends on what the
step computes, not on who computed it: the whole
:class:`~repro.runtime.spec.RunSpec`, whether the tracer is on, the
active precision, and the kind's own inputs — a numeric step's input
signature and whether a grad scaler is present, a meta step's fold
mode.  Its sinks (and a numeric tape's owners) are addresses into a
session's engine and trainer, bound by each session that replays it,
so a stored tape pins no session.  A Session built in a process that
has already recorded its key — a resume, a rollback, a refold, a later
``run_case`` of the same case — replays from its first step.  See
DESIGN.md §5, "Step replay".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple


class StepTape(NamedTuple):
    """One recorded step, addressed to no session."""

    #: The ``step.<N>/`` prefix the stream was captured under.
    captured: str
    events: EventStream
    #: ``(rank, memory Rise)`` of every device over the step.
    rises: tuple
    matmul_flops: float
    other_flops: float
    #: Indices into the flat ``dense_parameters`` / ``sharded_parameters``
    #: lists of every replica: the parameters the step left a gradient.
    dense: tuple
    sharded: tuple
    #: Numeric: the frozen kernel recording, its params ``(slot, address,
    #: key)``, whose results are the losses and then those gradients.
    #: Meta: None, and ``grads`` holds the gradients (``MetaArray``s).
    kernels: tuple | None = None
    num_losses: int = 0
    grads: tuple = ()


#: Keys :data:`STEP_TAPES` holds; the least recently used goes first.
#: A Supervisor keeps the tape of every layout it has left, and each
#: regroup is a new key, so the store is bounded, by keys (a tape's
#: kernels and events have no cheap byte size).  A numeric tape is about
#: 1.4 MiB on the ``numeric-train`` spec; a meta tape 0.07-0.3 MiB on
#: the replan demo, ``exact-step`` and ``tune-4d`` specs, 1.4 MiB for
#: ``frontier-fold``'s folded 49,152-GCD step, whose stream carries a
#: 1.9 MiB compiled form once replayed.  No bench workload holds more
#: than four keys (``exact-step``, ``tune-4d``), so none is evicted.
CAPACITY = 8


class TapeStore:
    """Key -> :class:`StepTape` or the reason (str) the key runs per-op;
    at most :data:`CAPACITY` keys."""

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


#: Every Session's step tapes, meta and numeric.
STEP_TAPES = TapeStore()
