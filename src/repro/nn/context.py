"""Execution contexts: FLOP accounting and precision policy scoping.

An :class:`ExecutionContext` is pushed around a region of model code
(one rank's forward, a profiled step, ...).  Primitives in
:mod:`repro.nn.ops` report their FLOPs to the innermost active context,
and consult its precision policy for emulated-BF16 rounding.  Contexts
nest; FLOPs propagate to enclosing contexts so a profiler wrapping a
whole step sees everything.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.precision import PrecisionPolicy


class _State(threading.local):
    """Per-thread context stack and the forward tape being recorded, if any."""

    def __init__(self):
        self.stack: list["ExecutionContext"] = []
        self.tape = None


_state = _State()


class ExecutionContext:
    """Per-region accounting: FLOPs and the active precision policy.

    Parameters
    ----------
    precision:
        Optional :class:`~repro.nn.precision.PrecisionPolicy`; when
        ``None``, an enclosing context's policy (if any) applies.
    """

    def __init__(self, precision: "PrecisionPolicy | None" = None):
        self.precision = precision
        self.flops = 0.0
        self.matmul_flops = 0.0

    def add_flops(self, flops: float, matmul: bool = False) -> None:
        """Record work done inside this context."""
        self.flops += flops
        if matmul:
            self.matmul_flops += flops

    def reset(self) -> None:
        """Zero the counters (policy is kept)."""
        self.flops = 0.0
        self.matmul_flops = 0.0


def active_precision() -> "PrecisionPolicy | None":
    """Innermost non-None precision policy on the context stack."""
    for ctx in reversed(_state.stack):
        if ctx.precision is not None:
            return ctx.precision
    return None


def record_flops(flops: float, matmul: bool = False) -> None:
    """Report FLOPs to every active context (so nested profilers all see them)."""
    for ctx in _state.stack:
        ctx.add_flops(flops, matmul=matmul)


@contextmanager
def execution_context(ctx: ExecutionContext) -> Iterator[ExecutionContext]:
    """Push ``ctx`` for the duration of the ``with`` block."""
    stack = _state.stack
    stack.append(ctx)
    try:
        yield ctx
    finally:
        popped = stack.pop()
        assert popped is ctx, "execution context stack corrupted"
