"""Forward tape: inference replays a recorded kernel list.

A served forecast is the same forward over and over, at a handful of
batch widths.  :class:`ForwardTape` is the inference entry point of one
model: the first call for a signature — input shapes and dtypes, bf16
or not — runs the ordinary per-op forward while the funnels of
:mod:`repro.nn.ops` append each NumPy kernel they issue to a recording;
later calls replay that list in a flat loop, with no module dispatch,
no per-op FLOP report and no cached activation.

The per-op forward ``model(*inputs)`` is the named oracle (and the only
training path): every replay is ``array_equal`` to it and reports the
same FLOP totals (``tests/nn/test_tape.py``).  A signature whose
recording meets anything the tape cannot classify runs per-op for good,
and is counted — see DESIGN.md, "The forward tape".
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.nn.context import (
    ExecutionContext,
    _state,
    active_precision,
    execution_context,
    record_flops,
)
from repro.nn.module import Module


class _Recording:
    """The tape while it is written: ``_state.tape`` during one forward.

    Values live in numbered slots.  ``template[slot]`` holds a constant
    operand; inputs, parameters and kernel outputs are ``None`` there
    and filled at replay.
    """

    def __init__(self, model: Module, inputs):
        self.template: list = [None] * len(inputs)
        self.slots = {id(x): slot for slot, x in enumerate(inputs)}
        #: ``id(parameter.data)`` -> (the owning module's registry, name):
        #: replay reads *through* the registry, so new ``.data`` and a
        #: re-assigned ``Parameter`` are both seen.
        self.owners = {
            id(param.data): (module._parameters, name)
            for _, module in model.named_modules()
            for name, param in module._parameters.items()
        }
        self.params: list[tuple] = []
        self.program: list[tuple] = []
        self.alive = list(inputs)  # pins every id in ``slots`` while recording
        self.failed: str | None = None

    def fail(self, reason: str) -> None:
        self.failed = self.failed or reason

    def _slot(self, value) -> int:
        slot = self.slots.get(id(value))
        if slot is not None:
            return slot
        slot = len(self.template)
        if id(value) in self.owners:
            self.params.append((slot, *self.owners[id(value)]))
            self.slots[id(value)] = slot
            self.template.append(None)
        elif type(value) in (int, float, bool) or (
            type(value) is tuple and all(type(v) is int for v in value)
        ):
            self.template.append(value)
        else:
            self.fail(
                f"a {type(value).__name__} operand is neither a call input, an "
                "earlier output, a parameter's data nor a Python scalar"
            )
        return slot

    def record(self, fn, operands, out, **kwargs) -> None:
        """Append ``out = fn(*operands, **kwargs)``; kwargs are constants."""
        args = [self._slot(value) for value in operands]
        self.slots[id(out)] = len(self.template)
        self.alive.append(out)
        self.program.append(
            (partial(fn, **kwargs) if kwargs else fn, args, len(self.template))
        )
        self.template.append(None)

    def freeze(self, result: int, totals: ExecutionContext) -> tuple:
        """The replayable tape.

        Each kernel output is renumbered onto the slot of a value already
        dead — a handful are live at once — so a replay frees every
        activation at its last use, as nothing will read it again.
        """
        last_use = {result: len(self.program)}
        for step, (_, args, _) in enumerate(self.program):
            for slot in args:
                last_use[slot] = step
        renamed: dict[int, int] = {}
        free: list[int] = []
        program = []
        for step, (fn, args, out) in enumerate(self.program):
            now = tuple(renamed.get(slot, slot) for slot in args)
            free += [renamed[a] for a in set(args) if a in renamed and last_use[a] == step]
            renamed[out] = free.pop() if free else out
            program.append((fn, len(now), now, renamed[out]))
        return (
            self.template, self.params, program, renamed.get(result, result),
            totals.flops, totals.matmul_flops,
        )


class ForwardTape:
    """``tape(*inputs)`` is ``model(*inputs)`` for inference.

    ``records`` counts signatures taped, ``replays`` forwards replayed
    and ``fallbacks`` forwards that ran per-op because the model or the
    signature cannot be taped; they sum to the forwards made.
    """

    def __init__(self, model):
        self.model = model
        #: signature -> replayable tape, or the reason (str) it runs per-op
        self._tapes: dict = {}
        self.records = self.replays = self.fallbacks = 0

    def counts(self) -> dict[str, int]:
        return {"records": self.records, "replays": self.replays, "fallbacks": self.fallbacks}

    def _per_op(self, inputs):
        out = self.model(*inputs)
        clear_cache = getattr(self.model, "clear_cache", None)
        if clear_cache is not None:
            clear_cache()
        return out

    def __call__(self, *inputs):
        policy = active_precision()
        key = (
            tuple((getattr(x, "shape", None), getattr(x, "dtype", None)) for x in inputs),
            policy is not None and policy.is_bf16,
        )
        tape = self._tapes.get(key)
        if tape is None:
            if isinstance(self.model, Module) and all(type(x) is np.ndarray for x in inputs):
                return self._record(key, inputs)
            tape = self._tapes[key] = "not a Module over real arrays"
        if isinstance(tape, str):
            out = self._per_op(inputs)
            self.fallbacks += 1
            return out
        template, params, program, result, flops, matmul_flops = tape
        values = template.copy()
        values[: len(inputs)] = inputs
        for slot, owner, name in params:
            values[slot] = owner[name].data
        for fn, arity, args, out in program:
            if arity == 2:
                a, b = args
                values[out] = fn(values[a], values[b])
            elif arity == 1:
                values[out] = fn(values[args[0]])
            else:
                values[out] = fn(*[values[i] for i in args])
        record_flops(flops - matmul_flops)
        record_flops(matmul_flops, matmul=True)
        self.replays += 1
        return values[result]

    def _record(self, key, inputs):
        """The per-op forward, recorded; decides this signature for good."""
        recording = _Recording(self.model, inputs)
        totals = ExecutionContext()
        _state.tape = recording
        try:
            with execution_context(totals):
                out = self._per_op(inputs)
        finally:
            _state.tape = None
        result = recording.slots.get(id(out))
        if result is None:
            recording.fail("the forward's result is not the output of a taped op")
        if recording.failed:
            self._tapes[key] = recording.failed
            self.fallbacks += 1
        else:
            self._tapes[key] = recording.freeze(result, totals)
            self.records += 1
        return out
