"""Kernel tapes: a recorded list of NumPy kernels, replayed in a flat loop.

A served forecast is the same forward over and over, at a handful of
batch widths.  :class:`ForwardTape` is the inference entry point of one
model: the first call for a signature — input shapes and dtypes, bf16
or not — runs the ordinary per-op forward while the funnels of
:mod:`repro.nn.ops` append each NumPy kernel they issue to a recording;
later calls replay that list in a flat loop, with no module dispatch,
no per-op FLOP report and no cached activation.  Numeric training steps
(``Session.numeric_step``) share the :class:`_Recording` and :func:`replay`.

The per-op forward ``model(*inputs)`` is the named oracle: every
replay is ``array_equal`` to it and reports the same FLOP totals
(``tests/nn/test_tape.py``).  A signature whose recording meets
anything the tape cannot classify runs per-op for good, and is counted
— see DESIGN.md, "The forward tape".
"""

from __future__ import annotations

import operator
import weakref
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


def _data(registry: dict, name: str):
    return registry[name].data


def parameter_owners(*models: Module) -> dict:
    """``id(parameter.data) -> (read, registry, name)`` over ``models``:
    replay reads *through* the registry, so new ``.data`` and a
    re-assigned ``Parameter`` are both seen."""
    return {
        id(param.data): (_data, module._parameters, name)
        for model in models
        for _, module in model.named_modules()
        for name, param in module._parameters.items()
    }


class _Recording:
    """The tape while it is written: ``_state.tape`` inside ``with``
    (restoring an enclosing recording on exit).

    Values live in numbered slots.  ``template[slot]`` holds a constant
    operand; inputs, owned values and kernel outputs are ``None`` there
    and filled at replay.  ``owners`` maps an owned value's id to what
    follows its slot in ``params``: ``(read, owner, key)`` for
    :func:`replay`, or an address its caller binds to one first.
    An output's slot is retired when its array dies, so a later array at
    the same address is never taken for it; only scalars are pinned.
    """

    def __init__(self, inputs, owners: dict):
        self.template: list = [None] * len(inputs)
        self.slots = {id(x): slot for slot, x in enumerate(inputs)}
        self.owners = owners
        self.params: list[tuple] = []
        self.program: list[tuple] = []
        self.pinned = list(inputs)
        self._watching: dict = {}
        self._bound: dict = {}
        self._outer = None
        self.failed: str | None = None

    def __enter__(self) -> "_Recording":
        self._outer, _state.tape = _state.tape, self
        return self

    def __exit__(self, *exc) -> None:
        _state.tape = self._outer
        self._watching.clear()  # the ids of the outputs alive now stay valid

    def fail(self, reason: str) -> None:
        self.failed = self.failed or reason

    def _slot(self, value) -> int:
        slot = self.slots.get(id(value))
        if slot is not None:
            return slot
        slot = len(self.template)
        owner = self.owners.get(id(value))
        if owner is not None:
            self.params.append((slot, *owner))
            self.slots[id(value)] = slot
            self.template.append(None)
        elif type(value) in (int, float, bool) or (
            type(value) is tuple and all(type(v) is int for v in value)
        ):  # immutable, so pinned and keyed by identity like the rest
            self.slots[id(value)] = slot
            self.pinned.append(value)
            self.template.append(value)
        else:
            self.fail(
                f"a {type(value).__name__} operand is neither an input, an "
                "earlier output, an owned array nor a Python scalar"
            )
        return slot

    def record(self, fn, operands, out, **kwargs) -> None:
        """Append ``out = fn(*operands, **kwargs)``; kwargs are constants.

        Each item of a list or tuple ``out`` is an output of its own; the
        container itself is no operand, so nothing pins what it holds.
        """
        args = list(map(self.slots.get, map(id, operands)))
        if None in args:
            args = [self._slot(value) if slot is None else slot
                    for slot, value in zip(args, operands)]
        if kwargs:  # one partial per distinct binding, not per kernel
            key = (fn, *kwargs.items(), *map(type, kwargs.values()))
            try:
                bound = self._bound.get(key)
                fn = bound or self._bound.setdefault(key, partial(fn, **kwargs))
            except TypeError:  # an unhashable constant
                fn = partial(fn, **kwargs)
        if type(out) in (list, tuple):
            whole = len(self.template)
            self.template.append(None)
            self.program.append((fn, args, whole))
            for index, part in enumerate(out):
                args = [whole, self._slot(index)]
                self.program.append((operator.getitem, args, self._output(part)))
            return
        self.program.append((fn, args, self._output(out)))

    def _output(self, value) -> int:
        slot, key, slots = len(self.template), id(value), self.slots
        self.template.append(None)
        slots[key] = slot
        try:  # retire the slot when the array dies
            self._watching[key] = weakref.ref(
                value, lambda _, key=key: slots.pop(key, None))
        except TypeError:  # a scalar takes no weak reference: pin it
            self.pinned.append(value)
        return slot

    def freeze(self, results: list[int], totals: ExecutionContext) -> tuple:
        """The replayable tape, returning the values of ``results``.

        Each kernel output is renumbered onto the slot of a value already
        dead — a handful are live at once — so a replay frees every
        activation at its last use, as nothing will read it again.
        A kernel is frozen as ``(fn, out, a, b)``: two operand slots, or
        one and ``None``, or every slot in ``a`` and :data:`_SPREAD`,
        so :func:`replay` reads its arity without measuring it.
        """
        last_use: dict[int, int] = {}
        for step, (_, args, _) in enumerate(self.program):
            for slot in args:
                last_use[slot] = step
        last_use.update(dict.fromkeys(results, len(self.program)))
        renamed: dict[int, int] = {}
        get = renamed.get
        free: list[int] = []
        program = []
        for step, (fn, args, out) in enumerate(self.program):
            now = tuple(map(get, args, args))  # renamed, or the slot itself
            for slot in args:
                if last_use[slot] == step and slot in renamed:
                    free.append(renamed.pop(slot))
            new = free.pop() if free else out
            if len(now) == 2:
                program.append((fn, new, *now))
            elif len(now) == 1:
                program.append((fn, new, now[0], None))
            else:
                program.append((fn, new, now, _SPREAD))
            if out in last_use:
                renamed[out] = new
            else:  # never read: its slot is free at once
                free.append(new)
        return (
            self.template, self.params, program,
            [renamed.get(slot, slot) for slot in results],
            totals.flops, totals.matmul_flops,
        )


#: The second operand of a frozen kernel whose ``a`` holds all of its
#: operand slots (a kernel of no operand, or of three or more).
_SPREAD = object()


def replay(tape: tuple, inputs) -> list:
    """Run a frozen tape on ``inputs``: its results, FLOPs credited once."""
    template, params, program, results, flops, matmul_flops = tape
    values = template.copy()
    values[: len(inputs)] = inputs
    for slot, read, owner, key in params:
        values[slot] = read(owner, key)
    for fn, out, a, b in program:
        if b is None:
            values[out] = fn(values[a])
        elif b is _SPREAD:
            values[out] = fn(*[values[i] for i in a])
        else:
            values[out] = fn(values[a], values[b])
    record_flops(flops - matmul_flops)
    record_flops(matmul_flops, matmul=True)
    return [values[slot] for slot in results]


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
        (out,) = replay(tape, inputs)
        self.replays += 1
        return out

    def _record(self, key, inputs):
        """The per-op forward, recorded; decides this signature for good."""
        recording = _Recording(inputs, parameter_owners(self.model))
        totals = ExecutionContext()
        with recording, execution_context(totals):
            out = self._per_op(inputs)
        result = recording.slots.get(id(out))
        if result is None:
            recording.fail("the forward's result is not the output of a taped op")
        if recording.failed:
            self._tapes[key] = recording.failed
            self.fallbacks += 1
        else:
            self._tapes[key] = recording.freeze([result], totals)
            self.records += 1
        return out
