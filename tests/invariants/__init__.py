"""Run helpers shared by the invariant registry and the suites that pin
counts, routing and goldens.

``spec`` builds the small whole-node specs every oracle pair runs,
``drive`` steps a session the way the Supervisor does (a step that
raises is retried once, in place) and records how each step ran, and
``left_behind`` is everything a finished run leaves that a later reader
could tell apart.  ``tests/invariants/test_registry.py`` holds each
``RunSpec`` fast path to its named oracle with them.
"""

import hashlib
import itertools
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.cluster.timeline import EventStream, FoldedTimeline, _ledger_values
from repro.core.hybrid_block import HybridSTOPTrunk
from repro.faults import FaultError, FaultInjector, FaultPlan
from repro.meta import MetaArray
from repro.models.configs import OrbitConfig
from repro.nn import ops
from repro.obs import SpanColumns
from repro.runtime import RunSpec, Session, StepLoop


def config(depth: int = 2, *, meta: bool = True) -> OrbitConfig:
    """The meta specs' model (``num_heads=4``, so tp = 8 shards below a
    head), or the tiny numeric one."""
    if meta:
        return OrbitConfig(
            name="fold-tiny", embed_dim=64, depth=depth, num_heads=4,
            in_vars=3, out_vars=3, img_height=32, img_width=64,
            patch_size=8, mlp_ratio=4.0, qk_layernorm=False,
        )
    return OrbitConfig("tiny", embed_dim=16, depth=depth, num_heads=4,
                       in_vars=3, out_vars=2, img_height=8, img_width=8,
                       patch_size=4)


def spec(grid, *, depth: int = 2, micro_batch: int = 2, meta: bool = True,
         **policy) -> RunSpec:
    """``grid`` is ``(tp, fsdp, ddp)`` or ``(pp, tp, fsdp, ddp)``, on
    8-GCD nodes (a smaller world is one node)."""
    pp, tp, fsdp, ddp = grid if len(grid) == 4 else (1, *grid)
    world = pp * tp * fsdp * ddp
    return RunSpec(
        config=config(depth, meta=meta), num_gpus=world,
        gpus_per_node=min(8, world), pp_size=pp, tp_size=tp, fsdp_size=fsdp,
        ddp_size=ddp, micro_batch=micro_batch, meta=meta, **policy)


@dataclass
class Run:
    """A driven session and, per completed step, how it ran."""

    session: Session
    #: ``(step, type, message, ledgers at the raise)`` per raise.
    errors: list = field(default_factory=list)
    #: "executed" / "replayed" (None when the session is untraced).
    modes: list = field(default_factory=list)
    #: Could the injector touch the step's last attempt?
    touched: list = field(default_factory=list)
    #: Did the step raise before it completed?
    retried: list = field(default_factory=list)
    #: The folded timeline's mode after the step (None: never folds).
    folded: list = field(default_factory=list)
    #: Numeric sessions: the loss and the state digests after the step.
    states: list = field(default_factory=list)


def _replays(session) -> int:
    kind = "meta" if session.spec.meta else "numeric"
    return session.tracer.metrics.snapshot().get(
        f"runtime.{kind}_steps_replayed", 0)


def drive(spec, plan=(), step_fn=None, tracer=None, monitor=None, *,
          steps=None, before_step=None, **session_kwargs) -> Run:
    """Step ``spec`` ``steps`` times (default ``spec.num_steps``) through
    a :class:`StepLoop` with the session's hooks.

    ``plan`` is a :class:`FaultPlan` or its faults (``None`` attaches
    no injector); ``step_fn`` an unbound :class:`Session` step method
    (default: ``meta_step`` / ``numeric_step``); ``before_step(session,
    step)`` runs before each step.  A step that raises a
    :class:`FaultError` is retried once in place, as the Supervisor
    retries a transient fault.
    """
    session = Session(spec, tracer=tracer, monitor=monitor, **session_kwargs)
    if plan is not None:
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(faults=tuple(plan))
        session.cluster.attach_injector(
            FaultInjector(plan, gpus_per_node=spec.gpus_per_node))
    injector = session.cluster.injector  # OFF without a plan
    if step_fn is None:
        step_fn = Session.meta_step if spec.meta else Session.numeric_step
    loop = StepLoop(lambda step: step_fn(session, step),
                    hooks=session.loop_hooks())
    run = Run(session)
    traced = session.tracer.enabled
    for step in range(spec.num_steps if steps is None else steps):
        if before_step is not None:
            before_step(session, step)
        if plan is not None:
            injector.begin_step(step)
        before = _replays(session)
        try:
            touched = injector.affects_step(step)
            loop.run_step()
        except FaultError as err:
            run.errors.append((step, type(err), str(err), ledgers(session)))
            touched = injector.affects_step(step)
            loop.run_step()
        run.retried.append(bool(run.errors) and run.errors[-1][0] == step)
        run.touched.append(touched)
        run.modes.append(None if not traced else
                         "replayed" if _replays(session) > before else "executed")
        run.folded.append(getattr(session.cluster.timeline, "folded", None))
        if not spec.meta:
            run.states.append(_step_state(session, loop.history[-1][1]))
    return run


def assert_same(got: dict, want: dict, label: str = "") -> None:
    """``==`` one field at a time, for a readable failure."""
    assert got.keys() == want.keys(), label
    for key in want:
        assert got[key] == want[key], f"{label}{key} differs"


@contextmanager
def walked_streams():
    """Every replay of an ``EventStream`` takes the event walk: the
    ``compiled-replay`` oracle, with no compiled form built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EventStream, "compiled", lambda *args, **kwargs: None)
        yield


@contextmanager
def every_block():
    """Engines built and stepped inside run the trunk's execute-every-block
    oracle instead of depth replay."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HybridSTOPTrunk, "forward",
                      HybridSTOPTrunk.forward_every_block)
        patch.setattr(HybridSTOPTrunk, "backward",
                      HybridSTOPTrunk.backward_every_block)
        yield


#: ``repro.nn.ops`` funnel -> the NumPy wrapper whose C call it makes on
#: an ``ndarray``.
WRAPPER_CALLS = {"sum_": np.sum, "mean": np.mean, "amax": np.max,
                 "reshape": np.reshape, "transpose": np.transpose,
                 "swapaxes": np.swapaxes, "broadcast_to": ops._broadcast_to_copy}


@contextmanager
def wrapper_funnels():
    """The ``ops`` funnels make NumPy's wrapper call (``np.sum``,
    ``np.mean``, ``np.reshape``, ...) on every operand, not the C call
    it would make on an ``ndarray``: the ``lowered-kernels`` oracle."""
    def reduction(wrapper):
        return lambda x, axis=None, keepdims=False: ops._reduce(x, wrapper, axis, keepdims)

    def shape_move(lowered, wrapper):
        return lambda x, *args: (lowered(x, *args) if isinstance(x, MetaArray)
                                 else ops.kernel(wrapper, x, *args))

    with pytest.MonkeyPatch.context() as patch:
        for name, wrapper in WRAPPER_CALLS.items():
            patch.setattr(ops, name, reduction(wrapper) if name in ("sum_", "mean", "amax")
                          else shape_move(getattr(ops, name), wrapper))
        yield


def count_calls(monkeypatch, *targets) -> Counter:
    """Patch each ``(owner, name)`` to count its calls under ``name``."""
    counts = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return counts


def ledgers(session) -> list:
    """Every rank's six ledger fields, by ``float.hex()``."""
    timeline = session.cluster.timeline
    return [_hexes(timeline.ledger(rank))
            for rank in range(session.cluster.world_size)]


def _hexes(ledger) -> list:
    return [float(value).hex() for value in _ledger_values(ledger)]


def expansion(session) -> tuple:
    """A folded run's ``expand()``: every rank's ledger by
    ``float.hex()``, the span columns and the span rows an exact run
    records."""
    expanded, spans = session.cluster.timeline.expand()
    return list(map(_hexes, expanded)), columns(spans), list(spans._rows)


#: The span columns of text, compared as lists.
_TEXT_COLUMNS = ("name", "scope")


def columns(trace) -> dict:
    """Every ``SpanColumns.of(trace)`` column: text as lists, numbers as
    their dtype and bytes (so ``-0.0`` and NaN compare exactly)."""
    cols = SpanColumns.of(trace)
    return {name: getattr(cols, name).tolist() if name in _TEXT_COLUMNS
            else (str(getattr(cols, name).dtype), getattr(cols, name).tobytes())
            for name in SpanColumns.__slots__}


def keep_rows(left: dict, keep) -> None:
    """Drop from ``left``'s spans, and from its columns, every row for
    which ``keep(row)`` is false."""
    mask = [bool(keep(row)) for row in left["spans"]]
    left["spans"] = [row for row, kept in zip(left["spans"], mask) if kept]
    left["columns"] = {
        name: [value for value, kept in zip(column, mask) if kept]
        if name in _TEXT_COLUMNS else
        (column[0], np.frombuffer(column[1], column[0])[mask].tobytes())
        for name, column in left["columns"].items()}


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _step_state(session, loss) -> dict:
    engine, optimizer = session.engine, session.trainer.optimizer
    replicas = range(session.spec.ddp_size)
    return {
        "loss": float(loss).hex(),
        "trunk_grads": [_digest(grad for _, grad in
                                sorted(engine.trunks[d].gathered_grads().items()))
                        for d in replicas],
        "dense_grads": [_digest(p.grad for p in engine.dense_parameters(d))
                        for d in replicas],
        "params": _digest(handle.data for handle in optimizer.params),
        "moments": _digest([*optimizer._m, *optimizer._v]),
    }


def left_behind(run: Run) -> dict:
    """Everything a run leaves that a later reader could tell apart."""
    session = run.session
    timeline, engine = session.cluster.timeline, session.engine
    journal = session.monitor.journal if session.monitor.enabled else None
    next_cid = next(timeline._collective_ids)
    timeline._collective_ids = itertools.count(next_cid)  # read, not spent
    left = {
        "errors": run.errors,
        "ledgers": ledgers(session),
        "walltime": timeline.walltime_s().hex(),
        "next_cid": next_cid,
        # before the rows are read: a compiled landing's columns are
        # its own until then
        "columns": columns(session.tracer),
        "spans": list(getattr(session.tracer.spans, "_rows", ())),
        "memory": {device.rank: (device.memory.peak_bytes,
                                 device.memory.live_allocations,
                                 device.memory.category_current("params"))
                   for device in session.cluster.touched_devices()},
        "peak": session.peak_memory_bytes(),
        "journal": None if journal is None else journal.to_jsonl(),
        "grad_shards": [
            [None if p.grad_shards is None else [g.shape for g in p.grad_shards]
             for p in engine.sharded_parameters(d)]
            for d in range(len(engine.trunks))],
        "dense_grads": [[None if p.grad is None else p.grad.shape
                         for p in engine.dense_parameters(d)]
                        for d in range(len(engine.trunks))],
        "block_caches": [[block._cache is not None or any(
            module._cache is not None for module in block.submodules)
            for block in trunk.blocks] for trunk in engine.trunks],
    }
    if isinstance(timeline, FoldedTimeline):
        # ``expand()`` replays the log and nothing else, so two equal
        # logs expand equally; only the ``fold`` pair reads it.
        left["folded"] = timeline.folded
        left["log"] = timeline._log
    if not session.spec.meta:
        left["states"] = run.states
    return left
