"""Numeric step replay == executing every step, bitwise.

``Session.numeric_step`` runs a signature's first step per-op, records
the kernels and the timeline stream of its next replayable one, and
replays both for every later replayable step.  The oracle is
``Session.execute_numeric_step``, which runs every op of every step.
Each case steps one session each way and demands ``==`` on what a step
leaves behind: the loss by ``float.hex()``; sha256 digests of the
gathered trunk and dense gradients, the parameters and the AdamW
moments after every step; the six ledger fields of every rank; the next
collective id; the span table row for row; and each device's memory
tracker — over grids, engine policies, bf16, a dynamic grad scaler,
every fault kind and a resume into the same session.  The count tests
read the session's registry (``runtime.numeric_steps_*``) and pin what
a replayed step may not call.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.cluster import collectives
from repro.core import fsdp_ops
from repro.faults import FaultError, FaultInjector, FaultPlan, FaultSpec
from repro.nn import DynamicGradScaler, ExecutionContext, execution_context, ops
from repro.nn.context import _state
from repro.nn.precision import BF16_MIXED
from repro.runtime import RunSpec, Session
from repro.train import distributed
from repro.train.distributed import DistributedTrainer
from tests.runtime.test_session import TINY
from tests.runtime.test_step_replay import _assert_same, _ledgers

STEPS = 4

#: grid -> (recompute, prefetch, layer_wrapping, track_device_memory,
#: bf16): each policy meets both of its values across the grids.
CASES = {
    (2, 2, 2): (False, False, True, False, False),
    (1, 4, 2): (True, True, False, True, False),
    (2, 1, 4): (False, True, True, False, True),
    (2, 4, 1): (True, False, True, True, True),
    (1, 1, 8): (False, False, False, True, True),
}


def _spec(grid=(2, 2, 2), **policy):
    tp, fsdp, ddp = grid
    return RunSpec(config=TINY, num_gpus=tp * fsdp * ddp, gpus_per_node=8,
                   tp_size=tp, fsdp_size=fsdp, ddp_size=ddp, micro_batch=2,
                   meta=False, seed=3, **policy)


def _counts(session) -> tuple:
    counters = session.tracer.metrics.snapshot()
    return tuple(counters.get(f"runtime.numeric_{name}", 0) for name in
                 ("steps_executed", "steps_replayed", "step_fallbacks"))


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


def _left_behind(session) -> dict:
    timeline = session.cluster.timeline
    return {
        "ledgers": _ledgers(session),
        "next_cid": next(timeline._collective_ids),
        "spans": session.tracer.spans,
        "memory": {device.rank: (device.memory.peak_bytes,
                                 device.memory.live_allocations)
                   for device in session.cluster.touched_devices()},
    }


def _run(spec, faults=(), *, oracle=False, steps=STEPS, between=None,
         scaler=None, bf16=False):
    """Drive ``steps`` steps; a step that raises is retried in place, as
    the Supervisor retries a transient fault.  ``between(session, step)``
    runs before each step; ``scaler`` holds a fresh grad scaler's
    arguments.  Returns the session, each step's state, how each step
    ran ("executed"/"replayed") and every error."""
    session = Session(
        spec, precision=BF16_MIXED if bf16 else None,
        grad_scaler=None if scaler is None else DynamicGradScaler(**scaler))
    injector = FaultInjector(FaultPlan(faults=tuple(faults)),
                             gpus_per_node=spec.gpus_per_node)
    session.cluster.attach_injector(injector)
    step_fn = session.execute_numeric_step if oracle else session.numeric_step
    states, modes, errors = [], [], []
    for step in range(steps):
        if between is not None:
            between(session, step)
        injector.begin_step(step)
        before = _counts(session)
        try:
            loss, _ = step_fn(step)
        except FaultError as err:
            errors.append((step, type(err), str(err)))
            loss, _ = step_fn(step)
        after = _counts(session)
        modes.append("replayed" if after[1] > before[1] else "executed")
        states.append(_step_state(session, loss))
    return session, states, modes, errors


def _assert_replay_is_the_oracle(spec, faults=(), **kwargs):
    oracle, want, _, oracle_errors = _run(spec, faults, oracle=True, **kwargs)
    replayed, got, modes, errors = _run(spec, faults, **kwargs)
    assert errors == oracle_errors
    for step, (mine, theirs) in enumerate(zip(got, want)):
        assert mine == theirs, f"step {step}"
    _assert_same(_left_behind(replayed), _left_behind(oracle))
    assert _counts(oracle) == (STEPS, 0, 0)
    executed, replays, fallbacks = _counts(replayed)
    assert executed + replays == STEPS and fallbacks == 0
    assert modes.count("replayed") == replays
    return replayed, modes


@pytest.mark.parametrize("grid", CASES, ids=lambda grid: "x".join(map(str, grid)))
def test_replayed_steps_equal_the_every_op_oracle(grid):
    recompute, prefetch, layer_wrapping, track_memory, bf16 = CASES[grid]
    spec = _spec(grid, recompute=recompute, prefetch=prefetch,
                 layer_wrapping=layer_wrapping,
                 track_device_memory=track_memory)
    _, modes = _assert_replay_is_the_oracle(spec, bf16=bf16)
    # The first step runs plain, the second records, the rest replay.
    assert modes == ["executed", "executed"] + ["replayed"] * (STEPS - 2)


@pytest.mark.parametrize("fault", [
    FaultSpec("straggler", step=2, rank=1, factor=3.0, duration_steps=1),
    FaultSpec("link_degrade", step=2, rank=2, factor=2.5, duration_steps=1),
    FaultSpec("collective_timeout", step=2, rank=1, op="all_gather"),
    FaultSpec("gpu_crash", step=2, rank=3),
    FaultSpec("node_loss", step=2, rank=5),
    FaultSpec("grad_corruption", step=2, rank=0),
], ids=lambda fault: fault.kind.value)
def test_a_step_a_fault_can_touch_executes(fault):
    """Step 2 is the injector's: it runs every op, and so does the retry
    of a crash it raises (the raise leaves gathers allocated, which an
    executed retry stacks its own on)."""
    _, modes = _assert_replay_is_the_oracle(
        _spec(), (fault,), scaler={"init_scale": 2.0**8})
    assert modes[2] == "executed" and modes[3] == "replayed"


def test_a_step_a_fault_touched_still_sights_its_signature():
    """A session a fault plan opens on (the Supervisor's rebuilt one)
    records on its first untouched step, not its second."""
    fault = FaultSpec("straggler", step=0, rank=1, factor=2.0, duration_steps=2)
    _, modes = _assert_replay_is_the_oracle(_spec(), (fault,))
    assert modes == ["executed"] * 3 + ["replayed"]


def test_the_grad_scale_is_read_at_every_replay():
    """The scale doubles after every clean step and halves on overflow
    (2**127 overflows a float32 gradient here): each replay multiplies
    the seed gradient by its own step's scale, and the replayed step
    that overflows backs off and skips its update."""
    scales, skipped = [], []

    def watch(session, step):
        scales.append(session.trainer.grad_scaler.scale)
        skipped.append(session.trainer.last_step_skipped)

    with np.errstate(over="ignore", invalid="ignore"):
        replayed, modes = _assert_replay_is_the_oracle(
            _spec(), scaler={"init_scale": 2.0**124, "growth_interval": 1},
            between=watch)
    # the oracle's four steps, then the replaying session's
    assert scales == [2.0**124, 2.0**125, 2.0**126, 2.0**127] * 2
    assert skipped == [False] * 8
    assert modes[3] == "replayed" and replayed.trainer.last_step_skipped
    assert replayed.trainer.grad_scaler.scale == 2.0**126


def test_a_resume_into_the_same_session_replays_on(tmp_path):
    """``resume`` rebinds every dense ``.data`` and flat shard, the AdamW
    moments and the step counter; the tape reads through the owners."""
    archive = tmp_path / "ck.npz"  # the checkpoint span names it

    def rewind(session, step):
        if step == 2:
            session.save(archive)
        elif step == 3:
            session.resume(archive)

    _, modes = _assert_replay_is_the_oracle(_spec(), between=rewind)
    assert modes == ["executed", "executed", "replayed", "replayed"]


def test_a_pipelined_session_never_replays():
    spec = RunSpec(config=TINY, num_gpus=8, gpus_per_node=8, tp_size=2,
                   fsdp_size=2, ddp_size=1, pp_size=2, micro_batch=2,
                   meta=False, seed=3)
    replayed, modes = _assert_replay_is_the_oracle(spec)
    assert modes == ["executed"] * STEPS
    assert replayed._numeric_tapes == {}


def test_a_signature_the_recorder_cannot_classify_runs_per_op_for_good(
        monkeypatch):
    """A loss computed outside the taped kernels: the recording meets a
    gradient it did not see made, so the signature falls back, counted
    once per step from the failed recording on."""
    def untaped(prediction, target, lat_weights):
        diff = prediction.astype(np.float64) - target.astype(np.float64)
        weights = np.broadcast_to(lat_weights, prediction.shape[-2:])
        return float((weights * diff**2).mean()), 2.0 * weights * diff / diff.size

    monkeypatch.setattr(distributed, "latitude_weighted_mse", untaped)
    oracle, want, _, _ = _run(_spec(), oracle=True)
    session, got, modes, _ = _run(_spec())
    assert got == want and modes == ["executed"] * STEPS
    assert _counts(session) == (STEPS, 0, STEPS - 1)
    (reason,) = session._numeric_tapes.values()
    assert "operand" in reason
    _assert_same(_left_behind(session), _left_behind(oracle))


@pytest.fixture
def calls(monkeypatch):
    """Counts calls into the per-op machinery a replay must not reach."""
    counts = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(ops, "_binary")
    counted(ops, "matmul")
    counted(fsdp_ops, "gather_param")
    # ``all_gather`` is imported by name: count it where it is called.
    for caller in (collectives, fsdp_ops):
        counted(caller, "all_gather")
    return counts


def test_a_replayed_step_runs_no_op(calls):
    session = Session(_spec())
    for step in range(2):
        session.numeric_step(step)
    assert _counts(session) == (2, 0, 0)
    assert all(calls[name] for name in
               ("_binary", "matmul", "gather_param", "all_gather"))
    calls.clear()
    for step in range(2, 2 + STEPS):
        session.numeric_step(step)
    assert _counts(session) == (2, STEPS, 0)
    assert calls == {}


def test_enclosing_contexts_see_the_replayed_flops():
    totals = []
    for oracle in (True, False):
        session = Session(_spec(recompute=True))
        step_fn = session.execute_numeric_step if oracle else session.numeric_step
        outer = ExecutionContext()
        with execution_context(outer):
            per_step = []
            for step in range(STEPS):
                inner = ExecutionContext()
                with execution_context(inner):
                    step_fn(step)
                per_step.append((inner.flops, inner.matmul_flops))
        totals.append((outer.flops, outer.matmul_flops, per_step))
    assert totals[0] == totals[1]
    assert totals[0][0] > totals[0][1] > 0


def test_the_step_tape_holds_no_array():
    """Constants are plain Python values and kernels are bound to
    constants only: the tape keeps no activation, gradient or weight."""
    session = Session(_spec())
    for step in range(STEPS):
        session.numeric_step(step)
    (tape,) = session._numeric_tapes.values()
    (template, params, program, *_), *_rest = tape
    assert not any(isinstance(value, np.ndarray) for value in template)
    assert not any(isinstance(value, np.ndarray)
                   for entry in program
                   for value in getattr(entry[0], "keywords", {}).values())
    assert _state.tape is None and session.cluster.timeline._capture is None


def test_trainer_rejects_latitude_weights_of_another_grid():
    engine = Session(_spec()).engine
    with pytest.raises(ValueError, match=r"\(3, 5\).*\(8, 8\)"):
        DistributedTrainer(engine, np.ones((3, 5)))
