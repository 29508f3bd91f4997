"""Numeric step replay: what a replayed numeric step may and may not do.

``Session.numeric_step`` runs a signature's first step per-op, records
the kernels and the timeline stream of its next replayable one, and
replays both for every later replayable step; the
``numeric-step-replay`` pair in ``tests/invariants`` holds it to its
oracle, ``execute_numeric_step``.  The first cases pin that pair on
every grid of one node, each engine policy both ways, bf16, a grad
scaler and every fault kind.  The rest drive both through what the
registry's draws do not: a plan that opens on a touched step, a scale
that overflows mid-run, a resume into the same session, an
unclassifiable signature.  The count tests read the session's registry
(``runtime.numeric_steps_*``) and pin what a replayed step may not call.
"""

import numpy as np
import pytest

from repro.cluster import collectives
from repro.core import fsdp_ops
from repro.faults import FaultSpec
from repro.nn import DynamicGradScaler, ExecutionContext, execution_context, ops
from repro.nn.context import _state
from repro.runtime import Session
from repro.train import distributed
from repro.train.distributed import DistributedTrainer
from tests.invariants import assert_same, count_calls, drive, left_behind, spec
from tests.invariants.registry import Draw, check

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


def _spec(grid=(1, 2, 2, 2), **policy):
    return spec(grid, meta=False, seed=3, **policy)


def _counts(session) -> tuple:
    counters = session.tracer.metrics.snapshot()
    return tuple(counters.get(f"runtime.numeric_{name}", 0) for name in
                 ("steps_executed", "steps_replayed", "step_fallbacks"))


def _run(run_spec, faults=(), *, oracle=False, scaler=None, **kwargs):
    """``STEPS`` steps, each way; ``scaler`` holds a fresh grad scaler's
    arguments."""
    return drive(run_spec, faults,
                 Session.execute_numeric_step if oracle else Session.numeric_step,
                 steps=STEPS, grad_scaler=None if scaler is None else
                 DynamicGradScaler(**scaler), **kwargs)


def _assert_replay_is_the_oracle(run_spec, faults=(), **kwargs):
    oracle = _run(run_spec, faults, oracle=True, **kwargs)
    replayed = _run(run_spec, faults, **kwargs)
    assert_same(left_behind(replayed), left_behind(oracle))
    assert _counts(oracle.session) == (STEPS, 0, 0)
    executed, replays, fallbacks = _counts(replayed.session)
    assert executed + replays == STEPS and fallbacks == 0
    assert replayed.modes.count("replayed") == replays
    return replayed.session, replayed.modes


def _check(draw) -> list:
    """The ``numeric-step-replay`` pair on ``draw``: per-step loss and
    digests, errors and everything left behind ``==``; returns how each
    step ran, after the counters agree with it."""
    run, _ = check(draw, pairs=("numeric-step-replay",))
    executed, replays, fallbacks = _counts(run.session)
    assert executed + replays == STEPS and fallbacks == 0
    assert run.modes.count("replayed") == replays
    return run.modes


@pytest.mark.parametrize("grid", CASES, ids=lambda grid: "x".join(map(str, grid)))
def test_replayed_steps_equal_the_every_op_oracle(grid):
    recompute, prefetch, layer_wrapping, track_memory, bf16 = CASES[grid]
    modes = _check(Draw(
        (1, *grid), meta=False, steps=STEPS, monitored=False,
        recompute=recompute, prefetch=prefetch, layer_wrapping=layer_wrapping,
        track_device_memory=track_memory, bf16=bf16))
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
    modes = _check(Draw((1, 2, 2, 2), meta=False, steps=STEPS,
                        monitored=False, scaler=2.0**8, faults=(fault,)))
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
            before_step=watch)
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

    _, modes = _assert_replay_is_the_oracle(_spec(), before_step=rewind)
    assert modes == ["executed", "executed", "replayed", "replayed"]


def test_a_pipelined_session_never_replays():
    replayed, modes = _assert_replay_is_the_oracle(_spec((2, 2, 2, 1)))
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
    oracle, fallen_back = _run(_spec(), oracle=True), _run(_spec())
    assert fallen_back.modes == ["executed"] * STEPS
    session = fallen_back.session
    assert _counts(session) == (STEPS, 0, STEPS - 1)
    (reason,) = session._numeric_tapes.values()
    assert "operand" in reason
    assert_same(left_behind(fallen_back), left_behind(oracle))


@pytest.fixture
def calls(monkeypatch):
    """Counts calls into the per-op machinery a replay must not reach."""
    # ``all_gather`` is imported by name: count it where it is called.
    return count_calls(monkeypatch, (ops, "_binary"), (ops, "matmul"),
                       (fsdp_ops, "gather_param"), (collectives, "all_gather"),
                       (fsdp_ops, "all_gather"))


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
