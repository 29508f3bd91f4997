"""Numeric step replay: what a replayed numeric step may and may not do.

``Session.numeric_step`` runs a key's first step per-op, records the
kernels and the timeline stream of its next replayable one into the
process's ``STEP_TAPES``, and replays both for every later replayable
step — of this session, or of any later one with an equal key; the
``numeric-step-replay`` and ``numeric-step-inherited`` pairs in
``tests/invariants`` hold both to the oracle, ``execute_numeric_step``.
The first cases pin the first pair on every grid of one node, each
engine policy both ways, bf16, a grad scaler and every fault kind.  The
rest drive both through what the registry's draws do not: a plan that
opens on a touched step, a scale that overflows mid-run, a resume into
the same session, an unclassifiable signature, an inherited tape under
another scale, a Supervisor rollback after the recording, and each key
field that keeps a tape from another spec.
The count tests read the session's registry (``runtime.numeric_*``) and
pin what a replayed step may not call.  The root ``conftest.py``
empties the store before every test.
"""

import copy
import dataclasses
import gc
import inspect
import weakref
from pathlib import Path


import numpy as np
import pytest

from repro.faults import FaultPlan, Supervisor
from repro.cluster import collectives
from repro.core import fsdp_ops
from repro.faults import FaultSpec
from repro.nn import DynamicGradScaler, ExecutionContext, execution_context, ops
from repro.nn.context import _state
from repro.nn.precision import BF16_MIXED
from repro.obs import OFF, Tracer
from repro.runtime import STEP_TAPES, RunSpec, Session
from repro.runtime.tapes import CAPACITY, TapeStore
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


def _inherited(session) -> int:
    return session.tracer.metrics.snapshot().get("runtime.numeric_tapes_inherited", 0)


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
    assert replayed._tapes == {} and len(STEP_TAPES) == 0


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
    (reason,) = STEP_TAPES.values()
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


def test_the_store_pins_no_session():
    """A stored tape holds constants, kernels and addresses: once its
    session is gone, so are the session, its engine, its shards and its
    grad scaler, and no kernel is a method bound to any of them."""
    session = Session(_spec(), grad_scaler=DynamicGradScaler(init_scale=2.0**8))
    for step in range(STEPS):
        session.numeric_step(step)
    assert _state.tape is None and session.cluster.timeline._capture is None
    refs = [weakref.ref(value) for value in (
        session, session.engine, session.engine.sharded_parameters(0)[0].shards[0],
        session.trainer.grad_scaler)]
    del session
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    (tape,) = STEP_TAPES.values()
    template, params, program, *_ = tape.kernels
    assert not any(isinstance(value, np.ndarray) for value in template)
    kernels = [getattr(entry[0], "func", entry[0]) for entry in program]
    assert not any(inspect.ismethod(fn) for fn in kernels)
    assert not any(isinstance(value, np.ndarray)
                   for entry in program
                   for value in getattr(entry[0], "keywords", {}).values())
    assert {address[0] for _, address, _ in params} == {"dense", "shard", "trainer"}
    assert all(type(part) in (str, int) for _, address, key in params
               for part in (*address, key))


def test_the_store_drops_its_least_recently_used_key_past_capacity():
    store = TapeStore()
    for key in range(CAPACITY):
        store.put(key, f"tape {key}")
    assert store.get(0) == "tape 0"  # 0 is now the most recently used
    store.put(CAPACITY, f"tape {CAPACITY}")
    assert len(store) == CAPACITY
    assert store.get(1) is None
    assert store.values() == [f"tape {key}" for key in (*range(2, CAPACITY), 0, CAPACITY)]


#: field -> the spec or session a tape of ``_spec()`` must not serve.
#: ``RunSpec.identity()`` is equal for the five spec fields.
KEY_MISSES = {
    "recompute": lambda: Session(_spec(recompute=True)),
    "prefetch": lambda: Session(_spec(prefetch=False)),
    "layer_wrapping": lambda: Session(_spec(layer_wrapping=False)),
    "compute_skew": lambda: Session(_spec(compute_skew=((1, 2.0),))),
    "track_device_memory": lambda: Session(_spec(track_device_memory=False)),
    "precision": lambda: Session(_spec(), precision=BF16_MIXED),
    "tracer": lambda: Session(_spec()),
}


@pytest.mark.parametrize("field", KEY_MISSES)
def test_a_spec_that_differs_in_one_field_records_afresh(field):
    """Each field changes what the step records, so a session that
    differs in it alone runs plain, records and replays its own tape —
    never the stored one.  (``tracer``: the stored tape is untraced.)"""
    recorder = Session(_spec(), tracer=OFF if field == "tracer" else None)
    for step in range(2):
        recorder.numeric_step(step)
    assert len(STEP_TAPES) == 1
    session = KEY_MISSES[field]()
    if session.spec != recorder.spec:
        assert session.spec.identity() == recorder.spec.identity()
    for step in range(3):
        session.numeric_step(step)
    assert _counts(session) == (2, 1, 0)
    assert _inherited(session) == 0 and len(STEP_TAPES) == 2


def _another(value):
    """A value that differs from ``value`` (a model config: by name)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return (*value, (0, 2.0))
    return dataclasses.replace(value, name=value.name + "x")


def test_every_input_a_recording_depends_on_is_in_its_key():
    """Changing any one ``RunSpec`` field changes the step tape key (the
    whole spec is in it, not ``identity()``), and so does changing any
    input outside the spec that changes a recording: the tracer, the
    active precision (the session's or an enclosing context's), a
    numeric step's input signature and grad scaler, a meta step's fold
    mode."""
    session = Session(_spec())
    key, run_spec = session._tape_key(), session.spec
    for field in dataclasses.fields(RunSpec):
        session.spec = copy.copy(run_spec)
        object.__setattr__(session.spec, field.name,
                           _another(getattr(run_spec, field.name)))
        assert session._tape_key() != key, field.name
    session.spec = run_spec
    with execution_context(ExecutionContext(precision=BF16_MIXED)):
        assert session._tape_key() != key
    for other in (Session(_spec(), tracer=OFF), Session(_spec(), precision=BF16_MIXED)):
        assert other.spec == run_spec and other._tape_key() != key

    def keys(run) -> list:
        return list(run.session._tapes)

    def float32_weights(session, step):
        session.trainer.lat_weights = session.trainer.lat_weights.astype(np.float32)

    (plain,) = keys(drive(_spec(), steps=1))
    (scaled,) = keys(drive(_spec(), steps=1, grad_scaler=DynamicGradScaler()))
    (signed,) = keys(drive(_spec(), steps=1, before_step=float32_weights))
    assert plain[:3] == scaled[:3] == signed[:3] and len({plain, scaled, signed}) == 3
    straggler = FaultSpec("straggler", step=1, rank=1, factor=2.0)
    folded, exact = keys(drive(spec((2, 2, 2), fold="on"), (straggler,), steps=2))
    assert folded[:3] == exact[:3] and (folded[3], exact[3]) == (True, False)


def test_an_equal_spec_replays_the_stored_tape_from_its_first_step():
    """The control of the key misses: same spec, same session kwargs."""
    recorder = Session(_spec())
    for step in range(2):
        recorder.numeric_step(step)
    session = Session(_spec())
    for step in range(3):
        session.numeric_step(step)
    assert _counts(session) == (0, 3, 0)
    assert _inherited(session) == 1 and len(STEP_TAPES) == 1


def test_an_inherited_tape_meets_its_oracle():
    """The ``numeric-step-inherited`` pair with every policy that sets
    what a step allocates on: tracked memory, recompute, bf16 and a grad
    scaler.  The pair's model has the inheriting session replay every
    step, from its first; its trackers reach the peak the shared run's
    recorded step carried over."""
    shared, _ = check(Draw((1, 2, 2, 2), meta=False, steps=STEPS, recompute=True,
                           track_device_memory=True, bf16=True, scaler=2.0**8),
                      pairs=("numeric-step-inherited",))
    assert _counts(shared.session) == (2, STEPS - 2, 0)


def test_an_inherited_tape_multiplies_by_its_own_sessions_scale():
    """The recording session's scaler stays at 2**8; the inheriting
    session's starts at 2**20 and doubles every step, and its every
    step replays against an oracle under the same scaler."""
    recorder = Session(_spec(), grad_scaler=DynamicGradScaler(init_scale=2.0**8))
    for step in range(2):
        recorder.numeric_step(step)
    replayed, modes = _assert_replay_is_the_oracle(
        _spec(), scaler={"init_scale": 2.0**20, "growth_interval": 1})
    assert modes == ["replayed"] * STEPS
    assert replayed.trainer.grad_scaler.scale == 2.0**24
    assert _inherited(replayed) == 1


def test_a_resumed_sessions_first_step_is_replayed(tmp_path, calls):
    """The resumed session of an equal spec makes one step, which
    replays the tape the saving session recorded: no per-op call, the
    uninterrupted session's loss."""
    session = Session(_spec())
    for step in range(3):
        session.numeric_step(step)
    resumed = Session(_spec())
    resumed.resume(session.save(tmp_path / "ck.npz"))
    calls.clear()
    loss, _ = resumed.numeric_step(3)
    assert calls == {}
    assert _counts(resumed) == (0, 1, 0) and _inherited(resumed) == 1
    assert loss == session.numeric_step(3)[0]


def test_a_rolled_back_incarnation_replays_its_first_clean_step(
        monkeypatch, tmp_path):
    """``repro faults --plan examples/fault_plan.json --numeric``: the
    first incarnation never records (step 0 is its only clean step), so
    the rolled-back one records on step 4.  A later run of the plan
    finds that tape: each incarnation replays its clean steps from the
    first, step 4 included, and the report is the same."""
    incarnations = []
    build = Supervisor._build_session

    def building(self, spec):
        build(self, spec)
        incarnations.append(self.session)

    monkeypatch.setattr(Supervisor, "_build_session", building)
    plan = FaultPlan.from_json(Path(__file__).resolve().parents[2]
                               / "examples" / "fault_plan.json")
    spec = _spec().replace(track_device_memory=False, num_steps=8)
    first, second = (Supervisor(spec, plan, checkpoint_every=2,
                                checkpoint_dir=tmp_path / run).run(8)
                     for run in ("cold", "warm"))
    # (executed, replayed, fallbacks, inherited) per incarnation
    assert [(*_counts(s), _inherited(s)) for s in incarnations] == [
        (3, 0, 0, 0), (4, 2, 0, 0), (2, 1, 0, 1), (3, 3, 0, 1)]
    assert second.render() == first.render()
    assert second.as_dict() == first.as_dict()


def test_a_rollback_after_the_recording_replays_from_its_first_step(
        monkeypatch, tmp_path):
    """One Supervisor run whose crash comes after the tape is recorded,
    as a fault in a long run does: the rolled-back incarnation replays
    every step from the first, where one that cannot inherit runs steps
    4 and 5 per-op; the report, losses and parameters are the same."""
    incarnations = []
    build = Supervisor._build_session

    def building(self, spec):
        build(self, spec)
        incarnations.append(self.session)

    monkeypatch.setattr(Supervisor, "_build_session", building)
    plan = FaultPlan(faults=(FaultSpec("gpu_crash", step=5, rank=1),))
    spec = _spec().replace(track_device_memory=False, num_steps=8)

    def run(name):
        supervisor = Supervisor(spec, plan, checkpoint_every=2,
                                checkpoint_dir=tmp_path / name)
        report = supervisor.run(8)
        session = supervisor.session
        state = [p.data for p in session.engine.dense_parameters(0)] + [
            shard for p in session.engine.sharded_parameters(0) for shard in p.shards]
        return report, report.history, state

    inherited = run("inherited")
    STEP_TAPES.clear()
    monkeypatch.setattr(STEP_TAPES, "get", lambda key: None)
    alone = run("alone")
    # (executed, replayed, fallbacks, inherited) per incarnation
    assert [(*_counts(s), _inherited(s)) for s in incarnations] == [
        (2, 3, 0, 0), (0, 4, 0, 1), (2, 3, 0, 0), (2, 2, 0, 0)]
    assert inherited[0].as_dict() == alone[0].as_dict()
    assert inherited[1] == alone[1]
    assert all(np.array_equal(a, b) for a, b in zip(inherited[2], alone[2], strict=True))


def test_trainer_rejects_latitude_weights_of_another_grid():
    engine = Session(_spec()).engine
    with pytest.raises(ValueError, match=r"\(3, 5\).*\(8, 8\)"):
        DistributedTrainer(engine, np.ones((3, 5)))
