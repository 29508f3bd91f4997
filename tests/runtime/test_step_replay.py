"""Step replay: what a replayed meta step may and may not do.

``Session.meta_step`` executes the engine step once per fold mode under
a ``Timeline.capture()`` and replays that stream for every later step;
the ``meta-step-replay`` pair in ``tests/invariants`` holds it to its
oracle, ``execute_meta_step``, over the cross product.  The cases below
pin that pair on the replan demo's layouts, tp = 8 sub-head sharding
and every fault class landing on a replayed step.  The other tests pin
the routing — an error raised from a replayed step, a refold taking the
stored folded stream, a raise keeping none, a rolled-back incarnation
replaying from its first step, pp > 1 never replaying — and the
counts: a replayed step runs no op, prices no collective and builds no
``MetaArray``.
"""

import itertools

import pytest

from repro.cluster import collectives
from repro.cluster.timeline import Timeline
from repro.core import fsdp_ops, hybrid_attention
from repro.faults import FaultError, FaultInjector, FaultPlan, FaultSpec, Supervisor
from repro.meta import MetaArray
from repro.nn import ops
from repro.nn.context import ExecutionContext, execution_context
from repro.obs import RunMonitor, Tracer
from repro.parallel import engine
from repro.replan.scenario import (
    DEMO_STEPS,
    DEMO_SUPERVISOR_KWARGS,
    demo_plan,
    demo_spec,
)
from repro.runtime import STEP_TAPES, Session
from tests.cluster.test_fold_scaling import ONE_STAGE_PINS, orbit_1b_spec
from tests.invariants import (
    assert_same,
    count_calls,
    drive,
    keep_rows,
    left_behind,
    spec,
)
from tests.invariants.registry import Draw, check, meets

STEPS = 4

#: (tp, fsdp, ddp) on whole 8-GCD nodes; the first two are the replan
#: demo's layouts before and after its switch.
GRIDS = [(4, 2, 2), (2, 4, 2), (2, 2, 2), (1, 8, 1), (8, 1, 2)]

#: Every fault lands at step >= 1: with fold off that is a replayed step.
PLANS = {
    "clean": (),
    "straggler": (FaultSpec("straggler", step=1, rank=1, factor=3.0,
                            duration_steps=2),),
    "link_degrade": (FaultSpec("link_degrade", step=1, rank=2, factor=2.5,
                               duration_steps=2),),
    "timeout": (FaultSpec("collective_timeout", step=2, rank=1),),
    "gpu_crash": (FaultSpec("gpu_crash", step=1, rank=3),),
}

#: (recompute, prefetch, track_device_memory, traced): the cases below
#: walk this cycle, so every combination meets several grids and plans.
_FLAGS = list(itertools.product((False, True), repeat=4))

CASES = [
    pytest.param(grid, fold, plan, *_FLAGS[i % len(_FLAGS)],
                 id=f"{'x'.join(map(str, grid))}-fold_{fold}-{plan}-"
                    f"{''.join('ny'[flag] for flag in _FLAGS[i % len(_FLAGS)])}")
    for i, (grid, fold, plan) in enumerate(
        itertools.product(GRIDS, ("off", "on"), PLANS))
]


def _tape(session):
    """The step tape of the session's current fold mode (None: none yet)."""
    folded = getattr(session.cluster.timeline, "folded", None)
    bound = session._tapes.get(session._tape_key(folded))
    return None if bound is None else bound[0]


def _step_counts(session) -> tuple:
    counters = session.tracer.metrics.snapshot()
    return (counters.get("runtime.meta_steps_executed", 0),
            counters.get("runtime.meta_steps_replayed", 0))


def _run(spec, faults=(), *, oracle=False):
    """``STEPS`` traced, monitored steps; a raise is retried in place."""
    return drive(spec, faults,
                 Session.execute_meta_step if oracle else Session.meta_step,
                 tracer=Tracer(), monitor=RunMonitor(), steps=STEPS)


@pytest.mark.parametrize(
    "grid, fold, plan, recompute, prefetch, track_memory, traced", CASES)
def test_replayed_run_equals_the_every_op_oracle(
        grid, fold, plan, recompute, prefetch, track_memory, traced):
    """The ``meta-step-replay`` pair on one case: errors (type, message,
    ledgers at the raise) and everything left behind ``==``, and each
    step executed or replayed as the fold modes predict."""
    run, _ = check(Draw(
        (1, *grid), depth=3, fold=fold, recompute=recompute,
        prefetch=prefetch, track_device_memory=track_memory, traced=traced,
        faults=PLANS[plan], steps=STEPS), pairs=("meta-step-replay",))
    assert run.session.fold_decision.folded is (fold == "on")
    assert len(run.errors) == (plan in ("timeout", "gpu_crash"))
    if traced:  # the counters count completed steps, not attempts
        executed, replays = _step_counts(run.session)
        assert executed + replays == STEPS
        if fold == "off" or plan == "clean":
            # One execution; every fault landed on a replayed step.
            assert (executed, replays) == (1, STEPS - 1)
        else:
            # The unfold captures the exact stream; the refold replays
            # the folded one step 0 stored.
            assert (executed, replays) == (2, STEPS - 2)


def test_an_error_from_a_replayed_step_is_the_executed_one():
    """Every crash-class kind, raised by ``timeline.replay`` at the
    event the executing engine would have reached, with the ledger
    prefix it would have left (the ``meta-step-replay`` pair); the
    retry replays again."""
    for kind in ("collective_timeout", "gpu_crash", "node_loss"):
        for op in (None, "all_reduce", "dense_grad_sync"):
            replayed, _ = check(Draw(
                (1, 2, 2, 2), depth=3, steps=STEPS,
                faults=(FaultSpec(kind, step=2, rank=5, op=op),)),
                pairs=("meta-step-replay",))
            assert len(replayed.errors) == 1, (kind, op)
            step, _, message, _ = replayed.errors[0]
            assert step == 2 and (op is None or f"op {op!r}" in message)
            assert _step_counts(replayed.session) == (1, STEPS - 1)


def test_a_replayed_raise_has_no_stack_to_unwind():
    """The one thing an executed raise leaves that a replayed one does
    not: the engine's ``with gather(...)`` blocks release on the way
    out, which a traced run records as zero-duration ``free.*`` markers
    *after* the fault.  A fault that names an op fired while a gather
    is held shows it; everything else stays ``==``."""
    run_spec = spec((2, 2, 2), depth=3, track_device_memory=False)
    fault = FaultSpec("collective_timeout", step=2, rank=1, op="reduce_scatter")
    theirs = left_behind(_run(run_spec, (fault,), oracle=True))
    mine = left_behind(_run(run_spec, (fault,)))
    assert len(mine["errors"]) == 1
    mine_rows = set(mine["spans"])
    unwound = [row for row in theirs["spans"] if row not in mine_rows]
    assert unwound and all(
        kind == "gather" and name.startswith("free.") and dur == 0.0
        for kind, name, _, _, dur, *_ in unwound)
    keep_rows(theirs, lambda row: row not in unwound)
    assert_same(mine, theirs)


def test_a_pipelined_session_never_replays():
    """``pipeline.stall`` seconds are read back from the ledgers, so a
    pp > 1 step is not a function of the spec alone."""
    run_spec = spec((2, 2, 2, 2), depth=4)
    run = _run(run_spec)
    meets("meta-step-replay", run, _run(run_spec, oracle=True))
    session = run.session
    assert not session.engine.step_stream_is_invariant
    assert session._tapes == {} and len(STEP_TAPES) == 0
    assert _step_counts(session) == (STEPS, 0)


def test_a_fold_flip_drops_the_stream():
    """A grad-corruption fault at step 2 unfolds step 2 and lets step 3
    refold: step 2 captures the exact stream, and step 3 takes the
    folded one step 0 stored, so two captures and three replays."""
    fault = FaultSpec("grad_corruption", step=2, rank=1)
    session = Session(spec((2, 2, 2), depth=3, fold="on"))
    injector = FaultInjector(FaultPlan(faults=(fault,)))
    session.cluster.attach_injector(injector)
    streams, modes = [], []
    for step in range(5):
        injector.begin_step(step)
        session.meta_step(step)
        streams.append(_tape(session).events)
        modes.append(session.cluster.timeline.folded)
    assert modes == [True, True, False, True, True]
    assert streams[0] is streams[1]
    assert streams[2] is not streams[1]
    assert streams[3] is streams[0] and streams[4] is streams[0]
    assert any(event[0] == "push" for event in streams[0])
    assert not any(event[0] == "push" for event in streams[2])
    assert _step_counts(session) == (2, 3)


def test_a_rolled_back_incarnation_replays_from_its_first_step(tmp_path):
    """A crash after the step-2 checkpoint rebuilds the session; the
    spec's stream is stored, so the new incarnation executes no step."""
    plan = FaultPlan(faults=(FaultSpec("gpu_crash", step=3, rank=1),))
    supervisor = Supervisor(spec((2, 2, 2), depth=3), plan,
                            checkpoint_every=2, checkpoint_dir=tmp_path)
    report = supervisor.run(5)
    assert [event.action for event in report.events] == ["rollback_restart"]
    assert _step_counts(supervisor.session) == (0, 3)  # steps 2, 3 and 4


def test_a_step_that_raised_leaves_no_stream():
    fault = FaultSpec("collective_timeout", step=0, rank=1, op="all_reduce")
    session = Session(spec((2, 2, 2), depth=3))
    injector = FaultInjector(FaultPlan(faults=(fault,)))
    session.cluster.attach_injector(injector)
    injector.begin_step(0)
    with pytest.raises(FaultError):
        session.meta_step(0)
    assert _tape(session) is None and len(STEP_TAPES) == 0
    assert session.cluster.timeline._capture is None
    session.meta_step(0)  # the retry executes, and is kept
    assert _tape(session) is not None
    session.meta_step(1)
    assert _step_counts(session) == (1, 1)


@pytest.fixture
def calls(monkeypatch):
    """Counts calls into the per-op machinery a replay must not reach.
    ``all_reduce`` is imported by name: it is counted where it is called.
    FoldedTimeline inherits record_comm (it overrides only the landing)."""
    return count_calls(
        monkeypatch, (ops, "_binary"), (fsdp_ops, "gather_param"),
        (MetaArray, "__init__"), (Timeline, "record_comm"),
        *((caller, "all_reduce")
          for caller in (collectives, fsdp_ops, hybrid_attention, engine)))


@pytest.mark.parametrize("grid, fold, comms_per_step", ONE_STAGE_PINS.values(),
                         ids=ONE_STAGE_PINS.keys())
def test_a_replayed_step_runs_no_op(calls, grid, fold, comms_per_step):
    """N steps execute once; the rest reach the timeline and nothing
    above it, with the collective count the executed step has: every
    replay, the first included, lands the tape's compiled form — not
    one ``record_comm``."""
    session = Session(orbit_1b_spec(grid, fold=fold))
    session.meta_step(0)
    assert calls.pop("record_comm") == comms_per_step
    assert all(calls[name] for name in
               ("_binary", "all_reduce", "gather_param", "__init__"))
    calls.clear()
    for step in (1, 2, 3):
        session.meta_step(step)
    assert calls == {}
    assert next(session.cluster.timeline._collective_ids) == 4 * comms_per_step
    assert _step_counts(session) == (1, 3)


def test_a_one_step_session_pays_one_extend_per_depth_capture():
    """The step capture costs a lone step nothing per replayed block:
    each depth replay is one by-reference entry, and each depth capture
    lands in the step's stream once, when it closes."""
    depth = 5
    session = Session(spec((2, 2, 2), depth=depth))
    session.meta_step(0)
    events = _tape(session).events
    replays = [entry for entry in events if entry[0] == "replay"]
    # forward + backward, per DDP replica, depth - 1 blocks each.
    assert len(replays) == 2 * 2 * (depth - 1)
    streams = {id(entry[1]): entry[1] for entry in replays}
    assert len(streams) == 2 * 2
    flat = sum(len(stream) for stream in streams.values())
    assert len(events) < 2 * flat  # block 0's events once, not depth times
    assert not any(entry[0] == "replay" for stream in streams.values()
                   for entry in stream)


def test_enclosing_contexts_see_the_replayed_flops():
    run_spec = spec((2, 2, 2), depth=3, recompute=True)
    totals = []
    for oracle in (True, False):
        session = Session(run_spec)
        step_fn = session.execute_meta_step if oracle else session.meta_step
        outer = ExecutionContext()
        with execution_context(outer):
            per_step = []
            for step in range(3):
                inner = ExecutionContext()
                with execution_context(inner):
                    step_fn(step)
                per_step.append((inner.flops, inner.matmul_flops))
        totals.append((outer.flops, outer.matmul_flops, per_step))
    assert totals[0] == totals[1]
    assert totals[0][0] > totals[0][1] > 0


def test_the_supervised_demo_replays_all_but_one_step_per_session(tmp_path):
    """The workload the shortcut is for: two sessions (before and after
    the replan switch), one executed step each, same report and journal
    bytes as the every-op oracle."""
    def demo(name):
        monitor = RunMonitor()
        supervisor = Supervisor(demo_spec(), demo_plan(),
                                checkpoint_dir=tmp_path / name,
                                session_kwargs={"monitor": monitor},
                                **DEMO_SUPERVISOR_KWARGS)
        sessions = []
        build = supervisor._build_session

        def recording_build(*args, **kwargs):
            build(*args, **kwargs)
            sessions.append(supervisor.session)

        supervisor._build_session = recording_build
        report = supervisor.run(DEMO_STEPS)
        return report, monitor.journal.to_jsonl(), sessions

    report, journal, sessions = demo("replayed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Session, "meta_step", Session.execute_meta_step)
        oracle_report, oracle_journal, oracle_sessions = demo("oracle")
    assert journal == oracle_journal
    assert report.as_dict() == oracle_report.as_dict()
    counts = [_step_counts(session) for session in sessions]
    assert len(counts) == 2 and all(executed == 1 for executed, _ in counts)
    assert sum(map(sum, counts)) == DEMO_STEPS
    assert [_step_counts(s) for s in oracle_sessions] == \
        [(sum(c), 0) for c in counts]
