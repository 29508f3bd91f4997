"""Property sweep over fault plans: the supervisor never wedges.

For any plan drawn from kind x step x rank the supervised run either
completes every scheduled step with ``recovered=True``, or reports the
failure cleanly through ``report.unrecovered`` — no exception ever
escapes :meth:`Supervisor.run`, and the goodput ledger stays
internally consistent either way.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultKind, FaultPlan, FaultSpec, Supervisor
from tests.invariants import config

TINY = config(meta=False)

WORLD = 16
STEPS = 6
GLOBAL_BATCH = 16  # fsdp 2 x ddp 4 x micro 2


def _spec():
    from repro.runtime import RunSpec

    return RunSpec(config=TINY, num_gpus=WORLD, gpus_per_node=8, tp_size=2,
                   fsdp_size=2, ddp_size=4, micro_batch=2, meta=True)


def _fault_specs():
    crash_like = st.builds(
        FaultSpec,
        kind=st.sampled_from([
            FaultKind.COLLECTIVE_TIMEOUT,
            FaultKind.GPU_CRASH,
            FaultKind.NODE_LOSS,
            FaultKind.GRAD_CORRUPTION,
        ]),
        step=st.integers(min_value=0, max_value=STEPS + 1),
        rank=st.integers(min_value=0, max_value=WORLD - 1),
    )
    degradation = st.builds(
        FaultSpec,
        kind=st.sampled_from([FaultKind.STRAGGLER, FaultKind.LINK_DEGRADE]),
        step=st.integers(min_value=0, max_value=STEPS + 1),
        rank=st.integers(min_value=0, max_value=WORLD - 1),
        factor=st.floats(min_value=1.5, max_value=4.0),
        duration_steps=st.integers(min_value=1, max_value=3),
    )
    return st.one_of(crash_like, degradation)


def _plans():
    return st.builds(
        FaultPlan,
        faults=st.lists(_fault_specs(), min_size=1, max_size=3).map(tuple),
    )


@settings(max_examples=15, deadline=None)
@given(plan=_plans())
def test_any_plan_recovers_or_reports_cleanly(plan):
    with tempfile.TemporaryDirectory() as ckpt:
        supervisor = Supervisor(
            _spec(), plan, checkpoint_every=2, checkpoint_dir=Path(ckpt),
        )
        report = supervisor.run(STEPS)

    ledger = report.ledger
    # The exact total-time identity: every bucket — including the
    # replan-migration bucket — sums back to the total, with nothing
    # double-counted and nothing dropped.
    assert ledger.total_s == pytest.approx(
        ledger.useful_s + ledger.lost_s + ledger.checkpoint_s
        + ledger.replan_s
    )
    assert ledger.lost_s == pytest.approx(
        ledger.lost_retry_s + ledger.lost_rollback_s + ledger.lost_restart_s
        + ledger.lost_skipped_s + ledger.lost_degraded_s
    )
    if report.recovered:
        assert report.steps_completed == STEPS
        assert len(report.history) == STEPS
        # global batch preserved through any elastic regroup
        observations = [report.history[0][0]] + [
            b - a for (a, _), (b, _) in zip(report.history, report.history[1:])
        ]
        assert set(observations) == {GLOBAL_BATCH}
        # every scheduled in-run fault was consumed or explained
        for spec in plan.faults:
            if spec.step < STEPS:
                assert (
                    spec in supervisor.injector.fired()
                    or spec in report.moot
                    or spec in supervisor.injector.pending()
                )
    else:
        assert report.unrecovered, "failure must carry an explanation"


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_random_plans_are_deterministic_and_survivable(seed):
    plan = FaultPlan.random(seed, num_steps=STEPS, world_size=WORLD, count=2)
    assert plan == FaultPlan.random(seed, num_steps=STEPS, world_size=WORLD,
                                    count=2)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        first = Supervisor(
            _spec(), plan, checkpoint_every=2, checkpoint_dir=Path(a),
        ).run(STEPS)
        second = Supervisor(
            _spec(), plan, checkpoint_every=2, checkpoint_dir=Path(b),
        ).run(STEPS)
    assert first.recovered == second.recovered
    assert [(e.step, e.kind, e.action) for e in first.events] == [
        (e.step, e.kind, e.action) for e in second.events
    ]
    assert first.history == second.history
