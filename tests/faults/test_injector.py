"""FaultInjector: exact-event firing, fire-once semantics, degradations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import VirtualCluster
from repro.obs.off import OFF
from repro.faults import (
    CollectiveTimeoutError,
    FaultError,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    GpuCrashError,
    NodeLossError,
)


def _injected_cluster(plan, num_gpus=8, gpus_per_node=8):
    cluster = VirtualCluster(num_gpus=num_gpus, gpus_per_node=gpus_per_node)
    injector = FaultInjector(plan, gpus_per_node=gpus_per_node)
    cluster.attach_injector(injector)
    return cluster, injector


class TestAttachment:
    def test_default_injector_is_null(self):
        cluster = VirtualCluster(num_gpus=4, gpus_per_node=4)
        assert cluster.injector is OFF
        assert cluster.timeline.injector is OFF

    def test_attach_and_detach(self):
        cluster, injector = _injected_cluster(FaultPlan())
        assert cluster.timeline.injector is injector
        cluster.attach_injector(None)
        assert cluster.timeline.injector is OFF


class TestCrashFiring:
    def test_timeout_fires_only_on_named_collective(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="collective_timeout", step=0, rank=2,
                      op="all_gather"),
        ))
        cluster, injector = _injected_cluster(plan)
        injector.begin_step(0)
        # compute events never trigger a collective timeout
        cluster.timeline.record_compute(2, 1.0, op="gemm")
        # a different collective passes
        cluster.timeline.record_comm((0, 1, 2, 3), 0.1, 64, op="all_reduce")
        with pytest.raises(CollectiveTimeoutError) as err:
            cluster.timeline.record_comm((0, 1, 2, 3), 0.1, 64, op="all_gather")
        assert err.value.fault is plan.faults[0]

    def test_fires_only_when_target_rank_participates(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="gpu_crash", step=0, rank=6),
        ))
        cluster, injector = _injected_cluster(plan)
        injector.begin_step(0)
        cluster.timeline.record_comm((0, 1), 0.1, 64, op="all_gather")
        cluster.timeline.record_compute(5, 1.0, op="gemm")
        with pytest.raises(GpuCrashError):
            cluster.timeline.record_compute(6, 1.0, op="gemm")

    def test_fires_only_at_armed_step(self):
        plan = FaultPlan(faults=(FaultSpec(kind="gpu_crash", step=3, rank=0),))
        cluster, injector = _injected_cluster(plan)
        injector.begin_step(2)
        cluster.timeline.record_compute(0, 1.0, op="gemm")
        injector.begin_step(3)
        with pytest.raises(GpuCrashError):
            cluster.timeline.record_compute(0, 1.0, op="gemm")

    def test_fire_once_across_replay(self):
        """Replaying the faulted step after recovery must not re-fire —
        the basis of bitwise crash-resume parity."""
        plan = FaultPlan(faults=(FaultSpec(kind="gpu_crash", step=1, rank=0),))
        cluster, injector = _injected_cluster(plan)
        injector.begin_step(1)
        with pytest.raises(GpuCrashError):
            cluster.timeline.record_compute(0, 1.0, op="gemm")
        # same injector, rebuilt cluster, replayed step
        cluster2 = VirtualCluster(num_gpus=8, gpus_per_node=8)
        cluster2.attach_injector(injector)
        injector.begin_step(1)
        cluster2.timeline.record_compute(0, 1.0, op="gemm")
        assert injector.fired() == [plan.faults[0]]
        assert injector.pending() == []

    def test_node_loss_names_the_node(self):
        plan = FaultPlan(faults=(FaultSpec(kind="node_loss", step=0, rank=9),))
        cluster, injector = _injected_cluster(plan, num_gpus=16)
        injector.begin_step(0)
        with pytest.raises(NodeLossError, match="node 1"):
            cluster.timeline.record_compute(9, 1.0, op="gemm")

    def test_unrecorded_when_fired(self):
        """A faulted event never lands on the ledgers — the collective
        did not complete."""
        plan = FaultPlan(faults=(FaultSpec(kind="gpu_crash", step=0, rank=0),))
        cluster, injector = _injected_cluster(plan)
        injector.begin_step(0)
        with pytest.raises(GpuCrashError):
            cluster.timeline.record_compute(0, 1.0, op="gemm")
        assert cluster.timeline.ledger(0).compute_s == 0.0


class TestDegradations:
    def test_straggler_scales_compute_within_window(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="straggler", step=1, rank=2, factor=3.0,
                      duration_steps=2),
        ))
        cluster, injector = _injected_cluster(plan)
        injector.begin_step(0)
        cluster.timeline.record_compute(2, 1.0, op="gemm")
        injector.begin_step(1)
        cluster.timeline.record_compute(2, 1.0, op="gemm")
        cluster.timeline.record_compute(3, 1.0, op="gemm")
        injector.begin_step(2)
        cluster.timeline.record_compute(2, 1.0, op="gemm")
        injector.begin_step(3)  # window over
        cluster.timeline.record_compute(2, 1.0, op="gemm")
        assert cluster.timeline.ledger(2).compute_s == pytest.approx(1 + 3 + 3 + 1)
        assert cluster.timeline.ledger(3).compute_s == pytest.approx(1.0)

    def test_link_degrade_scales_collectives_touching_rank(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_degrade", step=0, rank=1, factor=2.0),
        ))
        cluster, injector = _injected_cluster(plan)
        injector.begin_step(0)
        cluster.timeline.record_comm((0, 1), 1.0, 64, op="all_gather")
        cluster.timeline.record_comm((2, 3), 1.0, 64, op="all_gather")
        assert cluster.timeline.ledger(1).comm_s == pytest.approx(2.0)
        assert cluster.timeline.ledger(2).comm_s == pytest.approx(1.0)

    @pytest.mark.parametrize("rank", [0, 11], ids=["stage-0", "stage-1"])
    def test_straggler_does_not_stretch_pipeline_stall_filler(self, rank):
        """``pipeline.stall`` pads a stage up to the 1F1B makespan of
        busy times the straggler has already stretched; stretching the
        filler again would put the step past the makespan — and past the
        estimate replan prices the same degradation with."""
        from repro.parallel.stages import schedule_walltime
        from repro.replan import DegradationProfile
        from repro.runtime import Session
        from repro.tune import AnalyticEstimator, Candidate
        from tests.invariants import spec

        M = 4
        session = Session(spec((2, 2, 2, 2), depth=4, micro_batch=M))
        config = session.config
        injector = FaultInjector(FaultPlan(faults=(
            FaultSpec(kind="straggler", step=0, rank=rank, factor=3.0),
        )))
        session.cluster.attach_injector(injector)
        injector.begin_step(0)
        session.meta_step(0)

        estimate = AnalyticEstimator(config, 16).estimate(
            Candidate(2, 2, 2, M, pp_size=2),
            DegradationProfile(compute=((rank, 3.0),), remaining_steps=1),
        )
        assert session.cluster.timeline.walltime_s() == \
            pytest.approx(estimate.step_time_s, rel=1e-12, abs=0)
        # One stall span per rank; its t0 is the rank's busy clock.  A
        # replica's schedule spans its four ranks of either stage.
        stalls = {s.rank: s for s in session.tracer.spans
                  if s.name == "pipeline.stall"}
        assert sorted(stalls) == list(range(16))
        for d in (0, 1):
            stage_ranks = [range(8 * stage + 4 * d, 8 * stage + 4 * d + 4)
                           for stage in (0, 1)]
            busy = [max(stalls[r].t0 for r in ranks) for ranks in stage_ranks]
            makespan = schedule_walltime(busy, M)
            for ranks, stage_busy in zip(stage_ranks, busy):
                assert {stalls[r].dur for r in ranks} == {makespan - stage_busy}


class TestGradFaults:
    def test_poison_plants_nan_in_first_numeric_grad(self):
        class P:
            def __init__(self):
                self.grad = np.ones(4)

        plan = FaultPlan(faults=(
            FaultSpec(kind="grad_corruption", step=2, rank=0),
        ))
        injector = FaultInjector(plan)
        params = [P(), P()]
        assert injector.poison_gradients(1, params) is None
        spec = injector.poison_gradients(2, params)
        assert spec is plan.faults[0]
        assert np.isnan(params[0].grad[0])
        # fire-once: a replay leaves gradients clean
        params2 = [P()]
        assert injector.poison_gradients(2, params2) is None
        assert np.isfinite(params2[0].grad).all()

    def test_meta_mode_acknowledgement(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="grad_corruption", step=4, rank=0),
        ))
        injector = FaultInjector(plan)
        assert injector.grad_fault(3, fire=True) is None
        spec = injector.grad_fault(4, fire=True)
        assert spec is plan.faults[0]
        assert injector.fired_at(4) == [spec]


class TestRemap:
    def test_remap_renumbers_and_drops(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="gpu_crash", step=5, rank=12),
            FaultSpec(kind="collective_timeout", step=6, rank=3),
        ))
        injector = FaultInjector(plan, gpus_per_node=8)
        # node 0 (ranks 0..7) is lost; survivors 8..15 renumber to 0..7
        dropped = injector.remap_ranks({r: r - 8 for r in range(8, 16)})
        assert dropped == [plan.faults[1]]
        assert injector.moot() == [plan.faults[1]]
        assert injector.pending() == [plan.faults[0]]


class _PerEventInjector(FaultInjector):
    """The injector as it was before ``begin_step`` settled the step's
    sets: every event walks every armed entry, twice.  Kept here as the
    oracle of the hot path."""

    def before_compute(self, rank, seconds, op):
        from repro.cluster.timeline import stretch_compute

        self._raise_per_event((rank,), op, comm=False)
        return stretch_compute(
            seconds, self._factor_per_event(FaultKind.STRAGGLER, (rank,)), op)

    def before_comm(self, ranks, seconds, op):
        self._raise_per_event(tuple(ranks), op, comm=True)
        return seconds * self._factor_per_event(FaultKind.LINK_DEGRADE, ranks)

    def _raise_per_event(self, ranks, op, comm):
        for armed in self._armed:
            spec = armed.spec
            if not armed.live or spec.step != self.step:
                continue
            if spec.kind is FaultKind.COLLECTIVE_TIMEOUT and not comm:
                continue
            if spec.kind not in (FaultKind.COLLECTIVE_TIMEOUT,
                                 FaultKind.GPU_CRASH, FaultKind.NODE_LOSS):
                continue
            if armed.rank not in ranks:
                continue
            if spec.op is not None and spec.op != op:
                continue
            armed.fired = True
            armed.fired_step = self.step
            where = f"step {self.step}, op {op!r}, rank {armed.rank}"
            if spec.kind is FaultKind.COLLECTIVE_TIMEOUT:
                raise CollectiveTimeoutError(
                    f"collective timeout at {where}", fault=spec)
            if spec.kind is FaultKind.GPU_CRASH:
                raise GpuCrashError(f"GPU crash at {where}", fault=spec)
            raise NodeLossError(
                f"node {armed.rank // self.gpus_per_node} lost at {where}",
                fault=spec)

    def _factor_per_event(self, kind, ranks):
        factor = 1.0
        ranks = set(ranks)
        for armed in self._armed:
            spec = armed.spec
            if armed.moot or spec.kind is not kind:
                continue
            if not spec.step <= self.step < spec.step + spec.duration_steps:
                continue
            if armed.rank not in ranks:
                continue
            if not armed.fired:
                armed.fired = True
                armed.fired_step = self.step
            factor *= spec.factor
        return factor


_WORLD, _STEPS = 8, 5
_OPS = ("all_gather", "all_reduce", "gemm", "pipeline.stall")


@st.composite
def _plans(draw):
    faults = draw(st.lists(st.builds(
        FaultSpec,
        kind=st.sampled_from(list(FaultKind)),
        step=st.integers(0, _STEPS - 1),
        rank=st.integers(0, _WORLD - 1),
        op=st.sampled_from((None,) + _OPS),
        # Repeated factors make overlapping windows multiply in an
        # order that rounding can tell apart.
        factor=st.sampled_from([1.1, 1.7, 3.0, 1e3 / 3]),
        duration_steps=st.integers(1, 3),
    ), max_size=6))
    return FaultPlan(faults=tuple(faults))


#: One driver action: a compute event, a collective, or an elastic remap.
_ACTIONS = st.one_of(
    st.tuples(st.just("compute"), st.integers(0, _WORLD - 1),
              st.sampled_from(_OPS)),
    st.tuples(st.just("comm"),
              st.lists(st.integers(0, _WORLD - 1), min_size=1, max_size=4,
                       unique=True).map(tuple),
              st.sampled_from(_OPS)),
    st.tuples(st.just("remap"),
              st.sets(st.integers(0, _WORLD - 1), max_size=2), st.none()),
)


def _act(injector, tag, target, op):
    """One scheduled action on ``injector``: its result, or the raise."""
    if tag == "compute":
        return injector.before_compute(target, 0.3, op).hex()
    if tag == "comm":
        return injector.before_comm(target, 0.7, op).hex()
    survivors = [r for r in range(_WORLD) if r not in target]
    return injector.remap_ranks({old: new for new, old in enumerate(survivors)})


def _marks(injector) -> list:
    return [(a.rank, a.fired, a.fired_step, a.moot) for a in injector._armed]


def _drive(injector, schedule):
    """Everything observable about ``injector`` over ``schedule``."""
    seen = []
    for step, actions in schedule:
        injector.begin_step(step)
        for action in actions:
            try:
                seen.append(_act(injector, *action))
            except FaultError as err:
                seen.append((type(err), str(err), err.fault))
        seen.append(_marks(injector))
    return seen


@settings(max_examples=300, deadline=None)
@given(plan=_plans(), schedule=st.lists(
    st.tuples(st.integers(0, _STEPS), st.lists(_ACTIONS, max_size=12)),
    max_size=8))
def test_settled_step_sets_equal_the_per_event_walk(plan, schedule):
    """Same seconds to the bit, same errors, same fire-once marks —
    steps revisited (retries) and ranks remapped mid-step included."""
    assert _drive(FaultInjector(plan), schedule) == \
        _drive(_PerEventInjector(plan), schedule)


#: Every rank alone, the whole world, and an unordered pair.
_GROUPS = [(rank,) for rank in range(_WORLD)] + [tuple(range(_WORLD)), (5, 2)]


def _every_hook(injector) -> list:
    """Both hooks' seconds on every rank and op."""
    return [injector.before_compute(rank, 0.3, op).hex()
            for rank in range(_WORLD) for op in _OPS] + [
        injector.before_comm(group, 0.7, op).hex()
        for group in _GROUPS for op in _OPS]


@settings(max_examples=200, deadline=None)
@given(plan=_plans(), schedules=st.lists(st.lists(
    st.tuples(st.integers(0, _STEPS), st.lists(_ACTIONS, max_size=12)),
    max_size=8), min_size=1, max_size=3))
def test_a_settled_pricing_is_everything_the_hooks_compute(plan, schedules):
    """Wherever ``pricing`` is settled (not ``None``) — after each
    ``begin_step`` and each action, remaps included — the hooks raise
    nothing and change no armed entry on any rank, and injectors (one
    per schedule) whose ``pricing`` is equal return equal seconds:
    ``()`` the ones ``OFF`` hands back."""
    seen = {OFF.pricing: _every_hook(OFF)}
    for schedule in schedules:
        injector = FaultInjector(plan)
        for step, actions in schedule:
            injector.begin_step(step)
            for action in (*actions, None):
                if injector.pricing is not None:
                    before = _marks(injector)
                    seconds = _every_hook(injector)
                    assert _marks(injector) == before
                    assert seen.setdefault(injector.pricing, seconds) == seconds
                if action is not None:
                    try:
                        _act(injector, *action)
                    except FaultError:
                        pass


def test_a_step_no_fault_touches_returns_seconds_untouched():
    injector = FaultInjector(FaultPlan(faults=(
        FaultSpec(kind="straggler", step=2, rank=0, factor=8.0),)))
    injector.begin_step(1)
    seconds = 0.25
    assert injector.before_compute(0, seconds, "gemm") is seconds
    assert injector.before_comm((0, 1), seconds, "all_reduce") is seconds


@pytest.mark.parametrize("kind, event", [
    ("straggler", lambda inj: inj.before_compute(3, 0.3, "gemm")),
    ("link_degrade", lambda inj: inj.before_comm((1, 3), 0.3, "all_reduce")),
])
def test_overlapping_windows_multiply_in_plan_order(kind, event):
    factors = (1.7, 3.0, 1e3 / 3)  # (a * b) * c != (c * b) * a in floats
    assert 1.0 * factors[0] * factors[1] * factors[2] != \
        1.0 * factors[2] * factors[1] * factors[0]
    plan = FaultPlan(faults=tuple(
        FaultSpec(kind=kind, step=0, rank=3, factor=f, duration_steps=2)
        for f in factors))
    results = []
    for cls in (FaultInjector, _PerEventInjector):
        injector = cls(plan)
        injector.begin_step(1)
        results.append(event(injector).hex())
    assert results[0] == results[1]
