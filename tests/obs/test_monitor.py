"""RunMonitor end-to-end: clean-run silence, fault detection, journal
byte-determinism, and the zero-overhead / bitwise-parity contract.

The telemetry layer's two acceptance properties live here:

* **Determinism** — two identical seeded runs (including a supervised
  replay of ``examples/fault_plan.json``) serialize byte-identical
  journal and timeseries artifacts.
* **Non-interference** — a monitored step is bitwise-equal on every
  ledger field and the walltime to an unmonitored one; the monitor
  reads the timeline, it never writes it.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.timeline import _ledger_values
from repro.faults import FaultPlan, FaultSpec, Supervisor
from repro.faults.goodput import GoodputLedger
from repro.models.configs import OrbitConfig
from repro.obs import OFF, RunMonitor
from repro.runtime import RunSpec, Session, StepLoop
from tests.invariants import drive

TINY = OrbitConfig("tiny", embed_dim=16, depth=2, num_heads=4, in_vars=3,
                   out_vars=2, img_height=8, img_width=8, patch_size=8)

FAULT_PLAN_EXAMPLE = (
    Path(__file__).resolve().parents[2] / "examples" / "fault_plan.json"
)

#: A pure straggler plan: one degraded link, no crash to interrupt the
#: detector's sustain streak.
STRAGGLER_PLAN = FaultPlan(faults=(
    FaultSpec(kind="link_degrade", step=2, rank=1, factor=5.0,
              duration_steps=4),
))


def _spec(grid=(4, 2, 2), seed=0, steps=6, **overrides):
    tp, fsdp, ddp = grid
    base = dict(config=TINY, num_gpus=tp * fsdp * ddp, gpus_per_node=8,
                tp_size=tp, fsdp_size=fsdp, ddp_size=ddp, micro_batch=2,
                meta=True, seed=seed, num_steps=steps)
    base.update(overrides)
    return RunSpec(**base)


def _monitored_run(spec, steps=None):
    session = Session(spec)
    StepLoop(session.meta_step, hooks=session.loop_hooks()).run(
        steps or spec.num_steps
    )
    return session


class TestMonitoredSession:
    def test_records_the_core_step_series(self):
        session = _monitored_run(_spec(monitor="on"))
        store = session.monitor.store
        for name in ("step.time_s", "step.straggler_excess",
                     "step.exposed_comm_ratio", "memory.peak_fraction"):
            assert name in store, name
            assert store.series(name).count == 6

    def test_clean_run_raises_zero_alerts(self):
        # This topology has *static* busy-time imbalance (FSDP lead
        # ranks do the dense all-reduce), which must not read as
        # straggler emergence.
        session = _monitored_run(_spec(monitor="on"))
        monitor = session.monitor
        assert monitor.journal.by_kind("alert") == []
        assert monitor.warning_alerts == 0 and monitor.critical_alerts == 0

    def test_monitor_off_installs_the_null_monitor(self):
        session = Session(_spec())
        assert session.monitor is OFF
        assert session.loop_hooks() == []

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        grid=st.sampled_from([(4, 2, 2), (2, 2, 4), (2, 2, 2), (1, 2, 4)]),
    )
    @settings(max_examples=10, deadline=None)
    def test_clean_seeded_runs_are_alert_free(self, seed, grid):
        session = _monitored_run(_spec(grid=grid, seed=seed, monitor="on"))
        assert session.monitor.journal.by_kind("alert") == []


class TestZeroOverhead:
    def test_monitored_step_is_bitwise_equal_to_unmonitored(self):
        plain = _monitored_run(_spec(fold="off"))
        monitored = _monitored_run(_spec(fold="off", monitor="on"))
        assert monitored.monitor.store.names()  # telemetry did record
        for rank in range(plain.cluster.world_size):
            assert _ledger_values(plain.cluster.timeline.ledger(rank)) == \
                _ledger_values(monitored.cluster.timeline.ledger(rank))
        assert plain.cluster.timeline.walltime_s() == \
            monitored.cluster.timeline.walltime_s()


class TestFaultDetection:
    def _supervised(self, plan, tmp_path, steps=8, **spec_overrides):
        spec = _spec(steps=steps, monitor="on", **spec_overrides)
        supervisor = Supervisor(
            spec, plan, checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        report = supervisor.run(steps)
        return supervisor, report

    def test_straggler_plan_alerts_within_bounded_steps(self, tmp_path):
        supervisor, report = self._supervised(STRAGGLER_PLAN, tmp_path)
        assert report.recovered
        straggler = [event for event in supervisor.monitor.journal.by_kind("alert")
                     if event.category == "straggler"]
        assert straggler, "injected straggler never raised an alert"
        first = straggler[0]
        # Warning must land within `sustain` steps of fault onset.
        (rule,) = [rule for rule in supervisor.monitor.bank.rules
                   if rule.metric == "step.straggler_excess"]
        assert first.step <= STRAGGLER_PLAN.faults[0].step + rule.sustain
        assert first.severity == "warning"
        assert supervisor.monitor.warning_alerts >= 1

    def test_faultless_supervised_run_is_alert_free(self, tmp_path):
        # No checkpoint cadence: with the tiny config a 1 s checkpoint
        # dwarfs the millisecond steps and goodput *genuinely* decays,
        # which is a true alarm, not the clean baseline.
        spec = _spec(steps=6, monitor="on")
        supervisor = Supervisor(spec, FaultPlan(faults=()),
                                checkpoint_every=0)
        report = supervisor.run(6)
        assert report.recovered
        assert supervisor.monitor.journal.by_kind("alert") == []
        # Lifecycle events still journal.
        kinds = {e.kind for e in supervisor.monitor.journal}
        assert kinds == {"run"}

    def test_example_plan_journals_every_recovery_kind(self, tmp_path):
        plan = FaultPlan.from_json(FAULT_PLAN_EXAMPLE)
        supervisor, report = self._supervised(plan, tmp_path)
        assert report.recovered
        journal = supervisor.monitor.journal
        kinds = {e.kind for e in journal}
        assert {"run", "alert", "recovery", "checkpoint"} <= kinds
        # Rollback recovery shows up as a checkpoint/rollback event.
        assert any(e.category == "rollback"
                   for e in journal.by_kind("checkpoint"))


class TestJournalDeterminism:
    def _replay(self, tmp_path, tag):
        plan = FaultPlan.from_json(FAULT_PLAN_EXAMPLE)
        spec = _spec(steps=8, monitor="on")
        supervisor = Supervisor(
            spec, plan, checkpoint_every=2,
            checkpoint_dir=tmp_path / tag,
        )
        report = supervisor.run(8)
        assert report.recovered
        return supervisor.monitor

    def test_fault_plan_replays_are_byte_identical(self, tmp_path):
        first = self._replay(tmp_path, "a")
        second = self._replay(tmp_path, "b")
        assert first.journal.to_jsonl() == second.journal.to_jsonl()
        assert first.store.to_jsonl() == second.store.to_jsonl()

    def test_clean_monitored_runs_are_byte_identical(self):
        first = _monitored_run(_spec(monitor="on")).monitor
        second = _monitored_run(_spec(monitor="on")).monitor
        assert first.store.to_jsonl() == second.store.to_jsonl()
        assert first.journal.to_jsonl() == second.journal.to_jsonl()


class TestFoldEvents:
    def test_mode_switches_are_journaled(self):
        # A timing-neutral fault unfolds its step and refolds after.
        plan = FaultPlan(faults=(
            FaultSpec(kind="grad_corruption", step=1, rank=2),
        ))
        session = drive(_spec(grid=(2, 2, 4), steps=3, fold="on",
                              monitor="on"), plan).session
        folds = session.monitor.journal.by_kind("fold")
        assert [(e.step, e.category) for e in folds] == \
            [(1, "exact"), (2, "folded")]


class TestGoodputGauges:
    def test_bucket_fractions_partition_the_walltime(self):
        ledger = GoodputLedger()
        ledger.commit_step(0, 2.0)
        ledger.checkpoint(1.0)
        ledger.retry(0.5)
        fractions = ledger.bucket_fractions()
        parts = sum(v for k, v in fractions.items() if k != "goodput.fraction")
        assert parts == pytest.approx(1.0)
        assert fractions["goodput.fraction"] == \
            fractions["goodput.useful_fraction"]

    def test_publish_gauges_sets_metrics_registry_gauges(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        ledger = GoodputLedger()
        ledger.commit_step(0, 2.0)
        published = ledger.publish_gauges(metrics)
        for name, value in published.items():
            assert metrics.gauge(name).value == value

    def test_supervised_run_exports_goodput_to_monitor_and_metrics(
        self, tmp_path
    ):
        spec = _spec(steps=4, monitor="on")
        supervisor = Supervisor(
            spec, FaultPlan(faults=()), checkpoint_every=2,
            checkpoint_dir=tmp_path,
        )
        assert supervisor.run(4).recovered
        assert "goodput.fraction" in supervisor.monitor.store
        assert supervisor.monitor.store.series("goodput.fraction").count == 4
        snapshot = supervisor.session.tracer.metrics.snapshot()
        assert "goodput.fraction" in snapshot
