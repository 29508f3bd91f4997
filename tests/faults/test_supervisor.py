"""Supervisor recovery paths: retry, rollback-restart, elastic regroup.

The acceptance scenario of the fault subsystem: a 16-GCD run with a
transient collective timeout, a GPU crash, and a NaN gradient completes
every scheduled step; the crash path resumes from the sharded archive
and reproduces the fault-free loss history *bitwise*.
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultPlan, FaultSpec, Supervisor
from repro.obs import RunMonitor, Tracer
from tests.invariants import config

TINY = config(meta=False)

#: A node loss at step 2, then a crash at step 3 before the next
#: periodic checkpoint (``repro faults`` runs the same file in CI).
REGROUP_THEN_CRASH = Path(__file__).parent / "data" / "regroup_then_crash.json"


def _bits(history):
    """A loss history with every loss as ``float.hex()`` (NaN-safe)."""
    return [(observations, loss.hex()) for observations, loss in history]


def _meta_spec(**overrides):
    from repro.runtime import RunSpec

    base = dict(config=TINY, num_gpus=16, gpus_per_node=8, tp_size=2,
                fsdp_size=2, ddp_size=4, micro_batch=2, meta=True)
    base.update(overrides)
    return RunSpec(**base)


def _numeric_spec(**overrides):
    from repro.runtime import RunSpec

    base = dict(config=TINY, num_gpus=4, gpus_per_node=4, tp_size=1,
                fsdp_size=2, ddp_size=2, micro_batch=2, meta=False, seed=5,
                track_device_memory=False)
    base.update(overrides)
    return RunSpec(**base)


ACCEPTANCE_PLAN = FaultPlan(faults=(
    FaultSpec(kind="collective_timeout", step=1, rank=3),
    FaultSpec(kind="gpu_crash", step=3, rank=5),
    FaultSpec(kind="grad_corruption", step=5, rank=0),
))


class TestMetaAcceptance:
    def test_sixteen_gcd_run_completes_through_all_three_faults(self, tmp_path):
        supervisor = Supervisor(
            _meta_spec(), ACCEPTANCE_PLAN,
            checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        report = supervisor.run(8)
        assert report.recovered
        assert report.steps_completed == 8
        assert len(report.history) == 8
        actions = [e.action for e in report.events]
        assert "retry" in actions
        assert "rollback_restart" in actions
        assert "skip_step" in actions
        assert report.pending == [] and report.moot == []

    def test_walltime_attributed_to_recovery_buckets(self, tmp_path):
        supervisor = Supervisor(
            _meta_spec(), ACCEPTANCE_PLAN,
            checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        ledger = supervisor.run(8).ledger
        assert ledger.lost_retry_s > 0
        assert ledger.lost_rollback_s > 0
        assert ledger.lost_restart_s > 0
        assert ledger.lost_skipped_s > 0
        assert ledger.checkpoint_s > 0
        assert ledger.goodput_fraction < 1.0
        assert ledger.total_s == pytest.approx(
            ledger.useful_s + ledger.lost_s + ledger.checkpoint_s
        )

    def test_report_document_is_json_able(self, tmp_path):
        import json

        report = Supervisor(
            _meta_spec(), ACCEPTANCE_PLAN,
            checkpoint_every=2, checkpoint_dir=tmp_path,
        ).run(8)
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["recovered"] is True
        assert doc["schema"] == 1
        assert doc["goodput"]["goodput_fraction"] < 1.0


class TestBitwiseRecovery:
    def test_crash_resume_matches_fault_free_history_bitwise(self, tmp_path):
        baseline = Supervisor(
            _numeric_spec(), FaultPlan(),
            checkpoint_every=2, checkpoint_dir=tmp_path / "base",
        ).run(6)
        plan = FaultPlan(faults=(FaultSpec(kind="gpu_crash", step=3, rank=1),))
        crashed = Supervisor(
            _numeric_spec(), plan,
            checkpoint_every=2, checkpoint_dir=tmp_path / "crash",
        ).run(6)
        assert crashed.recovered
        assert crashed.history == baseline.history  # bitwise: float equality

    def test_transient_retry_matches_fault_free_history_bitwise(self, tmp_path):
        baseline = Supervisor(
            _numeric_spec(), FaultPlan(),
            checkpoint_every=2, checkpoint_dir=tmp_path / "base",
        ).run(6)
        plan = FaultPlan(faults=(
            FaultSpec(kind="collective_timeout", step=2, rank=0),
        ))
        retried = Supervisor(
            _numeric_spec(), plan,
            checkpoint_every=2, checkpoint_dir=tmp_path / "retry",
        ).run(6)
        assert retried.recovered
        assert retried.history == baseline.history

    def test_crash_without_checkpoint_restarts_from_zero_bitwise(self):
        baseline = Supervisor(_numeric_spec(), FaultPlan()).run(5)
        plan = FaultPlan(faults=(FaultSpec(kind="gpu_crash", step=2, rank=0),))
        crashed = Supervisor(_numeric_spec(), plan).run(5)
        assert crashed.recovered
        assert crashed.history == baseline.history


class TestElasticRegroup:
    def test_meta_node_loss_shrinks_ddp_and_preserves_global_batch(self, tmp_path):
        plan = FaultPlan(faults=(FaultSpec(kind="node_loss", step=4, rank=9),))
        supervisor = Supervisor(
            _meta_spec(), plan, checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        report = supervisor.run(8)
        assert report.recovered
        assert report.steps_completed == 8
        assert report.final_spec["grid"] == [2, 2, 2, 1]  # ddp 4 -> 2
        assert report.final_spec["micro_batch"] == 4   # micro 2 -> 4
        # global batch preserved: every step saw the same observations
        observations = [report.history[0][0]] + [
            b - a for (a, _), (b, _) in zip(report.history, report.history[1:])
        ]
        assert set(observations) == {16}
        assert supervisor.ledger.regroups == 1

    def test_numeric_node_loss_resumes_elastically(self, tmp_path):
        from repro.runtime import RunSpec

        spec = RunSpec(config=TINY, num_gpus=16, gpus_per_node=8, tp_size=1,
                       fsdp_size=2, ddp_size=8, micro_batch=2, meta=False,
                       seed=5, track_device_memory=False)
        plan = FaultPlan(faults=(FaultSpec(kind="node_loss", step=3, rank=12),))
        report = Supervisor(
            spec, plan, checkpoint_every=2, checkpoint_dir=tmp_path,
        ).run(6)
        assert report.recovered
        assert report.steps_completed == 6
        assert report.final_spec["grid"] == [1, 2, 4, 1]
        assert report.final_spec["micro_batch"] == 4
        assert all(math_isfinite(loss) for _, loss in report.history)

    @pytest.mark.parametrize("mode", ["meta", "numeric"])
    def test_crash_after_a_regroup_resumes_the_pre_loss_archive(
            self, tmp_path, mode):
        """A crash before the first post-regroup checkpoint restores the
        pre-loss archive into the shrunken world a second time: the run
        replays the node-loss-only run's steps from the same state and
        ends on its history and arrays, bit for bit."""
        from tests.faults.replan_golden import state_digest
        from tests.faults.test_recovery_golden import meta_spec, numeric_two_nodes

        spec = meta_spec() if mode == "meta" else numeric_two_nodes()
        plan = FaultPlan.from_json(REGROUP_THEN_CRASH)
        runs = {}
        for name, faults in (("both", plan.faults), ("loss", plan.faults[:1])):
            supervisor = Supervisor(
                spec, FaultPlan(faults=faults),
                checkpoint_every=2, checkpoint_dir=tmp_path / name,
            )
            runs[name] = (supervisor, supervisor.run(4))
        (both, report), (loss, loss_report) = runs["both"], runs["loss"]
        assert report.recovered
        assert [e.action for e in report.events] == [
            "elastic_regroup", "rollback_restart"]
        assert _bits(report.history) == _bits(loss_report.history)
        if not spec.meta:
            assert state_digest(both.session) == state_digest(loss.session)

    def test_shrunken_spec_drops_skew_past_the_surviving_world(self):
        spec = _meta_spec(compute_skew={3: 2.0, 12: 1.5})
        shrunk = Supervisor._shrunken_spec(
            spec, Supervisor._survivors(16, range(8, 16)))
        assert shrunk.num_gpus == 8
        assert shrunk.compute_skew == ((3, 2.0),)

    def test_shrunken_spec_moves_skew_with_its_gpu(self):
        # Node 0 lost: old rank 12 is new rank 4; rank 3's GPU is gone.
        spec = _meta_spec(compute_skew={3: 2.0, 12: 1.5})
        shrunk = Supervisor._shrunken_spec(
            spec, Supervisor._survivors(16, range(0, 8)))
        assert shrunk.num_gpus == 8
        assert shrunk.compute_skew == ((4, 1.5),)

    def test_node_loss_without_checkpoint_restarts_from_zero(self):
        spec = _meta_spec(ddp_size=4, micro_batch=1)  # global batch 8
        plan = FaultPlan(faults=(FaultSpec(kind="node_loss", step=1, rank=0),))
        report = Supervisor(spec, plan).run(4)
        assert report.recovered
        assert report.final_spec["grid"][2] == 2 and report.final_spec["micro_batch"] == 2

    def test_survivors_cannot_host_replica(self):
        spec = _meta_spec(num_gpus=8, gpus_per_node=8, tp_size=2, fsdp_size=2,
                          ddp_size=2)
        plan = FaultPlan(faults=(FaultSpec(kind="node_loss", step=1, rank=0),))
        report = Supervisor(spec, plan).run(4)
        assert not report.recovered
        assert any("cannot host" in msg for msg in report.unrecovered)


class TestEscalationAndValidation:
    def test_plan_targeting_absent_rank_is_rejected(self):
        plan = FaultPlan(faults=(FaultSpec(kind="gpu_crash", step=0, rank=99),))
        with pytest.raises(ValueError, match="rank 99"):
            Supervisor(_meta_spec(), plan)

    def test_checkpointing_requires_directory(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            Supervisor(_meta_spec(), FaultPlan(), checkpoint_every=2)

    @pytest.mark.parametrize("charge", ["checkpoint_cost_s", "restart_latency_s",
                                        "replan_warmup_s", "replan_hysteresis"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_charges_must_be_finite_and_non_negative(self, charge, value):
        """A NaN charge would make the goodput total NaN; it is rejected
        at construction, before any session exists."""
        with pytest.raises(ValueError, match=f"^{charge} {value} must be finite"):
            Supervisor(_meta_spec(), FaultPlan(), **{charge: value})

    @pytest.mark.parametrize("kind", ["gpu_crash", "node_loss"])
    def test_spent_restart_budget_is_an_unrecovered_event_and_journal_line(
            self, kind):
        """Both fatal kinds take the one rollback routine's budget
        branch (a node loss used to append the message and no event)."""
        plan = FaultPlan(faults=(FaultSpec(kind=kind, step=1, rank=9),))
        supervisor = Supervisor(_meta_spec(monitor="on"), plan, max_restarts=0)
        report = supervisor.run(3)
        assert not report.recovered
        assert len(report.unrecovered) == 1
        assert "restart budget (0) exhausted at step 1" in report.unrecovered[0]
        assert [(e.action, e.kind, e.rank) for e in report.events] == [
            ("unrecovered", kind, 9)]
        journaled = [e for e in supervisor.monitor.journal.events
                     if e.kind == "recovery"]
        assert [(e.category, e.data["action"]) for e in journaled] == [
            (kind, "unrecovered")]

    def test_pending_faults_surface_in_report(self):
        plan = FaultPlan(faults=(FaultSpec(kind="gpu_crash", step=50, rank=0),))
        report = Supervisor(_meta_spec(), plan).run(3)
        assert report.recovered
        assert report.pending == [plan.faults[0]]


class TestRecoverySeams:
    def test_a_crash_on_the_first_step_after_a_switch_resumes_the_migration_archive(
            self, tmp_path, monkeypatch):
        """The replan demo switches plans before step 3, writing
        ``replan_step3.npz``; a crash on step 3, the first step on the
        new plan, rolls back to that archive and restores it into the new
        plan: not into the old plan, and not from step 0."""
        from repro.replan.scenario import (
            DEMO_STEPS,
            DEMO_SUPERVISOR_KWARGS,
            demo_plan,
            demo_spec,
        )
        from repro.runtime import Session

        resumed = []
        resume = Session.resume

        def spy(session, path, *args, **kwargs):
            resumed.append((Path(path).name, session.spec))
            return resume(session, path, *args, **kwargs)

        monkeypatch.setattr(Session, "resume", spy)
        plan = FaultPlan(faults=(
            *demo_plan().faults, FaultSpec(kind="gpu_crash", step=3, rank=5)))
        supervisor = Supervisor(demo_spec(), plan, checkpoint_dir=tmp_path,
                                **DEMO_SUPERVISOR_KWARGS)
        report = supervisor.run(DEMO_STEPS)

        assert report.recovered and report.steps_completed == DEMO_STEPS
        switch, crash = [event for event in report.events
                         if event.action in ("plan_switch", "rollback_restart")]
        assert (switch.step, crash.step) == (3, 3)
        assert crash.detail == "resumed from step 3"
        new_plan = supervisor.spec
        assert new_plan != demo_spec()
        # The migration restores the archive into the new plan, and so
        # does the rollback.
        assert resumed[:2] == [("replan_step3.npz", new_plan)] * 2
        assert (tmp_path / "replan_step3.npz").exists()


class TestSpanTable:
    """Only ``_maybe_health`` reads an incarnation's spans, so without
    ``health_every`` (or a caller's tracer) a session records none; the
    run, its metrics and its journal are the same either way."""

    @staticmethod
    def _run(tmp_path, name, *, tracer=None, **kwargs):
        monitor = RunMonitor()
        session_kwargs = {"monitor": monitor}
        if tracer is not None:
            session_kwargs["tracer"] = tracer
        supervisor = Supervisor(
            _meta_spec(), ACCEPTANCE_PLAN, checkpoint_every=2,
            checkpoint_dir=tmp_path / name, session_kwargs=session_kwargs,
            **kwargs)
        report = supervisor.run(8)
        return supervisor, report.as_dict(), monitor.journal.to_jsonl()

    @staticmethod
    def _without_findings(report, journal):
        """The report and journal lines (``seq`` aside) without the
        health check's ``health.*`` observations."""
        lines = [json.loads(line) for line in journal.splitlines()[1:]]
        return (
            {**report, "events": [event for event in report["events"]
                                  if not event["kind"].startswith("health.")]},
            [{k: v for k, v in line.items() if k != "seq"} for line in lines
             if not line["category"].startswith("health.")])

    def test_an_unread_span_table_records_no_row(self, tmp_path):
        supervisor, _, _ = self._run(tmp_path, "bare", health_every=0)
        assert len(supervisor.session.tracer) == 0
        assert not supervisor.session.tracer.enabled
        counters = supervisor.session.tracer.metrics.snapshot()
        assert "goodput.fraction" in counters
        assert counters["runtime.meta_steps_replayed"] > 0

    def test_a_read_span_table_still_records(self, tmp_path):
        """A health check or a caller's tracer keeps the rows; the traced
        run is byte-identical, the checked one adds its findings only."""
        _, report, journal = self._run(tmp_path, "bare")
        traced, traced_report, traced_journal = self._run(
            tmp_path, "traced", tracer=Tracer())
        health, health_report, health_journal = self._run(
            tmp_path, "health", health_every=2)
        assert len(traced.session.tracer) > 0
        assert len(health.session.tracer) > 0
        assert (traced_report, traced_journal) == (report, journal)
        assert any(event["kind"].startswith("health.")
                   for event in health_report["events"])
        assert self._without_findings(health_report, health_journal) == \
            self._without_findings(report, journal)


def math_isfinite(x):
    import math

    return math.isfinite(x)
