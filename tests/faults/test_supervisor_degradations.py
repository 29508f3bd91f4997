"""Supervisor recovery under windowed degradations, and the replan
bitwise-parity invariants.

Two families of checks:

* **Recovery semantics** — windowed ``link_degrade`` + ``straggler``
  plans interacting with the folded timeline's fold/refold transitions
  (the meta golden plan forces exact -> folded -> exact -> folded), and
  with crash rollback inside a degradation window.
* **Bitwise parity** — with ``replan='off'`` (the default) the journal
  bytes and the numeric state dict must reproduce the pre-replan
  fixtures under ``tests/faults/data/`` exactly; and a ``replan='on'``
  run whose every decision is "stay" must change zero bytes of
  training state.
"""

import pytest

from tests.faults.replan_golden import (
    DATA_DIR,
    NUMERIC_PLAN,
    meta_scenario,
    numeric_scenario,
    run_meta,
    run_numeric,
    state_digest,
    without_alerts,
)


class TestWindowedDegradationRecovery:
    def test_meta_plan_recovers_through_fold_transitions(self, tmp_path):
        supervisor = meta_scenario(tmp_path)
        report = supervisor.run(8)
        assert report.recovered
        assert report.steps_completed == 8
        kinds = [(e.kind, e.action) for e in report.events]
        # Both degradation windows observed, the crash rolled back.
        assert ("straggler", "observed") in kinds
        assert ("link_degrade", "observed") in kinds
        assert ("gpu_crash", "rollback_restart") in kinds

    def test_fold_switches_around_the_degradation_windows(self, tmp_path):
        supervisor = meta_scenario(tmp_path)
        supervisor.run(8)
        fold_events = [
            event for event in supervisor.monitor.journal.events
            if event.kind == "fold"
        ]
        # The straggler window unfolds the first incarnation at step 1
        # (and its timing divergence keeps it exact); the crash at step
        # 5 rebuilds a *folded* session whose replay immediately hits
        # the link window and unfolds again at step 4.  Two unfolds,
        # one per incarnation, both inside degradation windows.
        assert [event.step for event in fold_events] == [1, 4]
        assert all(event.category == "exact" for event in fold_events)

    def test_unmonitored_journal_is_the_golden_without_its_alerts(
        self, tmp_path
    ):
        """With monitoring off the Supervisor's journal is still the
        whole record, fold switches included: the golden less what only
        the detectors write."""
        supervisor = meta_scenario(tmp_path, monitor="off")
        assert supervisor.run(8).recovered
        golden = (DATA_DIR / "golden_meta_journal.jsonl").read_text()
        assert supervisor.journal.to_jsonl() == without_alerts(golden)

    def test_numeric_plan_recovers_with_degraded_steps(self, tmp_path):
        supervisor = numeric_scenario(tmp_path)
        report = supervisor.run(6)
        assert report.recovered
        observed = {e.kind for e in report.events if e.action == "observed"}
        assert {"straggler", "link_degrade"} <= observed

    def test_degradation_aware_accounting_charges_the_windows(self, tmp_path):
        supervisor = numeric_scenario(tmp_path)
        supervisor.degradation_aware = True
        report = supervisor.run(6)
        assert report.recovered
        ledger = supervisor.ledger
        assert ledger.lost_degraded_s > 0
        assert ledger.goodput_fraction < 1.0
        assert ledger.total_s == pytest.approx(
            ledger.useful_s + ledger.lost_s + ledger.checkpoint_s
            + ledger.replan_s
        )

    def test_default_accounting_never_charges_degradation(self, tmp_path):
        supervisor = numeric_scenario(tmp_path)
        supervisor.run(6)
        assert supervisor.ledger.lost_degraded_s == 0.0


class TestReplanOffBitwiseParity:
    """replan='off' must reproduce the pre-replan fixtures exactly."""

    def test_meta_journal_bytes_match_the_pre_replan_fixture(self, tmp_path):
        journal, report = run_meta(tmp_path)
        assert report.recovered
        golden = (DATA_DIR / "golden_meta_journal.jsonl").read_text()
        assert journal == golden

    def test_numeric_journal_and_state_match_the_pre_replan_fixture(
        self, tmp_path
    ):
        journal, digest, report = run_numeric(tmp_path)
        assert report.recovered
        golden = (DATA_DIR / "golden_numeric_journal.jsonl").read_text()
        assert journal == golden
        want = (DATA_DIR / "golden_numeric_state.sha256").read_text().strip()
        assert digest == want


class TestStayChangesNothing:
    """A replan='on' run whose decisions are all "stay" must leave the
    training state bitwise identical to the replan='off' run."""

    def supervise_replan_on(self, tmp_path):
        from repro.faults import Supervisor

        base = numeric_scenario(tmp_path)  # for the spec shape
        spec = base.spec.replace(replan="on")
        supervisor = Supervisor(
            spec, NUMERIC_PLAN, checkpoint_every=2,
            checkpoint_dir=tmp_path / "on", health_every=2,
        )
        report = supervisor.run(6)
        return supervisor, report

    def test_every_decision_stays(self, tmp_path):
        # The 4-GPU world has no equal-batch alternative reachable by
        # elastic resume, so the controller can only stay.
        supervisor, report = self.supervise_replan_on(tmp_path)
        assert report.recovered
        replan_events = [
            event for event in supervisor.monitor.journal.events
            if event.kind == "replan"
        ]
        assert replan_events, "degradations should trigger evaluations"
        assert all(e.category == "decision" for e in replan_events)
        assert all(e.data["action"] == "stay" for e in replan_events)

    def test_stay_decisions_change_zero_bytes_of_state(self, tmp_path):
        supervisor, _ = self.supervise_replan_on(tmp_path)
        want = (DATA_DIR / "golden_numeric_state.sha256").read_text().strip()
        assert state_digest(supervisor.session) == want

    def test_stay_decisions_do_not_touch_the_ledger(self, tmp_path):
        supervisor, _ = self.supervise_replan_on(tmp_path)
        assert supervisor.ledger.replans == 0
        assert supervisor.ledger.replan_s == 0.0

    def test_history_identical_to_replan_off(self, tmp_path):
        supervisor, report = self.supervise_replan_on(tmp_path)
        _, _, off_report = run_numeric(tmp_path / "off")
        assert report.history == off_report.history
