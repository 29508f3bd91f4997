"""Event journal: ordering, the one write path (``EventJournal.append``,
also for a monitor's journal), byte-deterministic JSONL."""

import pytest

from repro.obs import EventJournal, RunMonitor, journal_summary
from repro.obs.journal import JOURNAL_SCHEMA, load_journal


def sample_journal(on_event=None):
    journal = EventJournal(on_event)
    journal.append(0, "run", category="start", message="run begins")
    journal.append(
        2, "alert", category="straggler", severity="warning",
        message="rank 3 slow",
        data={"ranks": [3], "value": 0.4, "threshold": 0.1},
    )
    journal.append(2, "checkpoint", category="save", message="ckpt_step2.npz")
    journal.append(3, "fold", category="exact", message="fault window")
    journal.append(4, "checkpoint", category="rollback", severity="warning",
                   message="back to step 2")
    journal.append(6, "run", category="end", message="run ends")
    return journal


class TestOrdering:
    def test_seq_is_append_order(self):
        journal = sample_journal()
        assert [e.seq for e in journal] == list(range(len(journal)))

    def test_on_event_fires_synchronously_per_append(self):
        seen = []
        journal = sample_journal(on_event=seen.append)
        assert seen == journal.events

    def test_queries(self):
        journal = sample_journal()
        assert len(journal.by_kind("checkpoint")) == 2
        summary = journal_summary(journal)
        assert summary["events"] == 6
        assert summary["by_kind"] == {
            "alert": 1, "checkpoint": 2, "fold": 1, "run": 2,
        }
        assert summary["by_severity"] == {"info": 4, "warning": 2}


class TestTypedAppenders:
    def test_finding_payload_preserved(self):
        event = sample_journal().by_kind("alert")[0]
        assert event.category == "straggler"
        assert event.severity == "warning"
        assert event.data == {"ranks": [3], "value": 0.4, "threshold": 0.1}

    def test_rollback_is_warning_save_is_info(self):
        saves = sample_journal().by_kind("checkpoint")
        assert [e.severity for e in saves] == ["info", "warning"]

    def test_render_mentions_kind_and_category(self):
        line = sample_journal().events[0].render()
        assert "run/start" in line and "[info]" in line


class TestReplanAppender:
    def test_replan_payload_preserved(self):
        monitor = RunMonitor()
        monitor.journal.append(
            3, "replan", category="decision", message="stay: gain below cost",
            data={"action": "stay", "profile": "c0x8,w11"},
        )
        monitor.journal.append(
            5, "replan", category="switch", severity="warning",
            message="tp4.f2.d2.mb8+ckpt -> tp2.f4.d2.mb4+pf",
            data={"migration_cost_s": 0.02},
        )
        decision, switch = monitor.journal.by_kind("replan")
        assert decision.category == "decision"
        assert decision.data == {"action": "stay", "profile": "c0x8,w11"}
        assert switch.category == "switch"
        assert switch.severity == "warning"

    def test_replan_is_a_journal_kind(self):
        from repro.obs.journal import JOURNAL_KINDS

        assert "replan" in JOURNAL_KINDS

    def test_replan_events_round_trip(self, tmp_path):
        journal = EventJournal()
        journal.append(0, "run", category="start", message="run begins")
        journal.append(2, "replan", category="decision",
                       data={"action": "stay"})
        journal.append(3, "run", category="end", message="run ends")
        path = journal.write_jsonl(tmp_path / "journal.jsonl")
        assert load_journal(path) == journal.events


class TestPersistence:
    def test_round_trip(self, tmp_path):
        journal = sample_journal()
        path = journal.write_jsonl(tmp_path / "journal.jsonl")
        events = load_journal(path)
        assert events == journal.events

    def test_byte_identical_for_identical_event_sequences(self):
        assert sample_journal().to_jsonl() == sample_journal().to_jsonl()

    def test_load_rejects_corrupt_artifacts(self, tmp_path):
        no_header = tmp_path / "a.jsonl"
        no_header.write_text('{"seq":0,"step":0,"kind":"run"}\n')
        with pytest.raises(ValueError, match="no header"):
            load_journal(no_header)

        wrong_schema = tmp_path / "b.jsonl"
        wrong_schema.write_text('{"kind":"journal","schema":99,"events":0}\n')
        with pytest.raises(ValueError, match="schema"):
            load_journal(wrong_schema)

        journal = sample_journal()
        gap = journal.to_jsonl().splitlines()
        del gap[2]  # drop seq 1: header promise and seq chain both break
        torn = tmp_path / "c.jsonl"
        torn.write_text("\n".join(gap) + "\n")
        with pytest.raises(ValueError):
            load_journal(torn)

    def test_schema_constant_is_one(self):
        assert JOURNAL_SCHEMA == 1


def _tear(lines):
    lines[-1] = lines[-1][:len(lines[-1]) // 2]
    return len(lines)


def _not_an_object(lines):
    lines[2] = "[1]"
    return 3


def _unknown_field(lines):
    lines[2] = lines[2][:-1] + ',"bogus":1}'
    return 3


@pytest.mark.parametrize("damage, problem", [
    (_tear, "not valid JSON"),
    (_not_an_object, "expected a JSON object, found list"),
    (_unknown_field, "not a journal event"),
], ids=["torn-last-line", "not-an-object", "unknown-field"])
def test_a_damaged_journal_names_the_path_the_line_and_the_problem(
        tmp_path, damage, problem):
    path = tmp_path / "journal.jsonl"
    lines = sample_journal().to_jsonl().splitlines()
    number = damage(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_journal(path)
    assert str(info.value).startswith(f"{path}: line {number}: {problem}")
