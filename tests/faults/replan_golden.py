"""Shared golden scenarios for the replan=off bitwise-parity tests.

The fixtures under ``tests/faults/data/`` were generated by running
these exact scenarios against the pre-replan codebase
(``python -m tests.faults.replan_golden`` from the repo root).  The
parity tests in ``test_supervisor_degradations.py`` re-run the same
scenarios on the current code and compare byte-for-byte: journal bytes
for both, plus a state-dict digest for the numeric scenario.  Any
drift means a default-path (replan=off) run no longer reproduces
pre-PR behavior bitwise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.faults import FaultPlan, FaultSpec, Supervisor
from repro.utils.artifacts import CANONICAL_JSON
from tests.invariants import config

DATA_DIR = Path(__file__).parent / "data"

TINY = config(meta=False)

#: Windowed degradations overlapping a crash: the straggler window
#: (steps 1-2) forces the folded timeline exact, step 3 refolds, the
#: link_degrade window (steps 4-5) unfolds again, and the crash at
#: step 5 exercises rollback-restart while a degradation is active.
META_PLAN = FaultPlan(faults=(
    FaultSpec(kind="straggler", step=1, rank=5, factor=2.5, duration_steps=2),
    FaultSpec(kind="link_degrade", step=4, rank=2, factor=3.0,
              duration_steps=2),
    FaultSpec(kind="gpu_crash", step=5, rank=9),
))

NUMERIC_PLAN = FaultPlan(faults=(
    FaultSpec(kind="straggler", step=1, rank=1, factor=2.0, duration_steps=2),
    FaultSpec(kind="link_degrade", step=3, rank=3, factor=2.0,
              duration_steps=2),
))


def meta_scenario(checkpoint_dir, monitor="on"):
    """Folded 16-GCD meta run under windowed degradations + a crash."""
    from repro.runtime import RunSpec

    spec = RunSpec(config=TINY, num_gpus=16, gpus_per_node=8, tp_size=2,
                   fsdp_size=2, ddp_size=4, micro_batch=2, meta=True,
                   fold="on", monitor=monitor)
    return Supervisor(
        spec, META_PLAN, checkpoint_every=2, checkpoint_dir=checkpoint_dir,
        health_every=2,
    )


def numeric_scenario(checkpoint_dir):
    """Numeric 4-GCD run under windowed straggler + link_degrade."""
    from repro.runtime import RunSpec

    spec = RunSpec(config=TINY, num_gpus=4, gpus_per_node=4, tp_size=1,
                   fsdp_size=2, ddp_size=2, micro_batch=2, meta=False,
                   seed=5, monitor="on", track_device_memory=False)
    return Supervisor(
        spec, NUMERIC_PLAN, checkpoint_every=2, checkpoint_dir=checkpoint_dir,
        health_every=2,
    )


def state_digest(session) -> str:
    """Order-independent sha256 over every persisted numeric array."""
    digest = hashlib.sha256()
    arrays = session._checkpoint_arrays()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(arrays[name].tobytes())
    return digest.hexdigest()


def without_alerts(journal: str) -> str:
    """``journal``'s bytes as the same run writes them unmonitored: no
    detector runs, so its ``alert`` lines go and ``seq`` is renumbered;
    every other line stays as it is."""
    header, *lines = (json.loads(line) for line in journal.splitlines())
    events = [line for line in lines if line["kind"] != "alert"]
    for seq, event in enumerate(events):
        event["seq"] = seq
    header["events"] = len(events)
    return "".join(json.dumps(line, **CANONICAL_JSON) + "\n"
                   for line in [header, *events])


def run_meta(checkpoint_dir, num_steps: int = 8):
    """(journal bytes, report) of the meta golden scenario."""
    supervisor = meta_scenario(checkpoint_dir)
    report = supervisor.run(num_steps)
    return supervisor.monitor.journal.to_jsonl(), report


def run_numeric(checkpoint_dir, num_steps: int = 6):
    """(journal bytes, state digest, report) of the numeric scenario."""
    supervisor = numeric_scenario(checkpoint_dir)
    report = supervisor.run(num_steps)
    return (
        supervisor.monitor.journal.to_jsonl(),
        state_digest(supervisor.session),
        report,
    )


def regenerate() -> None:
    import tempfile

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as ckpt:
        journal, report = run_meta(Path(ckpt))
        assert report.recovered, report.unrecovered
        (DATA_DIR / "golden_meta_journal.jsonl").write_text(journal)
    with tempfile.TemporaryDirectory() as ckpt:
        journal, digest, report = run_numeric(Path(ckpt))
        assert report.recovered, report.unrecovered
        (DATA_DIR / "golden_numeric_journal.jsonl").write_text(journal)
        (DATA_DIR / "golden_numeric_state.sha256").write_text(digest + "\n")
    print(f"golden fixtures written to {DATA_DIR}")


if __name__ == "__main__":
    regenerate()
