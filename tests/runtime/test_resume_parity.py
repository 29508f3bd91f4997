"""Resume parity: a run killed at step k and resumed from its
checkpoint reproduces the uninterrupted loss trajectory bitwise."""

import os
from pathlib import Path

import pytest

from repro.runtime import RunSpec, Session, StepLoop
from tests.runtime.test_session import TINY

TOTAL_STEPS = 6
KILL_AT = 3


def _artifact_path(tmp_path, name):
    """CI exports RESUME_ARTIFACT_DIR to keep the parity checkpoint as a
    build artifact; locally the checkpoint stays in tmp_path."""
    art_dir = os.environ.get("RESUME_ARTIFACT_DIR")
    if art_dir:
        Path(art_dir).mkdir(parents=True, exist_ok=True)
        return Path(art_dir) / name
    return tmp_path / name


def _numeric_spec(fold="off"):
    return RunSpec(config=TINY, num_gpus=8, tp_size=2, fsdp_size=2, ddp_size=2,
                   micro_batch=2, meta=False, seed=5, track_device_memory=False,
                   fold=fold)


class TestShardedResumeParity:
    # Numeric sessions never actually fold (symmetry folding is a
    # meta-mode accounting optimization), so the kill-and-resume loss
    # trajectory must be bitwise identical under either policy.
    @pytest.mark.parametrize("fold", ["off", "on"])
    def test_killed_and_resumed_run_matches_bitwise(self, tmp_path, fold):
        spec = _numeric_spec(fold)

        uninterrupted = StepLoop(Session(spec).numeric_step).run(TOTAL_STEPS)

        killed = Session(spec)
        killed_loop = StepLoop(killed.numeric_step)
        killed_loop.run(KILL_AT)
        ckpt = killed.save(_artifact_path(tmp_path, "resume_parity.npz"),
                           loop=killed_loop)
        del killed, killed_loop  # the "node loss"

        resumed = Session(spec)
        state = resumed.resume(ckpt)["loop"]
        loop = StepLoop(
            resumed.numeric_step,
            start_step=state["step"],
            observations_seen=state["observations_seen"],
            history=[tuple(pair) for pair in state["history"]],
        )
        result = loop.run(TOTAL_STEPS - KILL_AT)

        assert result.history == uninterrupted.history  # bitwise

    def test_periodic_checkpointing_through_the_loop(self, tmp_path):
        """Periodic saves between runs of one loop (the Supervisor's
        cadence): each archive holds the loop as it stood."""
        spec = _numeric_spec()
        session = Session(spec)
        loop = StepLoop(session.numeric_step)
        written = []
        for _ in range(2):
            loop.run(2)
            written.append(session.save(tmp_path / f"step{loop.step}.npz",
                                        loop=loop))
        assert [p.name for p in written] == ["step2.npz", "step4.npz"]
        assert all(p.exists() for p in written)
        assert Session(spec).resume(written[0])["loop"]["step"] == 2

