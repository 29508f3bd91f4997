"""Resume parity: a run killed at step k and resumed from its
checkpoint reproduces the uninterrupted loss trajectory bitwise."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import RunSpec, Session, StepLoop
from repro.runtime.checkpoint import resume_trainer, save_trainer
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


class TestFig8SerialResumeParity:
    def _fig8_stack(self, num_steps):
        """The Fig 8 construction, scaled down (one model size)."""
        from repro.data.cmip6 import SyntheticCMIP6Archive
        from repro.data.grid import LatLonGrid
        from repro.data.loader import round_robin_loaders
        from repro.data.normalization import Normalizer
        from repro.data.variables import default_registry
        from repro.models import build_model
        from repro.models.configs import proxy_family
        from repro.train import AdamW, Trainer, WarmupCosineSchedule

        grid = LatLonGrid(16, 32)
        registry = default_registry(6)
        archive = SyntheticCMIP6Archive(grid, registry, years_per_source=0.05,
                                        seed=0)
        datasets = archive.datasets()
        normalizer = Normalizer.fit(datasets[0], num_samples=16)
        config = next(iter(proxy_family(
            in_vars=6, out_vars=6, img_height=grid.nlat, img_width=grid.nlon,
            patch_size=8,
        ).values()))
        batches = round_robin_loaders(
            datasets, 4, lead_steps_choices=(1,), normalizer=normalizer, seed=0
        )
        model = build_model(config, rng=0)
        optimizer = AdamW(model.parameters(), lr=2e-3, weight_decay=0.0)
        schedule = WarmupCosineSchedule(2e-3, warmup_steps=min(5, num_steps - 1),
                                        total_steps=num_steps)
        trainer = Trainer(model, batches, grid.latitude_weights(), optimizer,
                          schedule=schedule)
        return trainer, batches

    def test_fig8_loss_curve_resumes_bitwise(self, tmp_path):
        trainer, _ = self._fig8_stack(TOTAL_STEPS)
        uninterrupted = trainer.train(TOTAL_STEPS)

        killed, killed_batches = self._fig8_stack(TOTAL_STEPS)
        loop = killed.step_loop()
        loop.run(KILL_AT)
        ckpt = save_trainer(tmp_path / "fig8.npz", killed, loop=loop,
                            loader=killed_batches)
        del killed, loop

        resumed, resumed_batches = self._fig8_stack(TOTAL_STEPS)
        state = resume_trainer(ckpt, resumed, loader=resumed_batches)["loop"]
        resumed_loop = resumed.step_loop(
            start_step=state["step"],
            observations_seen=state["observations_seen"],
            history=[tuple(pair) for pair in state["history"]],
        )
        result = resumed_loop.run(TOTAL_STEPS - KILL_AT)

        assert result.history == uninterrupted.history  # bitwise

    def test_loader_state_round_trip(self):
        _, batches = self._fig8_stack(4)
        next(batches)
        next(batches)
        state = batches.state()
        _, fresh = self._fig8_stack(4)
        fresh.restore(state)
        a, b = next(batches), next(fresh)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.lead_time_hours, b.lead_time_hours)
