"""Trainer checkpoint round-trip edge cases: dtypes, metadata, overwrite,
and key/shape mismatch errors, plus tracer markers on save/load.

Serial runs checkpoint through :func:`~repro.runtime.checkpoint.save_trainer`
and :func:`~repro.runtime.checkpoint.resume_trainer`, which write the one
archive container (manifest, CRCs, :class:`CheckpointCorruptError`).
"""

import numpy as np
import pytest

from repro.nn import Linear, Sequential
from repro.obs import Tracer
from repro.runtime.checkpoint import CheckpointCorruptError, resume_trainer, save_trainer
from repro.train import AdamW, Trainer


def make_model(rng=0, dtype=np.float32):
    return Sequential([Linear(4, 6, rng=rng, dtype=dtype),
                       Linear(6, 2, rng=rng, dtype=dtype)])


def trainer_of(model, tracer=None):
    """A trainer holding ``model`` (no batches: only its state is saved)."""
    return Trainer(model, [], np.ones(1), AdamW(model.parameters()), tracer=tracer)


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16])
    def test_dtype_preserved(self, tmp_path, dtype):
        a = make_model(rng=1, dtype=dtype)
        b = make_model(rng=2, dtype=dtype)
        save_trainer(tmp_path / "ckpt.npz", trainer_of(a))
        resume_trainer(tmp_path / "ckpt.npz", trainer_of(b))
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert pb.data.dtype == dtype, name
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_empty_metadata_default(self, tmp_path):
        trainer = trainer_of(make_model())
        path = save_trainer(tmp_path / "c.npz", trainer)
        assert resume_trainer(path, trainer)["user"] == {}

    def test_non_ascii_metadata(self, tmp_path):
        trainer = trainer_of(make_model())
        metadata = {"run": "Ørbit-试验", "β": 0.9, "nested": {"π": [1, 2]}}
        path = save_trainer(tmp_path / "c.npz", trainer, metadata=metadata)
        assert resume_trainer(path, trainer)["user"] == metadata

    def test_overwrite_existing_file(self, tmp_path):
        path = tmp_path / "c.npz"
        second = make_model(rng=2)
        save_trainer(path, trainer_of(make_model(rng=1)), metadata={"step": 1})
        save_trainer(path, trainer_of(second), metadata={"step": 2})
        probe = make_model(rng=3)
        assert resume_trainer(path, trainer_of(probe))["user"] == {"step": 2}
        np.testing.assert_array_equal(
            probe.state_dict()["0.weight"], second.state_dict()["0.weight"]
        )


class TestErrors:
    def test_missing_key_rejected(self, tmp_path):
        path = save_trainer(tmp_path / "c.npz", trainer_of(Linear(4, 6, rng=0)))
        with pytest.raises(KeyError, match="missing"):
            resume_trainer(path, trainer_of(make_model()))

    def test_extra_key_rejected(self, tmp_path):
        path = save_trainer(tmp_path / "c.npz", trainer_of(make_model()))
        with pytest.raises(KeyError, match="unexpected"):
            resume_trainer(path, trainer_of(Linear(4, 6, rng=0)))

    def test_shape_mismatch_rejected(self, tmp_path):
        path = save_trainer(tmp_path / "c.npz", trainer_of(Linear(4, 6, rng=0)))
        with pytest.raises(ValueError, match="shape mismatch"):
            resume_trainer(path, trainer_of(Linear(4, 7, rng=0)))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="nope.npz"):
            resume_trainer(tmp_path / "nope.npz", trainer_of(make_model()))


class TestTracing:
    def test_save_and_load_emit_markers(self, tmp_path):
        tracer = Tracer()
        model = make_model()
        trainer = trainer_of(model, tracer=tracer)
        path = save_trainer(tmp_path / "c.npz", trainer)
        resume_trainer(path, trainer)

        kinds = [(s.kind, s.name) for s in tracer.spans]
        assert ("checkpoint", "save") in kinds
        assert ("checkpoint", "load") in kinds
        assert ("io", "npz.write") in kinds
        assert ("io", "npz.read") in kinds
        save_span = next(s for s in tracer.spans if s.name == "save")
        assert save_span.dur == 0.0  # markers are instants off the busy clock
        assert save_span.nbytes > 0.0
        # Every parameter plus its two AdamW moments.
        assert save_span.attrs["arrays"] == 3 * len(model.state_dict())
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["checkpoint.saves"] == 1.0
        assert counters["checkpoint.loads"] == 1.0

    def test_default_tracer_is_silent(self, tmp_path):
        trainer = trainer_of(make_model())
        path = save_trainer(tmp_path / "c.npz", trainer)
        resume_trainer(path, trainer)  # must not raise
