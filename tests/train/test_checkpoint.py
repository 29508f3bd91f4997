"""Model and optimizer state through the archive container: dtypes,
metadata, overwrite, key/shape mismatch errors, and tracer markers on
save/load.

:func:`~repro.runtime.checkpoint.save_archive` /
:func:`~repro.runtime.checkpoint.load_archive` carry the arrays
(manifest, CRCs, :class:`CheckpointCorruptError`);
``Module.load_state_dict`` and ``AdamW.load_state_dict`` restore them.
"""

import numpy as np
import pytest

from repro.nn import MLP, Linear
from repro.obs import OFF, Tracer
from repro.runtime.checkpoint import CheckpointCorruptError, load_archive, save_archive
from repro.train import AdamW


def make_model(rng=0, dtype=np.float32):
    return MLP(4, 6, rng=rng, dtype=dtype)


def save_state(path, model, *, metadata=None, tracer=OFF):
    """Archive ``model``'s parameters and an AdamW's moments over them."""
    opt_state = AdamW(model.parameters()).state_dict()
    arrays = {f"param::{name}": value for name, value in model.state_dict().items()}
    arrays.update({f"opt::{key}": value for key, value in opt_state["arrays"].items()})
    meta = {"optimizer": opt_state["scalars"], "user": metadata or {}}
    return save_archive(path, arrays, meta, tracer=tracer)


def load_state(path, model, *, tracer=OFF) -> dict:
    """Restore :func:`save_state`'s archive into ``model`` and an AdamW;
    returns the archive metadata."""
    arrays, meta = load_archive(path, tracer=tracer)

    def members(prefix):
        return {key[len(prefix):]: value for key, value in arrays.items()
                if key.startswith(prefix)}

    model.load_state_dict(members("param::"))
    AdamW(model.parameters()).load_state_dict(
        {"arrays": members("opt::"), "scalars": meta["optimizer"]}
    )
    return meta


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16])
    def test_dtype_preserved(self, tmp_path, dtype):
        a = make_model(rng=1, dtype=dtype)
        b = make_model(rng=2, dtype=dtype)
        save_state(tmp_path / "ckpt.npz", a)
        load_state(tmp_path / "ckpt.npz", b)
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert pb.data.dtype == dtype, name
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_empty_metadata_default(self, tmp_path):
        model = make_model()
        path = save_state(tmp_path / "c.npz", model)
        assert load_state(path, model)["user"] == {}

    def test_non_ascii_metadata(self, tmp_path):
        model = make_model()
        metadata = {"run": "Ørbit-试验", "β": 0.9, "nested": {"π": [1, 2]}}
        path = save_state(tmp_path / "c.npz", model, metadata=metadata)
        assert load_state(path, model)["user"] == metadata

    def test_overwrite_existing_file(self, tmp_path):
        path = tmp_path / "c.npz"
        second = make_model(rng=2)
        save_state(path, make_model(rng=1), metadata={"step": 1})
        save_state(path, second, metadata={"step": 2})
        probe = make_model(rng=3)
        assert load_state(path, probe)["user"] == {"step": 2}
        np.testing.assert_array_equal(
            probe.state_dict()["fc1.weight"], second.state_dict()["fc1.weight"]
        )


class TestErrors:
    def test_missing_key_rejected(self, tmp_path):
        path = save_state(tmp_path / "c.npz", Linear(4, 6, rng=0))
        with pytest.raises(KeyError, match="missing"):
            load_state(path, make_model())

    def test_extra_key_rejected(self, tmp_path):
        path = save_state(tmp_path / "c.npz", make_model())
        with pytest.raises(KeyError, match="unexpected"):
            load_state(path, Linear(4, 6, rng=0))

    def test_shape_mismatch_rejected(self, tmp_path):
        path = save_state(tmp_path / "c.npz", Linear(4, 6, rng=0))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_state(path, Linear(4, 7, rng=0))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="nope.npz"):
            load_state(tmp_path / "nope.npz", make_model())


class TestTracing:
    def test_save_and_load_emit_markers(self, tmp_path):
        tracer = Tracer()
        model = make_model()
        path = save_state(tmp_path / "c.npz", model, tracer=tracer)
        load_state(path, model, tracer=tracer)

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
        model = make_model()
        path = save_state(tmp_path / "c.npz", model)
        load_state(path, model)  # must not raise
