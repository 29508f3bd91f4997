"""Sharded checkpoint round-trip: dense replicas, flat shards,
optimizer moments, and metadata all restore bitwise."""

import io
import json
import zlib

import numpy as np
import pytest

from repro.runtime import (
    CHECKPOINT_SCHEMA,
    RunSpec,
    Session,
    StepLoop,
    load_archive,
    save_archive,
)
from repro.models.configs import OrbitConfig
from repro.utils import artifacts
from tests.runtime.test_session import TINY


def _numeric_spec(**overrides):
    base = dict(config=TINY, num_gpus=8, tp_size=2, fsdp_size=2, ddp_size=2,
                micro_batch=2, meta=False, seed=11, track_device_memory=False)
    base.update(overrides)
    return RunSpec(**base)


class TestArchive:
    def test_round_trip_preserves_bits_and_metadata(self, tmp_path):
        arrays = {
            "dense::0::w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "shard::0::0::1": np.linspace(0, 1, 5),
        }
        path = save_archive(tmp_path / "a.npz", arrays, {"kind": "test", "k": 3})
        loaded, meta = load_archive(path)
        assert meta["kind"] == "test" and meta["k"] == 3
        assert meta["schema"] == CHECKPOINT_SCHEMA
        for key, value in arrays.items():
            np.testing.assert_array_equal(loaded[key], value)
            assert loaded[key].dtype == value.dtype

    @pytest.mark.parametrize("name", ["a", "a.ckpt"])
    def test_suffixless_path_returns_the_file_written(self, tmp_path, name):
        """NumPy appends ``.npz``; the returned path must be that file."""
        path = save_archive(tmp_path / name, {"x": np.arange(3)}, {"kind": "t"})
        assert path == tmp_path / f"{name}.npz"
        assert path.exists() and not (tmp_path / name).exists()
        loaded, _ = load_archive(path)
        np.testing.assert_array_equal(loaded["x"], np.arange(3))

    def test_unknown_schema_rejected(self, tmp_path):
        path = save_archive(tmp_path / "a.npz", {}, {"schema": 99})
        with pytest.raises(ValueError, match="schema"):
            load_archive(path)

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "b.npz"
        np.savez_compressed(path, x=np.zeros(3))
        with pytest.raises(ValueError, match="not a runtime checkpoint"):
            load_archive(path)


class TestShardedSessionCheckpoint:
    def test_round_trip_restores_every_tensor(self, tmp_path):
        session = Session(_numeric_spec())
        StepLoop(session.numeric_step).run(2)
        path = session.save(tmp_path / "ckpt.npz", metadata={"note": "t2"})

        dense_before = {
            (d, name): np.array(param.data)
            for d in range(2)
            for name, param in session._dense_parameters(d).items()
        }
        shards_before = [
            np.array(shard)
            for d in range(2)
            for sharded in session.engine.sharded_parameters(d)
            for shard in sharded.shards
        ]
        opt_before = session.trainer.optimizer.state_dict()

        # A fresh session from the same spec starts from different state...
        restored = Session(_numeric_spec())
        restored.trainer  # materialize the optimizer
        meta = restored.resume(path)
        assert meta["user"]["note"] == "t2"
        assert meta["step"] == 2

        # ...and lands exactly on the saved tensors after resume.
        for d in range(2):
            for name, param in restored._dense_parameters(d).items():
                np.testing.assert_array_equal(param.data, dense_before[(d, name)])
        shards_after = [
            np.array(shard)
            for d in range(2)
            for sharded in restored.engine.sharded_parameters(d)
            for shard in sharded.shards
        ]
        for before, after in zip(shards_before, shards_after):
            np.testing.assert_array_equal(before, after)
        opt_after = restored.trainer.optimizer.state_dict()
        assert opt_after["scalars"] == opt_before["scalars"]
        for key, value in opt_before["arrays"].items():
            np.testing.assert_array_equal(opt_after["arrays"][key], value)

    def test_resume_from_path_returned_for_suffixless_save(self, tmp_path):
        """Regression: ``save("ckpt")`` wrote ``ckpt.npz`` but returned
        ``ckpt``, so resuming from the returned path failed."""
        session = Session(_numeric_spec())
        StepLoop(session.numeric_step).run(1)
        path = session.save(tmp_path / "ckpt")
        assert path.exists()
        resumed = Session(_numeric_spec())
        resumed.resume(path)
        assert resumed.numeric_step(1) == session.numeric_step(1)

    def test_spec_identity_mismatch_rejected(self, tmp_path):
        session = Session(_numeric_spec())
        StepLoop(session.numeric_step).run(1)
        path = session.save(tmp_path / "ckpt.npz")
        other = Session(_numeric_spec(tp_size=4, fsdp_size=2, ddp_size=1))
        with pytest.raises(ValueError, match="does not match"):
            other.resume(path)

    def test_meta_session_round_trips_rng_and_loop(self, tmp_path):
        """A meta archive holds the data RNG and the loop, nothing the
        plan shapes: it resumes into a meta session of another plan."""
        session = Session(_numeric_spec(meta=True))
        loop = StepLoop(session.meta_step)
        loop.run(2)
        session.data_rng.normal(size=3)  # move the stream off its seed
        path = session.save(tmp_path / "meta.npz", loop=loop)
        _, meta = load_archive(path)
        assert meta["kind"] == "supervisor-meta" and "user" not in meta

        other = Session(_numeric_spec(meta=True, tp_size=4, ddp_size=1))
        state = other.resume(path)["loop"]
        assert json.dumps(state) == json.dumps(loop.state_dict())  # NaN losses
        assert (other.data_rng.bit_generator.state
                == session.data_rng.bit_generator.state)
        resumed = StepLoop.from_state_dict(other.meta_step, state)
        resumed.run(1)
        assert resumed.step == 3 and len(resumed.history) == 3


def _saved(tmp_path, **overrides):
    """The archive of one numeric step on ``_numeric_spec(**overrides)``."""
    session = Session(_numeric_spec(**overrides))
    StepLoop(session.step_fn()).run(1)
    return session.save(tmp_path / "ckpt.npz")


WIDER = OrbitConfig("wider", embed_dim=32, depth=2, num_heads=4, in_vars=3,
                    out_vars=2, img_height=8, img_width=8, patch_size=4)


class TestResumeRefusals:
    """Everything but the DDP extent must match; the global batch must
    survive a DDP resize; meta and numeric archives never cross."""

    @pytest.mark.parametrize("overrides, field", [
        (dict(tp_size=4, fsdp_size=1, micro_batch=4), "grid"),
        (dict(num_gpus=16, pp_size=2), "grid"),
        (dict(config=WIDER), "config"),
        (dict(dtype="float64"), "dtype"),
        (dict(tp_innermost=False), "tp_innermost"),
    ], ids=["tp-fsdp", "pp", "config", "dtype", "tp_innermost"])
    def test_an_identity_field_other_than_the_ddp_extent(
            self, tmp_path, overrides, field):
        path = _saved(tmp_path)
        with pytest.raises(ValueError, match=(
                f"^checkpoint {path} was written for {field} .* does not "
                f"match this session's")):
            Session(_numeric_spec(**overrides)).resume(path)

    def test_a_ddp_resize_that_loses_the_global_batch(self, tmp_path):
        path = _saved(tmp_path, num_gpus=16, ddp_size=4)  # 2 x 2 x 4
        with pytest.raises(ValueError, match="global batch of 16, which does "
                                             "not match this session's 8"):
            Session(_numeric_spec()).resume(path)

    @pytest.mark.parametrize("archive_meta", [False, True],
                             ids=["numeric-into-meta", "meta-into-numeric"])
    def test_an_archive_of_the_other_mode(self, tmp_path, archive_meta):
        path = _saved(tmp_path, meta=archive_meta)
        with pytest.raises(ValueError, match="archive, which does not match "
                                             "this (meta|numeric) session"):
            Session(_numeric_spec(meta=not archive_meta)).resume(path)

    def test_a_ddp_halved_resume_restores_what_the_regroup_restores(
            self, tmp_path):
        """The Supervisor's node-loss regroup and a direct ``resume``
        into the halved spec restore the same arrays: every surviving
        replica a copy of the archive's replica 0."""
        from repro.faults import FaultPlan, FaultSpec, Supervisor
        from tests.faults.replan_golden import state_digest

        spec = _numeric_spec(num_gpus=16, tp_size=1, ddp_size=8)
        plan = FaultPlan(faults=(FaultSpec(kind="node_loss", step=2, rank=9),))
        supervisor = Supervisor(spec, plan, checkpoint_every=2,
                                checkpoint_dir=tmp_path)
        restored = []
        restart = supervisor._restart

        def restart_and_digest(new_spec):
            restart(new_spec)
            restored.append(state_digest(supervisor.session))

        supervisor._restart = restart_and_digest
        assert supervisor.run(3).recovered
        archive = tmp_path / "ckpt_step2.npz"
        halved = Session(_numeric_spec(num_gpus=8, tp_size=1, ddp_size=4,
                                       micro_batch=4))
        assert halved.resume(archive)["step"] == 2
        assert state_digest(halved) == restored[-1]
        arrays, _ = load_archive(archive)
        for d in range(4):
            for name, param in halved._dense_parameters(d).items():
                np.testing.assert_array_equal(
                    param.data, arrays[f"dense::0::{name}"])
        dense = [p.data for d in range(4)
                 for p in halved._dense_parameters(d).values()]
        assert len({id(value) for value in dense}) == len(dense)


class TestOptimizerState:
    def test_adamw_state_dict_round_trip(self):
        from repro.train.optimizer import AdamW

        class P:
            def __init__(self, value):
                self.data = np.asarray(value, dtype=np.float64)
                self.grad = np.ones_like(self.data)

        params = [P([1.0, 2.0]), P([[3.0]])]
        opt = AdamW(params, lr=1e-2)
        opt.step()
        state = opt.state_dict()

        fresh = AdamW([P([0.0, 0.0]), P([[0.0]])], lr=1e-2)
        fresh.load_state_dict(state)
        assert fresh.step_count == 1
        np.testing.assert_array_equal(fresh._m[0], opt._m[0])
        np.testing.assert_array_equal(fresh._v[1], opt._v[1])

    def test_adamw_rejects_mismatched_state(self):
        from repro.train.optimizer import AdamW

        class P:
            def __init__(self):
                self.data = np.zeros(2)
                self.grad = None

        opt = AdamW([P()], lr=1e-2)
        with pytest.raises(ValueError, match="moment pairs"):
            opt.load_state_dict({"arrays": {}, "scalars": {"step_count": 0}})


class _CountingZlib:
    """``zlib`` as ``repro.utils.artifacts`` sees it, counting the
    payloads it deflates and inflates."""

    def __init__(self):
        self.deflated = self.inflated = 0

    def __getattr__(self, name):
        return getattr(zlib, name)

    def compressobj(self, *args):
        self.deflated += 1
        return zlib.compressobj(*args)

    def decompressobj(self, *args):
        self.inflated += 1
        return zlib.decompressobj(*args)


class TestEachDistinctPayloadOnce:
    """The ``numeric-train`` shape (tp2 x fsdp2 x ddp2, seed 0, 8 steps):
    its 1,555 members hold 775 distinct payloads, because the two DDP
    replicas stay bitwise in sync.  If they drifted, the counts would rise."""

    def test_save_deflates_and_resume_inflates_775_of_1555(
            self, tmp_path, monkeypatch):
        config = OrbitConfig("bench-wall-numeric", embed_dim=64, depth=4,
                             num_heads=4, in_vars=8, out_vars=4,
                             img_height=16, img_width=32, patch_size=4)
        spec = RunSpec(config=config, num_gpus=8, gpus_per_node=8, tp_size=2,
                       fsdp_size=2, ddp_size=2, micro_batch=2, meta=False,
                       seed=0)
        session = Session(spec)
        loop = StepLoop(session.numeric_step)
        for _ in range(8):
            loop.run_step()
        counting = _CountingZlib()
        monkeypatch.setattr(artifacts, "zlib", counting)
        path = session.save(tmp_path / "ck.npz", loop=loop)
        assert counting.deflated == 775
        Session(spec).resume(path)
        assert counting.inflated == 775
        monkeypatch.undo()
        with np.load(path) as archive:  # the oracle: np.savez_compressed's bytes
            assert len(archive.files) == 1555
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **{key: archive[key] for key in archive})
        assert path.read_bytes() == buffer.getvalue()
