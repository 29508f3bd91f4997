"""Session construction and the fabricate_batch shape contract."""

import numpy as np
import pytest

from repro.meta import MetaArray
from repro.runtime import RunSpec, Session, StepLoop, build_cluster, fabricate_batch
from tests.invariants import config

TINY = config(meta=False)


def _spec(**overrides):
    base = dict(config=TINY, num_gpus=8, tp_size=2, fsdp_size=2, ddp_size=2,
                micro_batch=2)
    base.update(overrides)
    return RunSpec(**base)


class TestFabricateBatch:
    def test_grid_shape_contract(self):
        xs = fabricate_batch((2, 3, 8, 8), fsdp_size=3, ddp_size=2)
        assert len(xs) == 2
        assert all(len(row) == 3 for row in xs)
        for row in xs:
            for micro in row:
                assert isinstance(micro, MetaArray)
                assert micro.shape == (2, 3, 8, 8)

    def test_flat_row_when_no_ddp_axis(self):
        row = fabricate_batch((4, 16), fsdp_size=2)
        assert len(row) == 2
        assert all(m.shape == (4, 16) for m in row)

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            fabricate_batch((2,), fsdp_size=0)
        with pytest.raises(ValueError):
            fabricate_batch((2,), fsdp_size=1, ddp_size=0)


class TestBuildCluster:
    def test_is_the_single_construction_site(self):
        cluster = build_cluster(16, 8)
        assert cluster.world_size == 16

    def test_no_direct_cluster_construction_outside_runtime(self):
        """Grep-level acceptance criterion of the refactor: every stack
        consumer constructs its VirtualCluster through the runtime."""
        import pathlib

        import repro

        src = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src)
            if rel.parts[0] in ("runtime", "cluster"):
                continue
            text = path.read_text()
            # Constructing one requires importing it; prose mentions in
            # docstrings don't count.
            if "import VirtualCluster" in text and "VirtualCluster(" in text:
                offenders.append(str(rel))
        assert offenders == []


class TestMetaSession:
    def test_builds_the_full_stack(self):
        session = Session(_spec())
        assert session.cluster.world_size == 8
        assert session.plan.tp_size == 2
        assert session.engine.plan is session.plan

    def test_meta_step_traces_one_engine_step(self):
        session = Session(_spec())
        loss, observations = session.meta_step(0)
        assert np.isnan(loss)
        assert observations == 8
        scopes = {span.scope for span in session.tracer.spans}
        assert any(scope.startswith("step.0") for scope in scopes)

    def test_meta_session_has_no_trainer(self):
        session = Session(_spec())
        with pytest.raises(RuntimeError, match="meta"):
            session.trainer

    def test_matches_legacy_run_case_trace(self):
        """The Session-built bench step is bitwise the hand-built one."""
        from repro.bench.harness import BenchCase, run_case

        case = BenchCase("tiny-1n", "unused", 8, 8, tp_size=2, fsdp_size=2,
                         ddp_size=2, micro_batch=2)
        record1 = run_case(case, config=TINY)
        record2 = run_case(case, config=TINY)
        assert record1.step_time_s == record2.step_time_s
        assert record1.spans == record2.spans


class TestNumericSession:
    def test_numeric_step_returns_finite_loss(self):
        session = Session(_spec(meta=False, track_device_memory=False))
        loss, batch_size = session.numeric_step(0)
        assert np.isfinite(loss)
        assert batch_size == 8

    def test_synthetic_batches_follow_the_seeded_stream(self):
        a = Session(_spec(meta=False, seed=3, track_device_memory=False))
        b = Session(_spec(meta=False, seed=3, track_device_memory=False))
        batch_a, batch_b = a.synthetic_batch(), b.synthetic_batch()
        np.testing.assert_array_equal(batch_a.x, batch_b.x)
        np.testing.assert_array_equal(batch_a.y, batch_b.y)

    def test_step_fn_picks_mode(self):
        assert Session(_spec()).step_fn().__name__ == "meta_step"
        spec = _spec(meta=False, track_device_memory=False)
        assert Session(spec).step_fn().__name__ == "numeric_step"

    def test_loop_drives_session(self):
        session = Session(_spec(meta=False, track_device_memory=False))
        result = StepLoop(session.numeric_step).run(3)
        assert len(result.history) == 3
        assert result.observations_seen == 24
