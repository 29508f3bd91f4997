"""GPipe-style pipeline parallelism (the Sec II comparison) as the
``pp=S, tp=fsdp=ddp=1`` grid point of the one engine.

M micro-batches travel fused along the batch axis: the engine runs
each stage's blocks on all of them at once, records the boundary sends
as M messages, and pads every stage to the 1F1B makespan.  The
schedule arithmetic is the free functions of
:mod:`repro.parallel.stages`.
"""

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.models import OrbitConfig, build_model
from repro.obs.tracer import Tracer
from repro.parallel import HybridParallelPlan, HybridSTOPEngine, PeakFractionCompute
from repro.parallel.stages import PipelineLimitError, bubble_fraction


def config(depth, dim=8):
    return OrbitConfig("gpipe-tiny", embed_dim=dim, depth=depth, num_heads=2,
                       in_vars=3, out_vars=2, img_height=8, img_width=8, patch_size=4)


def pipeline_engine(num_stages, depth, seed=0, dim=8, compute=False):
    """The engine at ``pp=num_stages`` over one rank per stage."""
    cluster = VirtualCluster(num_gpus=num_stages, gpus_per_node=8)
    plan = HybridParallelPlan(cluster, pp_size=num_stages)
    model = build_model(config(depth, dim), rng=seed, dtype=np.float64)
    engine = HybridSTOPEngine(
        model, plan, compute_model=PeakFractionCompute(cluster) if compute else None,
    )
    return engine, cluster


def make_setup(num_stages=2, depth=4, micro_batches=3, seed=0, compute=False):
    rng = np.random.default_rng(seed)
    reference = build_model(config(depth), rng=seed, dtype=np.float64)
    engine, cluster = pipeline_engine(num_stages, depth, seed, compute=compute)
    xs = [rng.normal(size=(2, 3, 8, 8)) for _ in range(micro_batches)]
    grads = [rng.normal(size=(2, 2, 8, 8)) for _ in range(micro_batches)]
    return reference, engine, xs, grads, cluster


def run(engine, xs, grads=None):
    """Forward (and backward) the fused micro-batches; per-micro-batch results."""
    x = np.concatenate(xs, axis=0)
    lead = np.full((x.shape[0],), 24.0)
    split = len(xs)
    ys = np.split(engine.forward([[x]], [[lead]])[0][0], split, axis=0)
    if grads is None:
        return ys, None
    gx = engine.backward([[np.concatenate(grads, axis=0)]])[0][0]
    return ys, np.split(gx, split, axis=0)


def serial_grads(reference, xs, grads):
    x = np.concatenate(xs, axis=0)
    reference(x, np.full((x.shape[0],), 24.0))
    reference.zero_grad()
    gx = reference.backward(np.concatenate(grads, axis=0))
    return gx, {name: p.grad for name, p in reference.named_parameters()}


def engine_grads(engine):
    grads = {n: p.grad for n, p in engine.fronts[0][0].named_parameters()}
    grads.update((n, p.grad) for n, p in engine.heads[0][0].named_parameters())
    grads.update(engine.trunks[0].gathered_grads())
    return grads


class TestEquivalence:
    @pytest.mark.parametrize("num_stages", [1, 2, 4])
    def test_forward_matches_serial(self, num_stages):
        reference, engine, xs, _, _ = make_setup(num_stages=num_stages)
        outputs, _ = run(engine, xs)
        for x, y in zip(xs, outputs):
            expected = reference(x, np.full((x.shape[0],), 24.0))
            reference.clear_cache()
            np.testing.assert_allclose(y, expected, rtol=1e-10)

    def test_backward_matches_serial(self):
        reference, engine, xs, grads, _ = make_setup(num_stages=2, seed=1)
        _, grad_inputs = run(engine, xs, grads)
        gx_ref, ref_grads = serial_grads(reference, xs, grads)
        np.testing.assert_allclose(
            np.concatenate(grad_inputs, axis=0), gx_ref, rtol=1e-8, atol=1e-11
        )
        pipe_grads = engine_grads(engine)
        assert pipe_grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                pipe_grads[name], ref, rtol=1e-8, atol=1e-11, err_msg=name
            )


class TestLimitsAndLayout:
    def test_layer_count_limit(self):
        """The paper's Sec II point: stages cannot exceed layers."""
        with pytest.raises(PipelineLimitError):
            pipeline_engine(num_stages=3, depth=2)

    def test_needs_enough_ranks(self):
        cluster = VirtualCluster(num_gpus=2)
        with pytest.raises(ValueError):
            HybridParallelPlan(cluster, pp_size=4)

    def test_uneven_partition(self):
        _, engine, _, _, _ = make_setup(num_stages=3, depth=4)
        sizes = [len(stage.blocks) for stage in engine.trunks[0].stage_trunks]
        assert sizes == [2, 1, 1]
        assert sum(sizes) == 4

    def test_parameters_distributed_across_devices(self):
        _, engine, _, _, cluster = make_setup(num_stages=2, depth=4)
        for stage, trunk in enumerate(engine.trunks[0].stage_trunks):
            stage_bytes = sum(p.shard_nbytes for p in trunk.sharded_parameters())
            assert cluster.device(stage).memory.category_current("params.trunk") == stage_bytes

    def test_boundary_traffic_recorded(self):
        _, engine, xs, grads, cluster = make_setup(num_stages=2)
        run(engine, xs, grads)
        assert cluster.timeline.ledger(0).comm_bytes > 0
        assert cluster.timeline.ledger(1).comm_bytes > 0


class TestSchedule:
    def test_bubble_fraction(self):
        assert bubble_fraction(4, 1) == pytest.approx(3 / 4)
        assert bubble_fraction(4, 12) == pytest.approx(3 / 15)
        with pytest.raises(ValueError):
            bubble_fraction(4, 0)

    def test_more_micro_batches_amortize_the_bubble(self):
        assert bubble_fraction(4, 16) < bubble_fraction(4, 2)

    def test_schedule_walltime_exceeds_ideal(self):
        _, engine, xs, grads, cluster = make_setup(num_stages=2, compute=True)
        tracer = Tracer()
        cluster.timeline.tracer = tracer
        run(engine, xs, grads)
        stall = [0.0, 0.0]
        for span in tracer.spans:
            if span.name == "pipeline.stall":
                stall[span.rank] += span.dur
        ideal = max(cluster.timeline.ledger(s).walltime_s - stall[s] for s in range(2))
        assert cluster.timeline.walltime_s() > ideal  # the bubble costs something


class TestErrors:
    def test_backward_without_forward(self):
        _, engine, _, grads, _ = make_setup()
        with pytest.raises(RuntimeError):
            engine.backward([[np.concatenate(grads, axis=0)]])

    def test_empty_micro_batches(self):
        _, engine, _, _, _ = make_setup()
        with pytest.raises(ValueError):
            engine.forward([], [])
