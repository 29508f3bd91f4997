"""1F1B bitwise parity: the pipelined engine is the same computation.

The 4D engine's contract is *numerical exactness*, not closeness: a
``pp_size > 1`` step runs the same blocks in the same order as the
serial model, micro-batches fused, so its forward outputs, input
gradients, gathered state dict, gathered gradients, and loss must be
bitwise-equal to the ``pp_size = 1`` engine of the same
``(tp, fsdp, ddp)`` sub-grid — the pipeline axis never moves a float.
Against the *serial* model the gathered state dict is bitwise too; the
activations are bitwise at ``tp = 1`` and agree to summation-order
rounding at ``tp > 1`` (a pre-existing property of the 3D engine's
split matmuls, not of the pipeline axis), within the bound that
:func:`tp_reassociation_bound` derives from the split reductions.
Randomized 4D grids up to 32 GCDs pin the property on the engine; the
``pipeline`` pair in ``tests/invariants`` pins it on whole numeric
sessions (loss, gradient, parameter and AdamW-moment digests after
every step).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import VirtualCluster
from repro.models import OrbitConfig, build_model
from repro.parallel import HybridParallelPlan, HybridSTOPEngine


def _config(depth):
    return OrbitConfig(
        "pipe-tiny", embed_dim=8, depth=depth, num_heads=2,
        in_vars=3, out_vars=2, img_height=8, img_width=8, patch_size=4,
    )


#: 4D grids with a non-trivial pipeline axis, world size <= 32.
GRIDS_4D = sorted(
    (pp, tp, fsdp, ddp)
    for pp in (2, 3, 4)
    for tp in (1, 2)
    for fsdp in (1, 2)
    for ddp in (1, 2)
    if pp * tp * fsdp * ddp <= 32
)


def make_engine(pp, tp, fsdp, ddp, depth, seed):
    cluster = VirtualCluster(num_gpus=pp * tp * fsdp * ddp, gpus_per_node=1)
    plan = HybridParallelPlan(
        cluster, tp_size=tp, fsdp_size=fsdp, ddp_size=ddp, pp_size=pp
    )
    model = build_model(_config(depth), rng=seed, dtype=np.float64)
    return HybridSTOPEngine(model, plan)


def make_batches(ddp, fsdp, micro_batch, seed):
    rng = np.random.default_rng(seed)
    xs = [
        [rng.normal(size=(micro_batch, 3, 8, 8)) for _ in range(fsdp)]
        for _ in range(ddp)
    ]
    leads = [
        [np.full((micro_batch,), 24.0) for _ in range(fsdp)] for _ in range(ddp)
    ]
    grad_ys = [
        [rng.normal(size=(micro_batch, 2, 8, 8)) for _ in range(fsdp)]
        for _ in range(ddp)
    ]
    return xs, leads, grad_ys


def run_step(engine, xs, leads, grad_ys):
    ys = engine.forward(xs, leads)
    grad_xs = engine.backward(grad_ys)
    engine.allreduce_gradients()
    loss = float(
        np.mean(np.concatenate([y for rep in ys for y in rep], axis=0) ** 2)
    )
    return ys, grad_xs, loss


def assert_bitwise(name, got, want):
    assert np.array_equal(np.asarray(got), np.asarray(want)), name


def tp_reassociation_bound(config, backward):
    """Largest gap to the serial model, in units of ``max|ref|``, that
    summation order alone explains at ``tp > 1``.

    Tensor parallelism splits each block's row-parallel reductions into
    per-rank partial sums: forward, the attention output projection
    (``embed_dim`` terms) and the MLP's second matmul (``hidden_dim``);
    backward adds the input gradients through the MLP's first matmul
    (``hidden_dim``) and the q/k/v projections (``3 * embed_dim``).  Two
    orders of one ``n``-term sum differ by at most
    ``(n - 1) * eps * sum|terms| <= n * (n - 1) * eps * max|term|``
    (Higham's gamma bound, once per order).  With every block's terms
    at the scale of ``max|ref|``, the per-block bounds add up.
    """
    d, h = config.embed_dim, config.hidden_dim
    lengths = (d, h, h, 3 * d) if backward else (d, h)
    eps = np.finfo(np.float64).eps
    return config.depth * eps * sum(n * (n - 1) for n in lengths)


def assert_close_to_serial(name, got, ref, bound):
    gap = np.max(np.abs(got - ref))
    scale = np.max(np.abs(ref))
    assert gap <= bound * scale, (
        f"{name}: max|got - ref| {gap:.3g} > {bound:.3g} * max|ref| {scale:.3g}")


class TestPipelinedBitwiseParity:
    @given(
        grid=st.sampled_from(GRIDS_4D),
        extra_depth=st.integers(min_value=0, max_value=2),
        micro_batch=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    # A near-cancelling input-gradient element: 1.2e-9 off relative to
    # itself, 330 eps * max|ref| off in max-abs.
    @example(grid=(4, 2, 1, 1), extra_depth=2, micro_batch=2, seed=2612)
    def test_pipelined_step_is_bitwise_equal(
        self, grid, extra_depth, micro_batch, seed
    ):
        pp, tp, fsdp, ddp = grid
        depth = pp + extra_depth  # stages never exceed blocks
        xs, leads, grad_ys = make_batches(ddp, fsdp, micro_batch, seed + 1)

        piped = make_engine(pp, tp, fsdp, ddp, depth, seed)
        flat = make_engine(1, tp, fsdp, ddp, depth, seed)
        p_ys, p_gxs, p_loss = run_step(piped, xs, leads, grad_ys)
        f_ys, f_gxs, f_loss = run_step(flat, xs, leads, grad_ys)

        # Serial reference over the flattened global batch.
        serial = build_model(_config(depth), rng=seed, dtype=np.float64)
        x_all = np.concatenate([x for rep in xs for x in rep], axis=0)
        lead_all = np.concatenate([l for rep in leads for l in rep], axis=0)
        g_all = np.concatenate([g for rep in grad_ys for g in rep], axis=0)
        y_ref = serial(x_all, lead_all)
        serial.zero_grad()
        gx_ref = serial.backward(g_all)
        loss_ref = float(np.mean(y_ref**2))

        p_y_all = np.concatenate([y for rep in p_ys for y in rep], axis=0)
        p_gx_all = np.concatenate([g for rep in p_gxs for g in rep], axis=0)
        if tp == 1:
            assert_bitwise("forward vs serial", p_y_all, y_ref)
            assert_bitwise("input grads vs serial", p_gx_all, gx_ref)
            assert p_loss == loss_ref
        else:
            # tp > 1 splits matmul reductions; the 3D engine already
            # agrees with serial only to summation-order rounding.
            config = _config(depth)
            assert_close_to_serial("forward vs serial", p_y_all, y_ref,
                                   tp_reassociation_bound(config, backward=False))
            assert_close_to_serial("input grads vs serial", p_gx_all, gx_ref,
                                   tp_reassociation_bound(config, backward=True))
            assert p_loss == pytest.approx(loss_ref, rel=1e-12)
        assert p_loss == f_loss
        for pr, fr in zip(p_ys, f_ys):
            for py, fy in zip(pr, fr):
                assert_bitwise("forward vs pp=1 engine", py, fy)
        for pr, fr in zip(p_gxs, f_gxs):
            for pg, fg in zip(pr, fr):
                assert_bitwise("input grads vs pp=1 engine", pg, fg)

        p_state = piped.gathered_state_dict()
        f_state = flat.gathered_state_dict()
        s_state = serial.state_dict()
        assert p_state.keys() == f_state.keys() == s_state.keys()
        for key in p_state:
            assert_bitwise(f"state[{key}] vs pp=1", p_state[key], f_state[key])
            assert_bitwise(f"state[{key}] vs serial", p_state[key], s_state[key])
        p_grads = piped.trunks[0].gathered_grads()
        f_grads = flat.trunks[0].gathered_grads()
        assert p_grads.keys() == f_grads.keys()
        for key in p_grads:
            assert_bitwise(f"grads[{key}] vs pp=1", p_grads[key], f_grads[key])

    def test_pipelined_state_dict_matches_serial_names(self):
        engine = make_engine(2, 1, 2, 1, 3, seed=3)
        serial = build_model(_config(3), rng=3, dtype=np.float64)
        assert engine.gathered_state_dict().keys() == serial.state_dict().keys()

    def test_stage_partition_is_contiguous(self):
        engine = make_engine(3, 1, 1, 1, 4, seed=0)
        trunk = engine.trunks[0]
        sizes = [len(t.blocks) for t in trunk.stage_trunks]
        assert sizes == [2, 1, 1]
        indices = [int(b.name.rsplit("block", 1)[1]) for b in trunk.blocks]
        assert indices == [0, 1, 2, 3]

    def test_pipeline_schedule_accounting(self):
        """pp=2 records boundary sends and 1F1B stalls that pad every
        stage to the common makespan ``(M + S - 1) / M`` of the slowest
        stage's busy time; none of that machinery runs at pp=1.  The
        grid keeps ``fsdp = tp = 1`` so the dense front/head grad
        syncs — which land *after* the stall pad on the first and last
        stages — are single-rank no-ops and the equality is exact."""
        from repro.obs.tracer import Tracer
        from repro.parallel.compute import PeakFractionCompute

        def timed(pp, micro_batch):
            cluster = VirtualCluster(num_gpus=pp, gpus_per_node=1)
            tracer = Tracer()
            cluster.timeline.tracer = tracer
            plan = HybridParallelPlan(
                cluster, tp_size=1, fsdp_size=1, ddp_size=1, pp_size=pp
            )
            model = build_model(_config(2), rng=0, dtype=np.float64)
            engine = HybridSTOPEngine(
                model, plan, compute_model=PeakFractionCompute(cluster)
            )
            xs, leads, grad_ys = make_batches(1, 1, micro_batch, seed=1)
            run_step(engine, xs, leads, grad_ys)
            return cluster, tracer

        pipeline_ops = {"pipeline.stall", "pipeline.send", "pipeline.grad_send"}
        _, flat_tracer = timed(1, 2)
        assert not pipeline_ops & {s.name for s in flat_tracer.spans}

        M, S = 2, 2
        cluster, tracer = timed(S, M)
        assert pipeline_ops <= {s.name for s in tracer.spans}
        stall = [0.0] * cluster.world_size
        for span in tracer.spans:
            if span.name == "pipeline.stall":
                stall[span.rank] += span.dur
        busy = [
            cluster.timeline.ledger(r).walltime_s - stall[r]
            for r in range(cluster.world_size)
        ]
        # Stalls pad every rank to the common 1F1B makespan, so the
        # padded walltimes agree and equal the closed-form schedule.
        walls = {
            round(cluster.timeline.ledger(r).walltime_s, 15)
            for r in range(cluster.world_size)
        }
        assert len(walls) == 1
        expected = (M + S - 1) * max(busy) / M
        assert cluster.timeline.walltime_s() == pytest.approx(expected)
        assert max(stall) > 0


class TestPipelineLimits:
    def test_more_stages_than_blocks_rejected(self):
        from repro.parallel.stages import PipelineLimitError

        with pytest.raises(PipelineLimitError, match="limited by the number"):
            make_engine(4, 1, 1, 1, depth=3, seed=0)
