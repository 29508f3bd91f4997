"""Tests for the walltime model, FLOP counting, and scaling metrics."""

import dataclasses

import numpy as np
import pytest

from repro.memory import Parallelism, TrainingSetup
from repro.models import ORBIT_113B, ORBIT_10B, PROXY_MODELS, build_model
from repro.nn.context import ExecutionContext, execution_context
from repro.perf import PerfConstants, PerformanceModel, scaling_efficiency
from repro.perf.metrics import epoch_hours


@pytest.fixture(scope="module")
def pm():
    return PerformanceModel()


def hybrid_setup(num_gpus=512, tp=8, fsdp=64, b=3, config=ORBIT_113B, **kwargs):
    return TrainingSetup(
        config, num_gpus, Parallelism.HYBRID_STOP,
        tp_size=tp, fsdp_size=fsdp, micro_batch=b, **kwargs,
    )


class TestTable1Sequence:
    """The optimization ablation must reproduce Table I's ordering and scale."""

    @pytest.fixture(scope="class")
    def rows(self):
        pm = PerformanceModel()
        base = hybrid_setup(b=1, bf16=False, activation_checkpointing=False, prefetch=False)
        return {
            "wrap": pm.time_per_observation(base),
            "bf16": pm.time_per_observation(dataclasses.replace(base, bf16=True)),
            "prefetch": pm.time_per_observation(
                dataclasses.replace(base, bf16=True, prefetch=True)
            ),
            "ckpt": pm.time_per_observation(
                dataclasses.replace(
                    base, bf16=True, prefetch=True,
                    activation_checkpointing=True, micro_batch=3,
                )
            ),
        }

    def test_monotone_improvement(self, rows):
        assert rows["wrap"] > rows["bf16"] > rows["prefetch"] > rows["ckpt"]

    def test_anchor_values(self, rows):
        assert rows["wrap"] == pytest.approx(0.97, rel=0.15)
        assert rows["bf16"] == pytest.approx(0.49, rel=0.15)
        assert rows["prefetch"] == pytest.approx(0.40, rel=0.15)
        assert rows["ckpt"] == pytest.approx(0.17, rel=0.25)

    def test_mixed_precision_is_2x(self, rows):
        assert rows["wrap"] / rows["bf16"] == pytest.approx(2.0, rel=0.05)

    def test_unwrapped_config_ooms(self, pm):
        base = hybrid_setup(b=1, bf16=False, activation_checkpointing=False,
                            prefetch=False, layer_wrapping=False)
        assert not pm.fits(base)


class TestFig7Anchors:
    def test_113b_time_and_throughput_at_49k(self, pm):
        st = pm.step_time(hybrid_setup(num_gpus=49152))
        assert st.time_per_observation_s == pytest.approx(3e-3, rel=0.25)
        assert st.sustained_flops == pytest.approx(684e15, rel=0.25)

    def test_10b_reaches_near_exaflops(self, pm):
        setup = hybrid_setup(num_gpus=49152, config=ORBIT_10B, fsdp=8, b=6)
        st = pm.step_time(setup)
        assert st.sustained_flops > 0.6e18
        assert st.time_per_observation_s < 3e-4

    def test_91_channels_slower_than_48(self, pm):
        """Fig 7b: more input channels raise time per observation."""
        t48 = pm.time_per_observation(hybrid_setup(num_gpus=49152))
        t91 = pm.time_per_observation(
            hybrid_setup(num_gpus=49152, config=ORBIT_113B.with_channels(91))
        )
        assert t91 > t48

    def test_efficiency_range_matches_paper(self, pm):
        """Strong scaling efficiencies at 49,152 GPUs fall in 41-85%+."""
        effs = []
        for config, tp, fsdp, b in (
            (ORBIT_113B, 8, 64, 3),
            (ORBIT_10B, 8, 8, 6),
            (PROXY_MODELS["proxy-115m"], 1, 1, 8),
        ):
            if config.name.startswith("proxy"):
                continue
            t512 = pm.time_per_observation(
                hybrid_setup(num_gpus=512, config=config, tp=tp, fsdp=fsdp, b=b)
            )
            t49k = pm.time_per_observation(
                hybrid_setup(num_gpus=49152, config=config, tp=tp, fsdp=fsdp, b=b)
            )
            effs.append(scaling_efficiency(512, t512, 49152, t49k))
        assert all(0.35 < e <= 1.0 for e in effs)

    def test_epoch_under_an_hour_for_113b(self, pm):
        """Paper: one epoch (1.2M points) in ~0.8 h at 49,152 GPUs."""
        t = pm.time_per_observation(hybrid_setup(num_gpus=49152))
        assert epoch_hours(t) == pytest.approx(0.8, rel=0.35)


class TestFig6Behaviour:
    def test_balanced_config_fastest(self, pm):
        """Fig 6a: FSDP=64/TP=8 beats larger tensor-parallel degrees by a
        lot (the paper reports 25x vs FSDP=2/TP=256, dominated by the
        sub-head score reductions and inter-node activation traffic)."""
        times = {}
        for tp in (8, 64, 256):
            setup = hybrid_setup(tp=tp, fsdp=512 // tp, b=2)
            times[tp] = pm.time_per_observation(setup)
        assert times[8] == min(times.values())
        assert times[256] > 10 * times[8]

    def test_tp_beyond_node_pays_interconnect(self, pm):
        t8 = pm.time_per_observation(hybrid_setup(tp=8, fsdp=64, b=2))
        t64 = pm.time_per_observation(hybrid_setup(tp=64, fsdp=8, b=2))
        assert t64 > t8


class TestModelBasics:
    def test_step_breakdown_sums(self, pm):
        st = pm.step_time(hybrid_setup())
        assert st.step_s == pytest.approx(
            st.compute_s + st.exposed_gather_s + st.tp_allreduce_s + st.ddp_allreduce_s
        )

    def test_max_micro_batch(self, pm):
        setup = hybrid_setup(b=1)
        b = pm.max_micro_batch(setup)
        assert b >= 3
        assert pm.memory_model.fits(dataclasses.replace(setup, micro_batch=b))
        assert not pm.memory_model.fits(dataclasses.replace(setup, micro_batch=b + 1))

    def test_constants_sustained_ratio(self):
        c = PerfConstants()
        assert c.sustained_flops(True, 2) == pytest.approx(2 * c.sustained_flops(False, 2))

    def test_congestion_grows_with_scale(self):
        c = PerfConstants()
        assert c.congestion_factor(512) == 1.0
        assert c.congestion_factor(49152) > c.congestion_factor(4096) > 1.0

    def test_ddp_fills_remaining_gpus(self, pm):
        st_1replica = pm.step_time(hybrid_setup(num_gpus=512))
        st_2replica = pm.step_time(hybrid_setup(num_gpus=1024))
        assert st_2replica.observations_per_step == 2 * st_1replica.observations_per_step


class TestFlopsProfiler:
    """``ExecutionContext`` is the DeepSpeed FLOPs profiler of paper Sec IV."""

    def test_counts_real_execution(self):
        cfg = PROXY_MODELS["proxy-115m"]
        model = build_model(cfg, rng=0)
        ctx = ExecutionContext()
        x = np.zeros((1, cfg.in_vars, cfg.img_height, cfg.img_width), np.float32)
        with execution_context(ctx):
            model(x, np.zeros(1, np.float32))
        from repro.models.flops import forward_flops_per_sample

        assert ctx.matmul_flops == pytest.approx(forward_flops_per_sample(cfg))
        assert ctx.flops > ctx.matmul_flops

    def test_accumulates_and_resets(self):
        ctx = ExecutionContext()
        from repro.nn import ops

        with execution_context(ctx):
            ops.matmul(np.ones((2, 2)), np.ones((2, 2)))
        first_total = ctx.flops
        with execution_context(ctx):
            ops.matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert ctx.flops == 2 * first_total
        ctx.reset()
        assert ctx.flops == 0 and first_total > 0


class TestMetrics:
    def test_perfect_scaling_is_one(self):
        assert scaling_efficiency(512, 1.0, 1024, 0.5) == pytest.approx(1.0)

    def test_no_speedup_halves(self):
        assert scaling_efficiency(512, 1.0, 1024, 1.0) == pytest.approx(0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            scaling_efficiency(0, 1.0, 10, 1.0)
        with pytest.raises(ValueError):
            epoch_hours(0.0)
