"""Tests for model configs, parameter counting, and FLOP counting."""

import dataclasses

import pytest

from repro.meta import MetaArray
from repro.models import (
    ORBIT_113B,
    ORBIT_10B,
    ORBIT_115M,
    ORBIT_1B,
    PROXY_MODELS,
    OrbitConfig,
    build_model,
    count_parameters,
    parameter_breakdown,
)
from repro.models.flops import forward_flops_per_sample
from repro.nn.context import ExecutionContext, execution_context
from repro.runtime import RunSpec, Session


class TestConfigs:
    def test_paper_presets_match_section_iv(self):
        assert (ORBIT_115M.embed_dim, ORBIT_115M.depth, ORBIT_115M.num_heads) == (1024, 8, 16)
        assert (ORBIT_1B.embed_dim, ORBIT_1B.depth, ORBIT_1B.num_heads) == (3072, 8, 16)
        assert (ORBIT_10B.embed_dim, ORBIT_10B.depth, ORBIT_10B.num_heads) == (8192, 11, 32)
        assert (ORBIT_113B.embed_dim, ORBIT_113B.depth, ORBIT_113B.num_heads) == (12288, 56, 64)

    def test_default_grid_is_1p40625_degree(self):
        assert (ORBIT_115M.img_height, ORBIT_115M.img_width) == (128, 256)

    def test_num_patches(self):
        cfg = OrbitConfig("t", embed_dim=8, depth=1, num_heads=2, img_height=16, img_width=32, patch_size=4)
        assert cfg.num_patches == 4 * 8

    def test_with_channels(self):
        cfg = ORBIT_115M.with_channels(91)
        assert cfg.in_vars == 91 and cfg.out_vars == 91
        cfg2 = ORBIT_115M.with_channels(91, out_vars=4)
        assert cfg2.out_vars == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            OrbitConfig("bad", embed_dim=10, depth=1, num_heads=3)
        with pytest.raises(ValueError):
            OrbitConfig("bad", embed_dim=8, depth=1, num_heads=2, img_height=10, patch_size=4)
        with pytest.raises(ValueError):
            OrbitConfig("bad", embed_dim=8, depth=0, num_heads=2)

    def test_proxy_family_is_size_ordered(self):
        sizes = [count_parameters(cfg) for cfg in PROXY_MODELS.values()]
        assert sizes == sorted(sizes)
        assert len(PROXY_MODELS) == 4


class TestParameterCounts:
    @pytest.mark.parametrize("name", list(PROXY_MODELS))
    def test_analytic_matches_built_model(self, name):
        cfg = PROXY_MODELS[name]
        model = build_model(cfg, meta=True)
        assert model.num_parameters() == count_parameters(cfg)

    def test_analytic_matches_real_model(self):
        cfg = PROXY_MODELS["proxy-115m"]
        model = build_model(cfg, rng=0)
        assert model.num_parameters() == count_parameters(cfg)

    @pytest.mark.parametrize(
        "cfg,target,tolerance",
        [
            (ORBIT_115M, 115e6, 0.15),
            (ORBIT_1B, 1e9, 0.15),
            (ORBIT_10B, 10e9, 0.15),
            (ORBIT_113B, 113e9, 0.15),
        ],
    )
    def test_paper_sizes_within_tolerance(self, cfg, target, tolerance):
        """Sanity: presets land near their advertised sizes."""
        params = count_parameters(cfg)
        assert abs(params - target) / target < tolerance, f"{cfg.name}: {params:.3e}"

    def test_qk_layernorm_adds_parameters(self):
        cfg = PROXY_MODELS["proxy-115m"]
        import dataclasses

        plain = dataclasses.replace(cfg, qk_layernorm=False)
        assert count_parameters(cfg) > count_parameters(plain)

    def test_breakdown_sums_to_total(self):
        cfg = PROXY_MODELS["proxy-10b"]
        assert sum(parameter_breakdown(cfg).values()) == count_parameters(cfg)


class TestFlops:
    def test_analytic_matches_meta_execution(self):
        cfg = PROXY_MODELS["proxy-1b"]
        model = build_model(cfg, meta=True)
        ctx = ExecutionContext()
        with execution_context(ctx):
            model(MetaArray((1, cfg.in_vars, cfg.img_height, cfg.img_width)), MetaArray((1,)))
        assert ctx.matmul_flops == pytest.approx(forward_flops_per_sample(cfg), rel=1e-12)

    def test_backward_is_twice_forward(self):
        """Each matmul's backward makes two of its size (input and
        weight gradients), counted where the meta model runs them."""
        cfg = PROXY_MODELS["proxy-115m"]
        model = build_model(cfg, meta=True)
        forward, backward = ExecutionContext(), ExecutionContext()
        with execution_context(forward):
            y = model(MetaArray((1, cfg.in_vars, cfg.img_height, cfg.img_width)),
                      MetaArray((1,)))
        with execution_context(backward):
            model.backward(MetaArray(y.shape))
        assert forward.matmul_flops == forward_flops_per_sample(cfg)
        assert backward.matmul_flops == 2 * forward.matmul_flops

    def test_checkpointing_adds_one_forward(self):
        """The engine's ``recompute`` re-runs each trunk block's forward
        once in backward: one more trunk forward per sample, on top of
        the three forwards' worth a step costs without it."""
        cfg = PROXY_MODELS["proxy-115m"]
        batch = 2
        step = {}
        for recompute in (False, True):
            spec = RunSpec(config=cfg, num_gpus=1, gpus_per_node=1, tp_size=1,
                           fsdp_size=1, ddp_size=1, micro_batch=batch, meta=True,
                           recompute=recompute)
            ctx = ExecutionContext()
            with execution_context(ctx):
                Session(spec).meta_step()
            step[recompute] = ctx.matmul_flops
        shallower = dataclasses.replace(cfg, depth=cfg.depth - 1)
        block = forward_flops_per_sample(cfg) - forward_flops_per_sample(shallower)
        assert step[False] == batch * 3 * forward_flops_per_sample(cfg)
        assert step[True] - step[False] == batch * cfg.depth * block

    def test_flops_grow_with_channels(self):
        f48 = forward_flops_per_sample(ORBIT_115M)
        f91 = forward_flops_per_sample(ORBIT_115M.with_channels(91))
        assert f91 > f48

    def test_113b_per_sample_flops_magnitude(self):
        # 113B params, 2048 tokens: forward alone is several hundred TFLOPs.
        assert forward_flops_per_sample(ORBIT_113B) > 1e14
