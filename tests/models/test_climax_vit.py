"""Tests for the full ClimaX/ORBIT model: shapes, gradients, modes."""

import numpy as np
import pytest

from repro.meta import MetaArray, is_meta
from repro.models import PROXY_MODELS, OrbitConfig, build_model

from tests.nn.gradcheck import check_module_gradients

TINY = OrbitConfig(
    "tiny",
    embed_dim=8,
    depth=2,
    num_heads=2,
    in_vars=3,
    out_vars=2,
    img_height=8,
    img_width=8,
    patch_size=4,
)


def tiny_inputs(batch=2, dtype=np.float64, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    x = rng.normal(size=(batch, TINY.in_vars, TINY.img_height, TINY.img_width)).astype(dtype)
    lead = np.full((batch,), 24.0, dtype)
    return x, lead


class TestForward:
    def test_output_shape(self):
        model = build_model(TINY, rng=0)
        x, lead = tiny_inputs(dtype=np.float32)
        y = model(x, lead)
        assert y.shape == (2, TINY.out_vars, 8, 8)

    def test_input_shape_validated(self):
        model = build_model(TINY, rng=0)
        with pytest.raises(ValueError):
            model(np.zeros((2, 5, 8, 8), np.float32), np.zeros(2, np.float32))

    def test_deterministic_given_seed(self):
        x, lead = tiny_inputs(dtype=np.float32)
        y1 = build_model(TINY, rng=7)(x, lead)
        y2 = build_model(TINY, rng=7)(x, lead)
        np.testing.assert_array_equal(y1, y2)

    def test_different_lead_times_differ(self):
        model = build_model(TINY, rng=0)
        x, _ = tiny_inputs(dtype=np.float32)
        y1 = model(x, np.full(2, 24.0, np.float32))
        model.clear_cache()
        y30 = model(x, np.full(2, 720.0, np.float32))
        assert not np.allclose(y1, y30)

    def test_qk_layernorm_changes_model(self):
        import dataclasses

        x, lead = tiny_inputs(dtype=np.float32)
        orbit = build_model(TINY, rng=0)(x, lead)
        climax = build_model(dataclasses.replace(TINY, qk_layernorm=False), rng=0)(x, lead)
        assert not np.allclose(orbit, climax)


class TestBackward:
    def test_gradcheck_full_model(self):
        model = build_model(TINY, rng=0, dtype=np.float64)
        x, lead = tiny_inputs(batch=1)
        check_module_gradients(
            model, x, forward=lambda inp: model(inp, lead), rtol=2e-4, atol=1e-6
        )

    def test_backward_shape(self):
        model = build_model(TINY, rng=0)
        x, lead = tiny_inputs(dtype=np.float32)
        y = model(x, lead)
        gx = model.backward(np.ones_like(y))
        assert gx.shape == x.shape

    def test_all_parameters_receive_gradients(self):
        model = build_model(TINY, rng=0)
        x, lead = tiny_inputs(dtype=np.float32)
        y = model(x, lead)
        model.backward(np.ones_like(y))
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert missing == []


class TestActivationCheckpointing:
    def test_equivalent_outputs_and_gradients(self):
        """The engine's ``recompute`` re-runs each block's forward in
        backward; losses, gradients, parameters and moments equal the
        run that keeps its activations, at pp = 1 and pp = 2 (the
        invariant registry's ``recompute`` pair)."""
        from tests.invariants.registry import Draw, check

        for grid in ((1, 2, 2, 2), (2, 2, 2, 1)):
            check(Draw(grid, meta=False, recompute=True), pairs=["recompute"])


class TestMetaMode:
    def test_meta_forward_backward(self):
        cfg = PROXY_MODELS["proxy-113b"]
        model = build_model(cfg, meta=True)
        x = MetaArray((2, cfg.in_vars, cfg.img_height, cfg.img_width))
        y = model(x, MetaArray((2,)))
        assert is_meta(y)
        assert y.shape == (2, cfg.out_vars, cfg.img_height, cfg.img_width)
        gx = model.backward(MetaArray(y.shape))
        assert gx.shape == x.shape

    def test_meta_parameters_have_no_data(self):
        model = build_model(PROXY_MODELS["proxy-115m"], meta=True)
        assert all(p.is_meta for p in model.parameters())

    def test_paper_113b_config_buildable_in_meta(self):
        """The full 113-billion-parameter model is constructible (shape-only)."""
        from repro.models import ORBIT_113B, count_parameters

        model = build_model(ORBIT_113B, meta=True)
        assert model.num_parameters() == count_parameters(ORBIT_113B)
        assert model.num_parameters() > 100e9
