"""Tests for the dynamic gradient scaler."""

import numpy as np
import pytest

from repro.nn import DynamicGradScaler, Parameter


class TestDynamicGradScaler:
    def _param_with_grad(self, grad_values):
        p = Parameter(np.zeros_like(np.asarray(grad_values, dtype=np.float64)))
        p.add_grad(np.asarray(grad_values, dtype=np.float64))
        return p

    def test_scale_applied_to_seed_grad(self):
        scaler = DynamicGradScaler(init_scale=8.0)
        np.testing.assert_allclose(scaler.scale_loss_grad(np.ones(3)), 8.0)

    def test_unscale_divides_in_place(self):
        scaler = DynamicGradScaler(init_scale=4.0)
        p = self._param_with_grad([8.0, 12.0])
        assert scaler.unscale_and_check([p])
        np.testing.assert_allclose(p.grad, [2.0, 3.0])

    def test_overflow_backs_off_and_skips(self):
        scaler = DynamicGradScaler(init_scale=1024.0, backoff_factor=0.5)
        p = self._param_with_grad([np.inf, 1.0])
        assert not scaler.unscale_and_check([p])
        assert scaler.scale == 512.0
        assert scaler.num_overflows == 1

    def test_nan_detected(self):
        scaler = DynamicGradScaler()
        p = self._param_with_grad([np.nan])
        assert not scaler.unscale_and_check([p])

    def test_growth_after_interval(self):
        scaler = DynamicGradScaler(init_scale=2.0, growth_factor=2.0, growth_interval=3)
        for _ in range(3):
            p = self._param_with_grad([1.0])
            assert scaler.unscale_and_check([p])
        assert scaler.scale == 4.0

    def test_overflow_resets_growth_streak(self):
        scaler = DynamicGradScaler(init_scale=2.0, growth_interval=2)
        scaler.unscale_and_check([self._param_with_grad([1.0])])
        scaler.unscale_and_check([self._param_with_grad([np.inf])])
        scaler.unscale_and_check([self._param_with_grad([1.0])])
        assert scaler.scale == 1.0  # backed off, no growth yet

    def test_min_scale_floor(self):
        scaler = DynamicGradScaler(init_scale=2.0, min_scale=1.0)
        for _ in range(5):
            scaler.unscale_and_check([self._param_with_grad([np.inf])])
        assert scaler.scale == 1.0

    def test_parameters_without_grad_skipped(self):
        scaler = DynamicGradScaler()
        p = Parameter(np.zeros(2))
        assert scaler.unscale_and_check([p])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DynamicGradScaler(init_scale=0.0)
        with pytest.raises(ValueError):
            DynamicGradScaler(growth_factor=1.0)
        with pytest.raises(ValueError):
            DynamicGradScaler(backoff_factor=1.5)

    def test_bf16_underflow_rescued_by_scaling(self):
        """The mechanism the paper describes: gradients below bf16's
        resolution relative to the loss scale survive when pre-scaled."""
        from repro.nn.precision import round_to_bfloat16

        tiny = np.float32(1e-42)  # subnormal; bf16 rounding flushes toward 0
        unscaled = round_to_bfloat16(np.array([tiny], dtype=np.float32))
        scaled = round_to_bfloat16(np.array([tiny * 2.0**16], dtype=np.float32))
        assert scaled[0] / 2.0**16 != 0.0
        assert scaled[0] / 2.0**16 == pytest.approx(float(tiny), rel=2**-7)
