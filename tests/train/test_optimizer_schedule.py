"""Tests for AdamW, shard views, schedules, loss, and checkpointing."""

import numpy as np
import pytest

from repro.core.sharding import ShardedParameter, flat_pad_shard
from repro.nn import Linear, Parameter
from repro.train import (
    AdamW,
    WarmupCosineSchedule,
    latitude_weighted_mse,
    sharded_views,
)
from tests.train.test_checkpoint import load_state, save_state


class TestAdamW:
    def test_minimizes_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        for _ in range(200):
            p.zero_grad()
            p.add_grad(2 * p.data)  # d/dx of x^2
            opt.step()
        np.testing.assert_allclose(p.data, 0.0, atol=1e-2)

    def test_weight_decay_shrinks_params(self):
        p = Parameter(np.array([10.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.add_grad(np.zeros(1))
        for _ in range(20):
            opt.step()
        assert abs(p.data[0]) < 10.0

    def test_skips_gradless_params(self):
        p = Parameter(np.array([1.0]))
        AdamW([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_per_step_lr_override(self):
        p = Parameter(np.array([1.0]))
        opt = AdamW([p], lr=1.0, weight_decay=0.0)
        p.add_grad(np.ones(1))
        opt.step(lr=0.0)
        assert p.data[0] == 1.0  # zero LR -> no movement

    def test_sharded_views_update_shards(self):
        param = ShardedParameter(np.full((2, 2), 4.0), 2, "w")
        views = sharded_views([param])
        assert len(views) == 2
        param.set_grad_shards(flat_pad_shard(np.ones((2, 2)), 2))
        opt = AdamW(views, lr=0.5, weight_decay=0.0)
        opt.step()
        assert (param.full() < 4.0).all()

    def test_sharded_update_matches_dense_update(self):
        """Shard-wise AdamW == dense AdamW on the same gradient (the
        property that keeps DDP replicas and serial training in sync)."""
        values = np.arange(6.0).reshape(2, 3)
        grads = np.linspace(-1, 1, 6).reshape(2, 3)

        dense = Parameter(values.copy())
        dense.add_grad(grads)
        AdamW([dense], lr=0.1).step()

        sharded = ShardedParameter(values.copy(), 2, "w")
        sharded.set_grad_shards(flat_pad_shard(grads, 2))
        AdamW(sharded_views([sharded]), lr=0.1).step()

        np.testing.assert_allclose(sharded.full(), dense.data, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdamW([], lr=0.0)
        with pytest.raises(ValueError):
            AdamW([], betas=(1.0, 0.9))

    def test_state_bytes(self):
        p = Parameter(np.zeros(10, np.float32))
        opt = AdamW([p])
        moments = opt.state_dict()["arrays"].values()
        assert sum(m.nbytes for m in moments) == 2 * 10 * 8  # float64 m and v


class TestSchedule:
    def test_warmup_ramps_linearly(self):
        sched = WarmupCosineSchedule(1.0, warmup_steps=10, total_steps=100)
        assert sched(0) == pytest.approx(0.1)
        assert sched(4) == pytest.approx(0.5)
        assert sched(9) == pytest.approx(1.0)

    def test_cosine_decays_to_floor(self):
        sched = WarmupCosineSchedule(1.0, warmup_steps=0, total_steps=100, min_lr_fraction=0.1)
        assert sched(0) == pytest.approx(1.0)
        assert sched(100) == pytest.approx(0.1)
        assert sched(1000) == pytest.approx(0.1)  # clamps past the end

    def test_monotone_after_warmup(self):
        sched = WarmupCosineSchedule(1.0, warmup_steps=5, total_steps=50)
        values = [sched(s) for s in range(5, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupCosineSchedule(0.0, 0, 10)
        with pytest.raises(ValueError):
            WarmupCosineSchedule(1.0, 10, 10)
        with pytest.raises(ValueError):
            WarmupCosineSchedule(1.0, 0, 10)(-1)


class TestLoss:
    def test_zero_for_perfect_prediction(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 8))
        loss, grad = latitude_weighted_mse(x, x, np.ones((4, 1)))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_matches_plain_mse_with_unit_weights(self):
        rng = np.random.default_rng(1)
        pred, target = rng.normal(size=(2, 1, 4, 4)), rng.normal(size=(2, 1, 4, 4))
        loss, _ = latitude_weighted_mse(pred, target, np.ones((4, 1)))
        assert loss == pytest.approx(((pred - target) ** 2).mean())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(1, 2, 4, 4))
        target = rng.normal(size=(1, 2, 4, 4))
        weights = np.linspace(0.5, 1.5, 4)[:, None]
        _, grad = latitude_weighted_mse(pred, target, weights)
        eps = 1e-6
        probe = pred.copy()
        probe[0, 1, 2, 3] += eps
        up, _ = latitude_weighted_mse(probe, target, weights)
        probe[0, 1, 2, 3] -= 2 * eps
        down, _ = latitude_weighted_mse(probe, target, weights)
        assert grad[0, 1, 2, 3] == pytest.approx((up - down) / (2 * eps), rel=1e-4)

    def test_weighting_emphasizes_equator(self):
        pred = np.zeros((1, 1, 4, 4))
        target_eq = np.zeros((1, 1, 4, 4))
        target_eq[0, 0, 2] = 1.0  # error at a high-weight row
        target_pole = np.zeros((1, 1, 4, 4))
        target_pole[0, 0, 0] = 1.0  # error at a low-weight row
        weights = np.array([0.2, 0.8, 1.8, 1.2])[:, None]
        loss_eq, _ = latitude_weighted_mse(pred, target_eq, weights)
        loss_pole, _ = latitude_weighted_mse(pred, target_pole, weights)
        assert loss_eq > loss_pole

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            latitude_weighted_mse(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            latitude_weighted_mse(
                np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)), np.ones((2, 1))
            )


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        a = Linear(4, 3, rng=0)
        b = Linear(4, 3, rng=99)
        save_state(tmp_path / "ckpt.npz", a, metadata={"step": 7})
        meta = load_state(tmp_path / "ckpt.npz", b)
        assert meta["user"] == {"step": 7}
        x = np.random.default_rng(0).normal(size=(2, 4))
        np.testing.assert_array_equal(a(x), b(x))

    def test_creates_parent_dirs(self, tmp_path):
        save_state(tmp_path / "deep" / "dir" / "c.npz", Linear(2, 2, rng=0))
        assert (tmp_path / "deep" / "dir" / "c.npz").exists()
