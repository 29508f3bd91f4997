"""AdamW over parameter handles (dense or sharded).

The optimizer works on anything exposing ``.data`` and ``.grad`` —
plain :class:`~repro.nn.parameter.Parameter` objects, or per-shard
views of a :class:`~repro.core.sharding.ShardedParameter` (how
Hybrid-STOP keeps optimizer state sharded: each rank updates only its
flat shard, one of the memory wins of the scheme).
"""

from __future__ import annotations

import numpy as np

from repro.core.sharding import ShardedParameter


class _ShardView:
    """data/grad view of one flat shard of a ShardedParameter."""

    def __init__(self, param: ShardedParameter, index: int):
        self._param = param
        self._index = index
        self.name = f"{param.name}[shard{index}]"

    @property
    def data(self):
        return self._param.shards[self._index]

    @data.setter
    def data(self, value):
        self._param.shards[self._index] = value

    @property
    def grad(self):
        if self._param.grad_shards is None:
            return None
        return self._param.grad_shards[self._index]


def sharded_views(params: list[ShardedParameter]) -> list[_ShardView]:
    """Per-shard optimizer handles for a list of sharded parameters."""
    return [
        _ShardView(param, index)
        for param in params
        for index in range(param.num_shards)
    ]


class AdamW:
    """Decoupled-weight-decay Adam (the standard ViT pre-training optimizer)."""

    def __init__(
        self,
        params: list,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.95),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        if lr <= 0 or eps <= 0:
            raise ValueError("lr and eps must be positive")
        if not 0 <= betas[0] < 1 or not 0 <= betas[1] < 1:
            raise ValueError("betas must be in [0, 1)")
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(np.asarray(p.data, dtype=np.float64)) for p in self.params]
        self._v = [np.zeros_like(np.asarray(p.data, dtype=np.float64)) for p in self.params]

    def step(self, lr: float | None = None) -> None:
        """Apply one update using the accumulated gradients."""
        lr = self.lr if lr is None else lr
        beta1, beta2 = self.betas
        self.step_count += 1
        bias1 = 1.0 - beta1**self.step_count
        bias2 = 1.0 - beta2**self.step_count
        for i, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            grad = np.asarray(grad, dtype=np.float64)
            self._m[i] = beta1 * self._m[i] + (1 - beta1) * grad
            self._v[i] = beta2 * self._v[i] + (1 - beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            data = np.asarray(param.data, dtype=np.float64)
            data = data - lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * data)
            param.data = data.astype(np.asarray(param.data).dtype)

    def state_dict(self) -> dict:
        """Persistable state: the float64 moments (positional, relying on
        the deterministic parameter ordering) plus the bias-correction
        step counter."""
        arrays = {}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            arrays[f"m::{i}"] = m
            arrays[f"v::{i}"] = v
        return {"arrays": arrays, "scalars": {"step_count": self.step_count}}

    def load_state_dict(self, state: dict) -> None:
        """Restore moments saved by :meth:`state_dict` (bitwise).

        Raises ``ValueError`` when the checkpoint's parameter count or
        shapes do not match this optimizer's.
        """
        arrays = state["arrays"]
        if len(arrays) != 2 * len(self.params):
            raise ValueError(
                f"optimizer state holds {len(arrays) // 2} moment pairs, "
                f"expected {len(self.params)}"
            )
        for i in range(len(self.params)):
            m = np.asarray(arrays[f"m::{i}"], dtype=np.float64)
            v = np.asarray(arrays[f"v::{i}"], dtype=np.float64)
            if m.shape != self._m[i].shape or v.shape != self._v[i].shape:
                raise ValueError(f"moment shape mismatch for parameter {i}")
            self._m[i] = m
            self._v[i] = v
        self.step_count = int(state["scalars"]["step_count"])
