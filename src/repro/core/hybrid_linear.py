"""Hybrid-STOP feed-forward sublayer (paper Fig 3, applied to GeLU(xA)B).

Parameter layout for tensor-parallel degree K and FSDP degree F:

* ``A`` (``dim x hidden``) and its bias are split into K *column*
  shards; tensor-parallel rank k owns ``A_k = A[:, k]``;
* ``B`` (``hidden x dim``) is split into K *row* shards;
  rank k owns ``B_k = B[k, :]``; the output bias rides with rank 0
  (partials are summed, so adding it once is exact);
* every per-rank shard is additionally flat-sharded over the F members
  of that rank's FSDP group and all-gathered just-in-time (Fig 3
  timesteps T2/T3 and T6), then freed — the full ``A`` or ``B`` is
  never materialized anywhere.

Forward per FSDP index f (own micro-batch ``x_f``)::

    h_fk = GeLU(x_f @ A_k + b1_k)          # on rank (f, k)
    y_f  = all_reduce_k( h_fk @ B_k ) + b2  # Eqn 2

Backward mirrors Fig 3(b): gather ``B_k`` row shards, reduce-scatter
their gradients, gather ``A_k`` column shards, reduce-scatter theirs,
and all-reduce the input gradient over the tensor-parallel group
(Eqn 3).
"""

from __future__ import annotations

import math

from repro.core.base import HybridModuleBase
from repro.core.fsdp_ops import reduce_scatter_grads, tensor_parallel_sum
from repro.core.sharding import ShardedParameter, column_shards, register_shards, row_shards
from repro.nn import functional as F
from repro.nn import ops
from repro.nn.mlp import MLP


class HybridSTOPMLP(HybridModuleBase):
    """The MLP sublayer distributed with Hybrid-STOP.

    Built from a serial :class:`~repro.nn.mlp.MLP` so numerical
    equivalence is testable parameter-for-parameter.
    """

    def __init__(
        self,
        serial: MLP,
        plan,
        ddp_index: int = 0,
        prefetch: bool = False,
        compute_model=None,
        name: str = "mlp",
    ):
        super().__init__(plan, ddp_index, prefetch, compute_model, name)
        if serial.hidden_dim % plan.tp_size:
            raise ValueError(
                f"hidden dim {serial.hidden_dim} not divisible by tensor-parallel "
                f"size {plan.tp_size}"
            )
        self.dim = serial.dim
        self.hidden_dim = serial.hidden_dim
        K = plan.tp_size
        a_cols = column_shards(serial.fc1.weight.data, K)
        b1_cols = column_shards(serial.fc1.bias.data, K)
        b_rows = row_shards(serial.fc2.weight.data, K)
        self.a = [self._shard(a_cols[k], f"a{k}", k) for k in range(K)]
        self.b1 = [self._shard(b1_cols[k], f"b1_{k}", k) for k in range(K)]
        self.b = [self._shard(b_rows[k], f"b{k}", k) for k in range(K)]
        self.b2 = self._shard(serial.fc2.bias.data, "b2")
        register_shards(self.sharded_parameters())

    # -- parameter access (tests / optimizer) ----------------------------------
    def sharded_parameters(self) -> list[ShardedParameter]:
        return [*self.a, *self.b1, *self.b, self.b2]

    def gathered_state(self) -> dict:
        """Logical (unsharded) parameter arrays, for equivalence checks."""
        return {
            "fc1.weight": ops.concat([p.full() for p in self.a], axis=-1),
            "fc1.bias": ops.concat([p.full() for p in self.b1], axis=-1),
            "fc2.weight": ops.concat([p.full() for p in self.b], axis=-2),
            "fc2.bias": self.b2.full(),
        }

    def gathered_grads(self) -> dict:
        """Logical gradients reassembled from the reduced shards."""
        return {
            "fc1.weight": ops.concat([p.full_grad() for p in self.a], axis=-1),
            "fc1.bias": ops.concat([p.full_grad() for p in self.b1], axis=-1),
            "fc2.weight": ops.concat([p.full_grad() for p in self.b], axis=-2),
            "fc2.bias": self.b2.full_grad(),
        }

    def zero_grad(self) -> None:
        for param in self.sharded_parameters():
            param.zero_grad()

    # -- execution -----------------------------------------------------------------
    def forward(self, xs: list) -> list:
        """Per-FSDP-rank micro-batches in, per-FSDP-rank outputs out."""
        if len(xs) != self.fsdp_size:
            raise ValueError(f"expected {self.fsdp_size} micro-batches, got {len(xs)}")
        K, F_ = self.tp_size, self.fsdp_size
        hidden_caches = [[None] * K for _ in range(F_)]
        partials = [[None] * K for _ in range(F_)]
        for k in range(K):
            # Fig 3(a) T2/T3: the FSDP group gathers rank k's column shard.
            with self._gather(self.a[k], self.fsdp_group(k)) as a_k, \
                    self._gather(self.b1[k], self.fsdp_group(k)) as b1_k:
                for f in self.fold_fsdp(range(F_)):
                    with self.ranked_compute(f, k):
                        pre = ops.add(ops.matmul(xs[f], a_k.data), b1_k.data)
                        act, cache = F.gelu_forward(pre)
                        hidden_caches[f][k] = (act, cache)
            # Fig 3(a) T6: gather rank k's row shard of B.
            with self._gather(self.b[k], self.fsdp_group(k)) as b_k:
                for f in self.fold_fsdp(range(F_)):
                    with self.ranked_compute(f, k):
                        partials[f][k] = ops.matmul(hidden_caches[f][k][0], b_k.data)
        with self._gather(self.b2, self.fsdp_group(0)) as b2:
            ys = []
            for f in self.fold_fsdp(range(F_)):
                # Eqn 2: sum the K partial products over the tensor-parallel group.
                partials[f][0] = ops.add(partials[f][0], b2.data)
                ys.append(tensor_parallel_sum(self.tp_group(f), partials[f]))
        self._cache = (xs, hidden_caches)
        return self.fold_pad(ys)

    def backward(self, grad_ys: list) -> list:
        xs, hidden_caches = self._require_cache()
        self._cache = None
        K, F_ = self.tp_size, self.fsdp_size
        grad_x_partials = [[None] * K for _ in range(F_)]

        # Output bias: each f's contribution summed over its batch, then
        # reduced across the FSDP group holding b2.
        batch_axes = tuple(range(grad_ys[0].ndim - 1))
        b2_grads = [ops.sum_(g, axis=batch_axes) for g in grad_ys]
        reduce_scatter_grads(self.b2, self.fsdp_group(0), b2_grads)

        for k in range(K):
            # Fig 3(b) T1/T2: gather B_k, compute + reduce-scatter its grads.
            with self._gather(self.b[k], self.fsdp_group(k)) as b_k:
                grad_hidden_acts = []
                b_grads = []
                for f in self.fold_fsdp(range(F_)):
                    act, _ = hidden_caches[f][k]
                    with self.ranked_compute(f, k):
                        flat = math.prod(act.shape[:-1])
                        act2d = ops.reshape(act, (flat, act.shape[-1]))
                        g2d = ops.reshape(grad_ys[f], (flat, self.dim))
                        b_grads.append(ops.matmul(ops.swapaxes(act2d, 0, 1), g2d))
                        grad_hidden_acts.append(ops.matmul(grad_ys[f], ops.swapaxes(b_k.data, -1, -2)))
                grad_hidden_acts = self.fold_pad(grad_hidden_acts)
                reduce_scatter_grads(self.b[k], self.fsdp_group(k), self.fold_pad(b_grads))
            # Fig 3(b) T3/T4: gather A_k, compute + reduce-scatter its grads.
            with self._gather(self.a[k], self.fsdp_group(k)) as a_k:
                a_grads = []
                b1_grads = []
                for f in self.fold_fsdp(range(F_)):
                    _, gelu_cache = hidden_caches[f][k]
                    with self.ranked_compute(f, k):
                        grad_pre = F.gelu_backward(gelu_cache, grad_hidden_acts[f])
                        flat = math.prod(grad_pre.shape[:-1])
                        x2d = ops.reshape(xs[f], (flat, self.dim))
                        g2d = ops.reshape(grad_pre, (flat, grad_pre.shape[-1]))
                        a_grads.append(ops.matmul(ops.swapaxes(x2d, 0, 1), g2d))
                        b1_grads.append(ops.sum_(g2d, axis=0))
                        grad_x_partials[f][k] = ops.matmul(grad_pre, ops.swapaxes(a_k.data, -1, -2))
                reduce_scatter_grads(self.a[k], self.fsdp_group(k), self.fold_pad(a_grads))
                reduce_scatter_grads(self.b1[k], self.fsdp_group(k), self.fold_pad(b1_grads))

        # Fig 3(b) T5: Eqn 3 — all-reduce the input gradient per TP group.
        grad_xs = []
        for f in self.fold_fsdp(range(F_)):
            grad_xs.append(tensor_parallel_sum(self.tp_group(f), grad_x_partials[f]))
        return self.fold_pad(grad_xs)
