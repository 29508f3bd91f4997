"""Hybrid-STOP transformer block and trunk.

A block composes the two sharded sublayers with the pre-norm residual
structure of :class:`~repro.nn.transformer.TransformerBlock`.  The
layer norms are computationally tiny; their parameters are flat-sharded
over tensor-parallel rank 0's FSDP group and gathered per layer, and
the normalization itself runs once per FSDP index (its output is
identical on every tensor-parallel rank of that group).

The trunk adds the two engine-level policies the Table I ablation
toggles:

* **layer wrapping** (default on): shards are gathered one layer at a
  time and freed immediately.  When off, the trunk pre-registers the
  gathered bytes of *all* layers at once on every device — the
  full-model gather that sends the unwrapped configuration out of
  memory in Table I's first column.
* **prefetching**: gathers are issued as overlappable communication
  hidden under compute slack (Sec III-B);
* **recompute** (activation checkpointing): the forward pass keeps only
  each block's input; the backward pass re-runs the block forward —
  re-gathering its shards and re-paying its compute — before
  backpropagating through it, the Table I "+ckpt" policy.
"""

from __future__ import annotations

from repro.cluster.cluster import GroupAllocation
from repro.core.base import HybridModuleBase
from repro.core.fsdp_ops import reduce_scatter_grads
from repro.core.hybrid_attention import HybridSTOPAttention
from repro.core.hybrid_linear import HybridSTOPMLP
from repro.core.sharding import ShardedParameter
from repro.meta import nbytes_of
from repro.nn import functional as F
from repro.nn import ops
from repro.nn.transformer import TransformerBlock, TransformerStack


class _ShardedLayerNorm(HybridModuleBase):
    """A replicated layer norm whose affine lives sharded on FSDP group 0."""

    def __init__(self, serial_ln, plan, ddp_index=0, prefetch=False, compute_model=None, name="ln"):
        super().__init__(plan, ddp_index, prefetch, compute_model, name)
        self.eps = serial_ln.eps
        self.gamma = ShardedParameter(
            serial_ln.gamma.data, plan.fsdp_size, f"{name}.gamma",
            group=plan.fsdp_group(ddp_index, 0),
        )
        self.beta = ShardedParameter(
            serial_ln.beta.data, plan.fsdp_size, f"{name}.beta",
            group=plan.fsdp_group(ddp_index, 0),
        )

    def sharded_parameters(self):
        return [self.gamma, self.beta]

    def zero_grad(self):
        self.gamma.zero_grad()
        self.beta.zero_grad()

    def forward(self, xs: list) -> list:
        outs, caches = [], []
        with self._gather(self.gamma, self.fsdp_group(0)) as gamma, \
                self._gather(self.beta, self.fsdp_group(0)) as beta:
            for f, x in self.fold_fsdp(enumerate(xs)):
                with self.ranked_compute(f, 0):
                    xhat, cache = F.layernorm_forward(x, eps=self.eps)
                    outs.append(ops.add(ops.multiply(xhat, gamma.data), beta.data))
                    caches.append((xhat, cache))
        self._cache = self.fold_pad(caches)
        return self.fold_pad(outs)

    def backward(self, grad_ys: list) -> list:
        caches = self._require_cache()
        self._cache = None
        grad_xs, gamma_grads, beta_grads = [], [], []
        with self._gather(self.gamma, self.fsdp_group(0)) as gamma:
            for f, (grad_y, (xhat, cache)) in self.fold_fsdp(
                    enumerate(zip(grad_ys, caches))):
                with self.ranked_compute(f, 0):
                    reduce_axes = tuple(range(grad_y.ndim - 1))
                    gamma_grads.append(ops.sum_(ops.multiply(grad_y, xhat), axis=reduce_axes))
                    beta_grads.append(ops.sum_(grad_y, axis=reduce_axes))
                    grad_xs.append(F.layernorm_backward(cache, ops.multiply(grad_y, gamma.data)))
        reduce_scatter_grads(self.gamma, self.fsdp_group(0), self.fold_pad(gamma_grads))
        reduce_scatter_grads(self.beta, self.fsdp_group(0), self.fold_pad(beta_grads))
        return self.fold_pad(grad_xs)


class HybridSTOPBlock(HybridModuleBase):
    """One transformer block under Hybrid-STOP (pre-norm residuals)."""

    def __init__(
        self,
        serial: TransformerBlock,
        plan,
        ddp_index: int = 0,
        prefetch: bool = False,
        compute_model=None,
        name: str = "block",
    ):
        super().__init__(plan, ddp_index, prefetch, compute_model, name)
        kwargs = dict(ddp_index=ddp_index, prefetch=prefetch, compute_model=compute_model)
        self.ln1 = _ShardedLayerNorm(serial.ln1, plan, name=f"{name}.ln1", **kwargs)
        self.attn = HybridSTOPAttention(serial.attn, plan, name=f"{name}.attn", **kwargs)
        self.ln2 = _ShardedLayerNorm(serial.ln2, plan, name=f"{name}.ln2", **kwargs)
        self.mlp = HybridSTOPMLP(serial.mlp, plan, name=f"{name}.mlp", **kwargs)

    @property
    def submodules(self):
        return (self.ln1, self.attn, self.ln2, self.mlp)

    def sharded_parameters(self):
        params = []
        for module in self.submodules:
            params.extend(module.sharded_parameters())
        return params

    def zero_grad(self):
        for module in self.submodules:
            module.zero_grad()

    def set_prefetch(self, prefetch: bool) -> None:
        self.prefetch = prefetch
        for module in self.submodules:
            module.prefetch = prefetch

    def set_track_gather_memory(self, track: bool) -> None:
        self.track_gather_memory = track
        for module in self.submodules:
            module.track_gather_memory = track

    def gathered_grads(self) -> dict:
        grads = {}
        grads.update({f"ln1.{k}": v for k, v in {
            "gamma": self.ln1.gamma.full_grad(), "beta": self.ln1.beta.full_grad()}.items()})
        grads.update({f"attn.{k}": v for k, v in self.attn.gathered_grads().items()})
        grads.update({f"ln2.{k}": v for k, v in {
            "gamma": self.ln2.gamma.full_grad(), "beta": self.ln2.beta.full_grad()}.items()})
        grads.update({f"mlp.{k}": v for k, v in self.mlp.gathered_grads().items()})
        return grads

    def forward(self, xs: list) -> list:
        attn_out = self.attn.forward(self.ln1.forward(xs))
        mid = [ops.add(x, a) for x, a in zip(xs, attn_out)]
        mlp_out = self.mlp.forward(self.ln2.forward(mid))
        self._cache = True
        return [ops.add(m, o) for m, o in zip(mid, mlp_out)]

    def backward(self, grad_ys: list) -> list:
        self._require_cache()
        self._cache = None
        grad_mid = [
            ops.add(g, l) for g, l in zip(grad_ys, self.ln2.backward(self.mlp.backward(grad_ys)))
        ]
        grad_x = [
            ops.add(g, l)
            for g, l in zip(grad_mid, self.ln1.backward(self.attn.backward(grad_mid)))
        ]
        return grad_x

    def gathered_param_bytes(self) -> int:
        """Bytes a device holds when this layer's shards are materialized."""
        total = 0
        for param in self.attn.sharded_parameters() + self.mlp.sharded_parameters():
            total += nbytes_of(param.shards[0]) * param.num_shards
        # One tensor-parallel rank's worth: each device only gathers the
        # shards of the parameters its own rank participates in, which is
        # 1/K of the layer (the params above enumerate all K TP shards).
        return total // self.plan.tp_size


class HybridSTOPTrunk(HybridModuleBase):
    """A stack of Hybrid-STOP blocks with layer wrapping and prefetch policies."""

    def __init__(
        self,
        serial: TransformerStack,
        plan,
        ddp_index: int = 0,
        prefetch: bool = False,
        layer_wrapping: bool = True,
        recompute: bool = False,
        compute_model=None,
        name: str = "trunk",
        block_offset: int = 0,
    ):
        super().__init__(plan, ddp_index, prefetch, compute_model, name)
        self.layer_wrapping = layer_wrapping
        self.recompute = recompute
        #: Global index of this trunk's first block — nonzero for the
        #: per-stage slice trunks of a pipelined engine, so block names
        #: (and therefore trace spans and sharded-parameter names) stay
        #: global across stages.
        self.block_offset = block_offset
        self._saved_inputs: list = []
        self.blocks = [
            HybridSTOPBlock(
                block, plan, ddp_index=ddp_index, prefetch=prefetch,
                compute_model=compute_model,
                name=f"{name}.block{block_offset + i}",
            )
            for i, block in enumerate(serial.blocks)
        ]
        self._wholesale_alloc: GroupAllocation | None = None
        if not layer_wrapping:
            for block in self.blocks:
                block.set_track_gather_memory(False)

    def sharded_parameters(self):
        return [p for block in self.blocks for p in block.sharded_parameters()]

    def zero_grad(self):
        for block in self.blocks:
            block.zero_grad()

    def _acquire_all_layers(self) -> None:
        """No-layer-wrapping: every device holds all layers' gathered shards."""
        if self._wholesale_alloc is not None:
            return
        per_device = sum(block.gathered_param_bytes() for block in self.blocks)
        replica_ranks = [
            self.rank(f, k) for f in range(self.fsdp_size) for k in range(self.tp_size)
        ]
        self._wholesale_alloc = GroupAllocation(
            self.plan.cluster, replica_ranks, per_device, "gathered.all_layers"
        )

    def _release_all_layers(self) -> None:
        if self._wholesale_alloc is not None:
            self._wholesale_alloc.release()
            self._wholesale_alloc = None

    def forward(self, xs: list) -> list:
        if not self.layer_wrapping:
            self._acquire_all_layers()
        self._saved_inputs = []
        for block in self.blocks:
            if self.recompute:
                self._saved_inputs.append(xs)
            xs = block.forward(xs)
        self._cache = True
        return xs

    def backward(self, grad_ys: list) -> list:
        self._require_cache()
        self._cache = None
        for index in reversed(range(len(self.blocks))):
            block = self.blocks[index]
            if self.recompute:
                # Checkpointing re-runs the block forward from its saved
                # input, re-gathering shards and re-paying the compute.
                block.forward(self._saved_inputs[index])
            grad_ys = block.backward(grad_ys)
        self._saved_inputs = []
        if not self.layer_wrapping:
            self._release_all_layers()
        return grad_ys

    def gathered_grads(self) -> dict:
        grads = {}
        for i, block in enumerate(self.blocks):
            grads.update({
                f"block{self.block_offset + i}.{k}": v
                for k, v in block.gathered_grads().items()
            })
        return grads
