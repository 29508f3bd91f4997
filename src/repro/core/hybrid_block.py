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

**Depth replay.**  The blocks of a trunk are identical, so on shape-only
(:class:`~repro.meta.MetaArray`) inputs every block records the same
event stream under a different name.  The trunk then *executes* only
the first block it reaches in each direction, with the timeline
capturing that block's ``record_*`` calls, and makes them again for
the other blocks (:meth:`~repro.cluster.timeline.Timeline.replay`)
with the ``blockI -> blockJ`` rename — same ledgers, spans,
collective ids and injector calls, without the shape math above the
timeline.  Numeric inputs execute every block;
:meth:`HybridSTOPTrunk.forward_every_block` /
:meth:`~HybridSTOPTrunk.backward_every_block` do so on any input and
are the oracle the replay is tested against.
"""

from __future__ import annotations

from repro.cluster.cluster import GroupAllocation
from repro.core.base import HybridModuleBase
from repro.core.fsdp_ops import reduce_scatter_grads
from repro.core.hybrid_attention import HybridSTOPAttention
from repro.core.hybrid_linear import HybridSTOPMLP
from repro.core.sharding import register_shards
from repro.meta import is_meta, nbytes_of
from repro.nn import functional as F
from repro.nn import ops
from repro.nn.context import ExecutionContext, execution_context, record_flops
from repro.nn.transformer import TransformerBlock, TransformerStack


class _ShardedLayerNorm(HybridModuleBase):
    """A replicated layer norm whose affine lives sharded on FSDP group 0."""

    def __init__(self, serial_ln, plan, ddp_index=0, prefetch=False, compute_model=None, name="ln"):
        super().__init__(plan, ddp_index, prefetch, compute_model, name)
        self.eps = serial_ln.eps
        self.gamma = self._shard(serial_ln.gamma.data, "gamma")
        self.beta = self._shard(serial_ln.beta.data, "beta")
        register_shards(self.sharded_parameters())

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

    def mirror(self, executed: "HybridSTOPBlock") -> None:
        """Take on the state an identical block's forward/backward left.

        Depth replay records this block's events without running it.
        What later code reads from a block — the cache that pairs a
        backward with its forward, the reduced gradient shards the DDP
        reduction walks — is shape-only in meta mode and the same for
        every block, so the ``executed`` block's objects stand in.
        """
        self._cache = executed._cache
        for mine, theirs in zip(self.submodules, executed.submodules):
            mine._cache = theirs._cache
        for mine, theirs in zip(self.sharded_parameters(),
                                executed.sharded_parameters()):
            shards = theirs.grad_shards
            mine.grad_shards = None if shards is None else list(shards)

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
        #: Depth replay stands block 0's event stream in for every
        #: block's, which holds when they all shard the same shapes (a
        #: hand-built template need not).
        shapes = [[p.logical_shape for p in block.sharded_parameters()]
                  for block in self.blocks]
        self._uniform = all(s == shapes[0] for s in shapes[1:])

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
        return self._forward(xs, replay=self._replayable(xs))

    def backward(self, grad_ys: list) -> list:
        return self._backward(grad_ys, replay=self._replayable(grad_ys))

    def forward_every_block(self, xs: list) -> list:
        """:meth:`forward` without depth replay — its oracle."""
        return self._forward(xs, replay=False)

    def backward_every_block(self, grad_ys: list) -> list:
        """:meth:`backward` without depth replay — its oracle."""
        return self._backward(grad_ys, replay=False)

    def _replayable(self, arrays: list) -> bool:
        """Shape-only inputs: every block would record block 0's stream."""
        return (len(self.blocks) > 1 and self._uniform
                and all(map(is_meta, arrays)))

    def _forward(self, xs: list, replay: bool) -> list:
        if not self.layer_wrapping:
            self._acquire_all_layers()
        blocks = self.blocks
        if replay:
            # A block preserves its input's shape, so block 0's input
            # and output stand in for every later block's.
            self._saved_inputs = [xs] * len(blocks) if self.recompute else []
            first = blocks[0]
            xs = self._run_and_replay(
                first, blocks[1:], lambda: first.forward(xs))
        else:
            self._saved_inputs = []
            for block in blocks:
                if self.recompute:
                    self._saved_inputs.append(xs)
                xs = block.forward(xs)
        self._cache = True
        return xs

    def _backward(self, grad_ys: list, replay: bool) -> list:
        self._require_cache()
        self._cache = None
        blocks = self.blocks
        if replay:
            last = len(blocks) - 1
            grad_ys = self._run_and_replay(
                blocks[last], blocks[-2::-1],
                lambda: self._block_backward(blocks[last], last, grad_ys))
        else:
            for index in reversed(range(len(blocks))):
                grad_ys = self._block_backward(blocks[index], index, grad_ys)
        self._saved_inputs = []
        if not self.layer_wrapping:
            self._release_all_layers()
        return grad_ys

    def _block_backward(self, block, index: int, grad_ys: list) -> list:
        if self.recompute:
            # Checkpointing re-runs the block forward from its saved
            # input, re-gathering shards and re-paying the compute.
            block.forward(self._saved_inputs[index])
        return block.backward(grad_ys)

    def _run_and_replay(self, executed, others, run):
        """``run`` one block for real and replay its event stream for ``others``.

        The captured stream holds what the block asked the timeline to
        record (pre-injector seconds, scope, kind, fold segments), so
        replaying it — ``executed``'s name swapped for each other
        block's — is the call sequence those blocks would have made.
        Not replayed: the transient gather allocations, which every
        block makes and frees identically against the same persistent
        bytes, so the executed block alone sets each device's peak.
        """
        timeline = self.plan.cluster.timeline
        flops = ExecutionContext()
        with timeline.capture() as events, execution_context(flops):
            out = run()
        other_flops = flops.flops - flops.matmul_flops
        for block in others:
            timeline.replay(
                events, renames=((f"{executed.name}.", f"{block.name}."),))
            block.mirror(executed)
            # Enclosing profilers see the replayed blocks' FLOPs too.
            record_flops(flops.matmul_flops, matmul=True)
            record_flops(other_flops)
        return out

    def gathered_grads(self) -> dict:
        grads = {}
        for i, block in enumerate(self.blocks):
            grads.update({
                f"block{self.block_offset + i}.{k}": v
                for k, v in block.gathered_grads().items()
            })
        return grads
