"""Analytic per-GPU memory model for large training configurations.

The engines in :mod:`repro.parallel` account memory exactly, but
instantiating a 113B-parameter configuration — even in meta mode —
means looping over 512 ranks x 56 layers, so the scaling figures use
this closed-form model instead.  Its terms mirror exactly what the
engines allocate (the test suite cross-checks the two at small scale):

==============================  ==============================================
term                            what the engine allocates
==============================  ==============================================
parameter/optimizer states      ``params.*`` shards: bf16 working copy (2 B) +
                                fp32 master (4) + Adam m/v (4+4) + gradient
                                shard (2), all sharded over the axes that
                                shard parameters
transient gathered shards       ``gathered.*``: one layer's tensor-parallel
                                shard (x2 when prefetch double-buffers), or
                                the full model without layer wrapping —
                                FSDP's peak-memory problem (paper Fig 2)
trunk activations               checkpointing keeps per-layer boundaries plus
                                one in-flight layer; otherwise all layers
front activations               the per-variable token tensors
                                ``(B, V, L, D)`` of the ClimaX aggregator —
                                the reason ViT memory scales with channel
                                count (Sec II) and 91-channel runs cost more
                                than 48-channel ones (Fig 7)
==============================  ==============================================

Calibration: the three activation multipliers below are fixed jointly
against paper Fig 5's FSDP anchor (~20B at 512 GPUs; this model: 20.5B)
and Table I's requirement that checkpointing enables micro-batch 3 while
the un-checkpointed fp32 row still fits at micro-batch 1.  With those
pinned, tensor parallelism caps at 100B (paper ~73B) and Hybrid-STOP at
182B (paper ~143B) — both ~25-35% high in absolute terms with the
paper's ordering and ratios preserved (see EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

from repro.hardware import MI250X_GCD_MEMORY_BYTES
from repro.models.configs import OrbitConfig
from repro.models.flops import count_parameters, parameter_breakdown

#: Per-element bytes of Adam mixed-precision state (bf16 copy + fp32
#: master + m + v) and the gradient shard.
MIXED_STATE_BYTES = 2 + 4 + 4 + 4
FP32_STATE_BYTES = 4 + 4 + 4


class Parallelism(enum.Enum):
    """Which scheme distributes the model (the Fig 5 contenders + DDP/pipeline)."""

    DDP = "ddp"
    FSDP = "fsdp"
    TENSOR = "tensor"
    HYBRID_STOP = "hybrid_stop"
    PIPELINE = "pipeline"


@dataclass(frozen=True)
class TrainingSetup:
    """One training configuration whose memory/walltime is being modeled."""

    config: OrbitConfig
    num_gpus: int
    parallelism: Parallelism
    tp_size: int = 1
    fsdp_size: int = 1
    micro_batch: int = 2
    bf16: bool = True
    activation_checkpointing: bool = True
    layer_wrapping: bool = True
    prefetch: bool = True
    #: Pipeline depth of a 4D Hybrid-STOP run (1 = the pure 3D layout).
    pp_size: int = 1

    def __post_init__(self):
        if self.num_gpus < 1 or self.micro_batch < 1:
            raise ValueError("num_gpus and micro_batch must be positive")
        if self.pp_size < 1:
            raise ValueError("pp_size must be positive")
        if self.pp_size * self.tp_size * self.fsdp_size > self.num_gpus:
            raise ValueError(
                f"pp({self.pp_size}) x tp({self.tp_size}) x "
                f"fsdp({self.fsdp_size}) exceeds {self.num_gpus} GPUs"
            )

    @property
    def buffer_itemsize(self) -> int:
        return 2 if self.bf16 else 4

    @property
    def state_bytes_per_param(self) -> int:
        grad = self.buffer_itemsize
        return (MIXED_STATE_BYTES if self.bf16 else FP32_STATE_BYTES) + grad


@dataclass(frozen=True)
class MemoryModel:
    """Closed-form per-GPU memory estimate.

    Parameters
    ----------
    trunk_act_per_token:
        Retained floats per (token x embed-dim) per transformer layer
        without checkpointing (hidden states, q/k/v, MLP intermediates).
    attn_workspace_factor:
        Multiplier on ``b * H * L^2`` for the attention workspace of
        one in-flight layer (scores, probabilities, and their backward
        buffers) — unsharded when the tensor-parallel degree is 1,
        which is what sends FSDP-alone out of memory in Fig 6.
    front_act_copies:
        Retained copies of the ``(B, V, L, D)`` per-variable token
        tensor across the embedding/aggregation front (calibrated to
        the Fig 5 Hybrid-STOP anchor).
    """

    trunk_act_per_token: float = 16.0
    attn_workspace_factor: float = 8.0
    front_act_copies: float = 4.6
    gpu_memory_bytes: int = MI250X_GCD_MEMORY_BYTES

    # -- component estimates ---------------------------------------------------
    def _trunk_and_dense_params(self, config: OrbitConfig) -> tuple[int, int]:
        breakdown = parameter_breakdown(config)
        trunk = breakdown["blocks"]
        dense = sum(v for k, v in breakdown.items() if k != "blocks")
        return trunk, dense

    def components(self, setup: TrainingSetup) -> dict[str, float]:
        """Per-GPU bytes, broken down by category."""
        cfg = setup.config
        trunk_params, dense_params = self._trunk_and_dense_params(cfg)
        total_params = trunk_params + dense_params
        layer_params = trunk_params / cfg.depth
        item = setup.buffer_itemsize
        state = setup.state_bytes_per_param
        K, F = setup.tp_size, setup.fsdp_size
        kind = setup.parallelism

        # Persistent parameter + optimizer + gradient storage.
        if kind is Parallelism.DDP:
            persistent = state * total_params
        elif kind is Parallelism.FSDP:
            persistent = state * total_params / F
        elif kind is Parallelism.TENSOR:
            persistent = state * (trunk_params / K + dense_params)
        elif kind is Parallelism.PIPELINE:
            # Stages partition the blocks whole; the degree is capped by
            # the layer count (Sec II).  tp_size doubles as stage count.
            stages = min(K, cfg.depth)
            persistent = state * (trunk_params / stages + dense_params)
        else:  # Hybrid-STOP
            # With a pipeline axis each rank holds only its stage's
            # blocks: ceil(depth / S) of depth (remainder stages are the
            # largest, so this is the peak stage's fraction).
            stage_fraction = -(-cfg.depth // setup.pp_size) / cfg.depth
            persistent = state * (
                trunk_params * stage_fraction / (K * F) + dense_params
            )

        # Transient gathered parameters.
        if kind in (Parallelism.DDP, Parallelism.TENSOR, Parallelism.PIPELINE) or F == 1:
            gathered = 0.0  # parameters fully resident, nothing to gather
        else:
            shard = layer_params / K if kind is Parallelism.HYBRID_STOP else layer_params
            if setup.layer_wrapping:
                # Prefetch double-buffers (current + next layer), and the
                # in-flight all-gather needs a staging buffer of its own.
                gathered = shard * item * (4 if setup.prefetch else 1.5)
            else:
                gathered = (trunk_params / K if kind is Parallelism.HYBRID_STOP
                            else trunk_params) * item

        # Activations. Sequence work is tensor-parallel sharded.
        b = setup.micro_batch
        seq = cfg.num_patches
        d = cfg.embed_dim
        act_shard = K if kind in (Parallelism.TENSOR, Parallelism.HYBRID_STOP) else 1
        # Retained per layer without checkpointing: hidden states plus the
        # attention probabilities (scores are recomputable in backward).
        stored_per_layer = (
            self.trunk_act_per_token * b * seq * d
            + 2 * b * cfg.num_heads * seq * seq
        ) * item / act_shard
        # One in-flight layer's attention workspace (scores, probabilities
        # and their backward buffers) exists regardless of checkpointing.
        workspace = (
            self.attn_workspace_factor * b * cfg.num_heads * seq * seq * item / act_shard
        )
        # Checkpointing keeps two full-width tensors per layer (the block
        # input for recompute, plus the residual stream) and one
        # in-flight layer's retained set.
        boundary = 2 * b * seq * d * item
        if kind is Parallelism.PIPELINE:
            # GPipe with recompute: each stage keeps one boundary per
            # in-flight micro-batch (M ~ stage count for a tolerable
            # bubble) plus one layer's working set.
            stages = min(K, cfg.depth)
            trunk_act = stages * (b * seq * d * item) + stored_per_layer + workspace
        elif setup.activation_checkpointing:
            trunk_act = cfg.depth * boundary + stored_per_layer + workspace
        else:
            trunk_act = cfg.depth * stored_per_layer + workspace
        if kind is Parallelism.HYBRID_STOP and setup.pp_size > 1:
            # A stage retains activations only for its own blocks, and
            # 1F1B keeps at most min(S, M) micro-batches in flight.
            S = setup.pp_size
            stage_fraction = -(-cfg.depth // S) / cfg.depth
            trunk_act *= stage_fraction * (min(S, b) / b)

        # The per-variable token tensors feeding column-parallel
        # projections are replicated on every tensor-parallel rank (as
        # in Megatron), so the front does not shard with K.
        front_act = self.front_act_copies * b * cfg.in_vars * seq * d * item
        images = b * cfg.in_vars * cfg.img_height * cfg.img_width * item

        return {
            "persistent_states": float(persistent),
            "gathered_params": float(gathered),
            "trunk_activations": float(trunk_act),
            "front_activations": float(front_act),
            "input_images": float(images),
        }

    def per_gpu_bytes(self, setup: TrainingSetup) -> float:
        """Total estimated bytes per GPU."""
        return sum(self.components(setup).values())

    def fits(self, setup: TrainingSetup) -> bool:
        """Whether the setup fits the per-GPU memory budget."""
        return self.per_gpu_bytes(setup) <= self.gpu_memory_bytes

    # -- searches -----------------------------------------------------------------
    def default_setup(
        self,
        parallelism: Parallelism,
        config: OrbitConfig,
        num_gpus: int,
        micro_batch: int = 2,
        gpus_per_node: int = 8,
    ) -> TrainingSetup:
        """The configuration each scheme realistically runs with (Fig 5).

        * DDP: everything resident, vanilla precision options still apply.
        * FSDP: the whole world is one FSDP group; vanilla FSDP gathers
          the full model (no layer wrapping) — its signature limitation.
        * Tensor: degree capped by the attention head count; activations
          are kept (no checkpointing: plain Megatron keeps them to avoid
          recomputing the all-reduced partials).
        * Hybrid-STOP: tensor-parallel in-node (degree <= 8), FSDP across
          the rest, with all Sec III-B optimizations on.
        """
        if parallelism is Parallelism.DDP:
            return TrainingSetup(config, num_gpus, parallelism, micro_batch=micro_batch)
        if parallelism is Parallelism.PIPELINE:
            stages = min(num_gpus, config.depth)
            return TrainingSetup(
                config, num_gpus, parallelism, tp_size=stages, micro_batch=micro_batch
            )
        if parallelism is Parallelism.FSDP:
            return TrainingSetup(
                config, num_gpus, parallelism,
                fsdp_size=num_gpus, micro_batch=micro_batch,
                layer_wrapping=False, prefetch=False,
            )
        if parallelism is Parallelism.TENSOR:
            tp = min(num_gpus, config.num_heads)
            while config.num_heads % tp or config.embed_dim % tp:
                tp -= 1
            return TrainingSetup(
                config, num_gpus, parallelism,
                tp_size=tp, micro_batch=micro_batch,
            )
        tp = min(gpus_per_node, num_gpus)
        return TrainingSetup(
            config, num_gpus, parallelism,
            tp_size=tp, fsdp_size=num_gpus // tp, micro_batch=micro_batch,
        )

    def best_hybrid_setup(
        self,
        config: OrbitConfig,
        num_gpus: int,
        micro_batch: int = 2,
    ) -> TrainingSetup:
        """Lowest-memory (K, F) factorization for Hybrid-STOP.

        Hybrid-STOP's tensor-parallel degree is not head-limited
        (sub-head sharding), so every power-of-two factorization of the
        world is admissible; Fig 5 reports the best.
        """
        best: TrainingSetup | None = None
        best_bytes = math.inf
        tp = 1
        while tp <= num_gpus:
            if config.embed_dim % tp == 0:
                setup = TrainingSetup(
                    config, num_gpus, Parallelism.HYBRID_STOP,
                    tp_size=tp, fsdp_size=num_gpus // tp, micro_batch=micro_batch,
                )
                nbytes = self.per_gpu_bytes(setup)
                if nbytes < best_bytes:
                    best, best_bytes = setup, nbytes
            tp *= 2
        assert best is not None
        return best

    def max_model_size(
        self,
        parallelism: Parallelism,
        num_gpus: int,
        template: OrbitConfig,
        micro_batch: int = 2,
        max_embed_dim: int = 65536,
    ) -> tuple[int, OrbitConfig]:
        """Largest parameter count that fits, scaling the embed width.

        Scans embed widths (multiples of the template's head count) on
        the template's depth/head structure — how Fig 5 scales model
        size.  Returns ``(params, config)`` of the largest fit.
        """
        step = template.num_heads
        best: tuple[int, OrbitConfig] | None = None
        lo, hi = 1, max_embed_dim // step
        while lo <= hi:
            mid = (lo + hi) // 2
            cfg = dataclasses.replace(template, name=f"scan-{mid}", embed_dim=mid * step)
            if parallelism is Parallelism.HYBRID_STOP:
                setup = self.best_hybrid_setup(cfg, num_gpus, micro_batch)
            else:
                setup = self.default_setup(parallelism, cfg, num_gpus, micro_batch)
            if self.fits(setup):
                best = (count_parameters(cfg), cfg)
                lo = mid + 1
            else:
                hi = mid - 1
        if best is None:
            return (0, template)
        return best
