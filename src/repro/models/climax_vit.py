"""The ClimaX/ORBIT vision transformer (paper Fig 1).

Pipeline: per-variable patch tokenization -> variable-id embedding ->
cross-attention aggregation over variables -> positional + lead-time
embedding -> transformer trunk -> prediction head back to image space.

ORBIT is this architecture with ``qk_layernorm=True`` (the only
architectural change the paper makes relative to ClimaX, Sec III-B);
passing ``qk_layernorm=False`` gives the ClimaX baseline.
"""

from __future__ import annotations

import numpy as np

from repro.models.configs import OrbitConfig
from repro.models.heads import PredictionHead
from repro.nn import (
    CrossVariableAggregation,
    LeadTimeEmbedding,
    PatchEmbedding,
    PositionalEmbedding,
    VariableEmbedding,
)
from repro.nn.module import Module
from repro.nn.transformer import TransformerBlock
from repro.utils.seeding import spawn_rng


class ClimaXViT(Module):
    """ClimaX-style multi-channel ViT for climate prediction.

    Parameters
    ----------
    config:
        Model hyperparameters (:class:`~repro.models.configs.OrbitConfig`).
    meta:
        Build shape-only parameters for analytic (meta-mode) execution.
    """

    def __init__(
        self,
        config: OrbitConfig,
        rng=None,
        dtype=np.float32,
        meta: bool = False,
    ):
        super().__init__()
        self.config = config
        rng = spawn_rng(rng)
        dim = config.embed_dim
        self.patch_embed = PatchEmbedding(
            config.in_vars,
            config.img_height,
            config.img_width,
            config.patch_size,
            dim,
            rng=rng,
            dtype=dtype,
            meta=meta,
        )
        self.var_embed = VariableEmbedding(config.in_vars, dim, rng=rng, dtype=dtype, meta=meta)
        self.aggregate = CrossVariableAggregation(
            dim, config.num_heads, rng=rng, dtype=dtype, meta=meta
        )
        self.pos_embed = PositionalEmbedding(
            config.num_patches, dim, rng=rng, dtype=dtype, meta=meta
        )
        self.lead_embed = LeadTimeEmbedding(dim, rng=rng, dtype=dtype, meta=meta)
        self.blocks: list[Module] = []
        for index in range(config.depth):
            block = TransformerBlock(
                dim,
                config.num_heads,
                mlp_ratio=config.mlp_ratio,
                qk_layernorm=config.qk_layernorm,
                rng=rng,
                dtype=dtype,
                meta=meta,
            )
            self.register_module(f"block{index}", block)
            self.blocks.append(block)
        self.head = PredictionHead(
            dim,
            config.out_vars,
            config.img_height,
            config.img_width,
            config.patch_size,
            rng=rng,
            dtype=dtype,
            meta=meta,
        )

    # -- execution -----------------------------------------------------------
    def forward(self, x, lead_time_hours):
        """Predict ``(B, out_vars, H, W)`` from ``(B, in_vars, H, W)``.

        ``lead_time_hours`` is a ``(B,)`` array of forecast lead times.
        """
        cfg = self.config
        if x.ndim != 4 or x.shape[1:] != (cfg.in_vars, cfg.img_height, cfg.img_width):
            raise ValueError(
                f"expected (B, {cfg.in_vars}, {cfg.img_height}, {cfg.img_width}) input, "
                f"got {tuple(x.shape)}"
            )
        tokens = self.patch_embed(x)  # (B, V, L, D)
        tokens = self.var_embed(tokens)
        tokens = self.aggregate(tokens)  # (B, L, D)
        tokens = self.pos_embed(tokens)
        tokens = self.lead_embed(tokens, lead_time_hours)
        for block in self.blocks:
            tokens = block(tokens)
        self._cache = True
        return self.head(tokens)

    def backward(self, grad_prediction):
        """Backprop from the prediction gradient; returns grad w.r.t. input."""
        self._require_cache()
        self._cache = None
        grad = self.head.backward(grad_prediction)
        for block in reversed(self.blocks):
            grad = block.backward(grad)
        grad = self.lead_embed.backward(grad)
        grad = self.pos_embed.backward(grad)
        grad = self.aggregate.backward(grad)
        grad = self.var_embed.backward(grad)
        return self.patch_embed.backward(grad)


def build_model(
    config: OrbitConfig,
    rng=None,
    dtype=np.float32,
    meta: bool = False,
) -> ClimaXViT:
    """Construct a model from a config (the public factory)."""
    return ClimaXViT(
        config,
        rng=rng,
        dtype=dtype,
        meta=meta,
    )
