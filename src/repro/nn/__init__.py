"""Minimal explicit-backprop neural-network substrate on NumPy.

PyTorch plays this role in the paper; re-implementing the substrate
(rather than importing a framework) is what lets the parallelism
engines in :mod:`repro.core` and :mod:`repro.parallel` control exactly
*which shard of which parameter* is materialized when — the property
Hybrid-STOP is about.

Key differences from an autograd framework:

* modules implement ``forward`` **and** ``backward`` explicitly; the
  forward caches exactly what backward needs (activation checkpointing
  is the Hybrid-STOP engine's ``recompute`` policy, which re-runs a
  block's forward from its saved input);
* all array math goes through :mod:`repro.nn.ops`, which dispatches on
  real ``numpy.ndarray`` vs :class:`~repro.meta.MetaArray` inputs and
  reports FLOPs to the active :class:`~repro.nn.context.ExecutionContext`;
* bfloat16 is emulated by round-trip rounding of float32 values
  (:mod:`repro.nn.precision`), matching BF16 numerics without a
  hardware dtype.
"""

from repro.nn.attention import CrossVariableAggregation, MultiHeadAttention
from repro.nn.context import ExecutionContext, execution_context
from repro.nn.embedding import (
    LeadTimeEmbedding,
    PatchEmbedding,
    PositionalEmbedding,
    VariableEmbedding,
)
from repro.nn.grad_scaler import DynamicGradScaler
from repro.nn.layernorm import LayerNorm
from repro.nn.linear import Linear
from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.nn.precision import PrecisionPolicy, round_to_bfloat16
from repro.nn.tape import ForwardTape
from repro.nn.transformer import TransformerBlock, TransformerStack

__all__ = [
    "CrossVariableAggregation",
    "DynamicGradScaler",
    "ExecutionContext",
    "ForwardTape",
    "LayerNorm",
    "LeadTimeEmbedding",
    "Linear",
    "MLP",
    "Module",
    "MultiHeadAttention",
    "Parameter",
    "PatchEmbedding",
    "PositionalEmbedding",
    "PrecisionPolicy",
    "TransformerBlock",
    "TransformerStack",
    "VariableEmbedding",
    "execution_context",
    "round_to_bfloat16",
]
