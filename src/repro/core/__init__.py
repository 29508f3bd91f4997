"""Hybrid-STOP: the paper's contribution (Sec III).

Hybrid Sharded Tensor-Data Orthogonal Parallelism distributes the two
matrix chains at the heart of every transformer layer —
``GeLU(x A) B`` in the feed-forward sublayer and
``softmax(Q K^T) V`` (with its projections) in self-attention — as
*alternating column/row shards* over a tensor-parallel group, while
each tensor-parallel rank's shard is itself flat-sharded over an FSDP
group.  Parameters are never gathered beyond one layer's
tensor-parallel shard, which is what removes FSDP's peak-memory
problem (paper Fig 2 vs Fig 3).

Modules here mirror their serial counterparts in :mod:`repro.nn` and
are verified to produce bit-comparable outputs and gradients.
"""

from repro.core.hybrid_attention import HybridSTOPAttention
from repro.core.hybrid_block import HybridSTOPBlock, HybridSTOPTrunk
from repro.core.hybrid_linear import HybridSTOPMLP
from repro.core.sharding import (
    ShardedParameter,
    column_shards,
    flat_pad_shard,
    flat_unshard,
    row_shards,
)

__all__ = [
    "HybridSTOPAttention",
    "HybridSTOPBlock",
    "HybridSTOPMLP",
    "HybridSTOPTrunk",
    "ShardedParameter",
    "column_shards",
    "flat_pad_shard",
    "flat_unshard",
    "row_shards",
]
