"""Analytic parameter and FLOP counting.

Plays the role of the Microsoft DeepSpeed profiler the paper used
(Sec IV, "Performance Metrics").  Counts are derived from the module
structure and verified in the test suite against the instrumented
meta-mode execution (:mod:`repro.nn.context` counters), so the two ways
of counting cannot drift apart.

FLOP conventions: one multiply-accumulate = 2 FLOPs; only matmul FLOPs
are counted (elementwise work is <1% for these shapes and the paper's
profiler likewise reports GEMM-dominated totals); the backward pass of
a matmul chain costs 2x its forward.
"""

from __future__ import annotations

from repro.models.configs import OrbitConfig


def parameter_breakdown(config: OrbitConfig) -> dict[str, int]:
    """Exact per-component parameter counts for a config."""
    d = config.embed_dim
    patches = config.num_patches
    pixels = config.patch_size**2
    hidden = config.hidden_dim
    linear = d * d + d  # one D->D projection with bias

    attn = 4 * linear
    if config.qk_layernorm:
        attn += 4 * config.head_dim  # gamma+beta for q and k norms
    block = 2 * 2 * d + attn + (d * hidden + hidden) + (hidden * d + d)

    return {
        "patch_embed": config.in_vars * (pixels * d + d),
        "var_embed": config.in_vars * d,
        "aggregate": d + 4 * linear,
        "pos_embed": patches * d,
        "lead_embed": 2 * d,
        "blocks": config.depth * block,
        "head": 2 * d + d * (config.out_vars * pixels) + config.out_vars * pixels,
    }


def count_parameters(config: OrbitConfig) -> int:
    """Total trainable parameters for a config."""
    return sum(parameter_breakdown(config).values())


def forward_flops_per_sample(config: OrbitConfig) -> float:
    """Forward-pass matmul FLOPs for a single observation data point."""
    d = config.embed_dim
    seq = config.num_patches
    num_vars = config.in_vars
    pixels = config.patch_size**2
    hidden = config.hidden_dim

    patch_embed = 2 * num_vars * seq * pixels * d
    # Aggregation: wk/wv over (L*V) tokens, wq/wo over L tokens, and the
    # 1-query attention over V variables at each of L positions.
    aggregate = (
        2 * 2 * seq * num_vars * d * d  # wk, wv
        + 2 * 2 * seq * d * d  # wq, wo
        + 2 * 2 * seq * num_vars * d  # scores + weighted values
    )
    lead_embed = 2 * 1 * d
    per_block = (
        4 * 2 * seq * d * d  # q, k, v, o projections
        + 2 * 2 * seq * seq * d  # attention scores and values
        + 2 * 2 * seq * d * hidden  # mlp fc1 + fc2
    )
    head = 2 * seq * d * (config.out_vars * pixels)
    return float(
        patch_embed + aggregate + lead_embed + config.depth * per_block + head
    )

