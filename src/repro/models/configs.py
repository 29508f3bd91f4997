"""Model size presets.

The paper's four pre-training configurations (Sec IV, "Model
Configuration"), all using the ClimaX architecture plus QK layer-norm:

=========  ==========  ======  =====  ==============
name       embed dim   layers  heads  parameters
=========  ==========  ======  =====  ==============
ORBIT-115M 1024        8       16     ~115 million
ORBIT-1B   3072        8       16     ~1 billion
ORBIT-10B  8192        11      32     ~10 billion
ORBIT-113B 12288       56      64     ~113 billion
=========  ==========  ======  =====  ==============

Inputs are ``128 x 256`` single-variable images (1.40625 degree grid)
with 48 or 91 variable channels.  ``proxy_family`` provides scaled-down
versions of the same four-point size ladder that run in real mode on a
workstation (used by the Fig 8 / Fig 10 experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class OrbitConfig:
    """Hyperparameters of one ORBIT/ClimaX model instance."""

    name: str
    embed_dim: int
    depth: int
    num_heads: int
    in_vars: int = 48
    out_vars: int = 48
    img_height: int = 128
    img_width: int = 256
    patch_size: int = 4
    mlp_ratio: float = 4.0
    qk_layernorm: bool = True

    def __post_init__(self):
        if self.embed_dim % self.num_heads:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.img_height % self.patch_size or self.img_width % self.patch_size:
            raise ValueError("image dimensions must be divisible by patch_size")
        for attr in ("embed_dim", "depth", "num_heads", "in_vars", "out_vars"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be positive")

    @property
    def num_patches(self) -> int:
        """Sequence length after tokenization."""
        return (self.img_height // self.patch_size) * (self.img_width // self.patch_size)

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def hidden_dim(self) -> int:
        """Feed-forward hidden width."""
        return int(self.embed_dim * self.mlp_ratio)

    def key(self) -> str:
        """Structural identity: the tune-cache and checkpoint key component."""
        return (
            f"{self.name}:d{self.embed_dim}:L{self.depth}:h{self.num_heads}"
            f":v{self.in_vars}-{self.out_vars}:i{self.img_height}x{self.img_width}"
            f":p{self.patch_size}:m{self.mlp_ratio}:q{int(self.qk_layernorm)}"
        )

    def with_channels(self, in_vars: int, out_vars: int | None = None) -> "OrbitConfig":
        """Copy with a different channel configuration (48 vs 91 variables)."""
        return replace(
            self, in_vars=in_vars, out_vars=out_vars if out_vars is not None else in_vars
        )


ORBIT_115M = OrbitConfig("orbit-115m", embed_dim=1024, depth=8, num_heads=16)
ORBIT_1B = OrbitConfig("orbit-1b", embed_dim=3072, depth=8, num_heads=16)
ORBIT_10B = OrbitConfig("orbit-10b", embed_dim=8192, depth=11, num_heads=32)
ORBIT_113B = OrbitConfig("orbit-113b", embed_dim=12288, depth=56, num_heads=64)

PAPER_MODELS: dict[str, OrbitConfig] = {
    cfg.name: cfg for cfg in (ORBIT_115M, ORBIT_1B, ORBIT_10B, ORBIT_113B)
}


def proxy_family(
    in_vars: int = 8,
    out_vars: int = 4,
    img_height: int = 32,
    img_width: int = 64,
    patch_size: int = 8,
) -> dict[str, OrbitConfig]:
    """Scaled-down four-point size ladder runnable in real mode.

    Preserves the paper's scaling-relevant structure — four sizes
    spanning ~250x in parameter count, with width growing faster than
    depth — at workstation cost.  Keys mirror the paper names.
    """
    shared = dict(
        in_vars=in_vars,
        out_vars=out_vars,
        img_height=img_height,
        img_width=img_width,
        patch_size=patch_size,
    )
    family = (
        OrbitConfig("proxy-115m", embed_dim=32, depth=2, num_heads=4, **shared),
        OrbitConfig("proxy-1b", embed_dim=64, depth=2, num_heads=4, **shared),
        OrbitConfig("proxy-10b", embed_dim=128, depth=3, num_heads=8, **shared),
        OrbitConfig("proxy-113b", embed_dim=256, depth=4, num_heads=8, **shared),
    )
    return {cfg.name: cfg for cfg in family}


PROXY_MODELS = proxy_family()
