"""Adapter: extract per-stage trunk templates from a built ClimaXViT model."""

from __future__ import annotations

from repro.models.climax_vit import ClimaXViT
from repro.nn.transformer import TransformerBlock


class _TrunkTemplate:
    """Duck-typed stand-in for a TransformerStack: just exposes ``blocks``."""

    def __init__(self, blocks: list[TransformerBlock]):
        self.blocks = blocks


def make_stage_templates(
    model: ClimaXViT, bounds: list[tuple[int, int]]
) -> list[_TrunkTemplate]:
    """The serial transformer blocks of a model, as one trunk template
    per stage of a contiguous pipeline partition.

    The blocks' parameters are *consumed* by the Hybrid-STOP trunks
    (sharded); the serial model should not be executed afterwards.
    """
    for block in model.blocks:
        if not isinstance(block, TransformerBlock):
            raise TypeError(f"expected plain TransformerBlock, got {type(block)!r}")
    return [_TrunkTemplate(model.blocks[start:end]) for start, end in bounds]
