"""Activation checkpointing (Sec III-B, "Activation Checkpointing").

Instead of keeping a module's internal activations between forward and
backward, :class:`CheckpointWrapper` stores only the module *input*,
drops all internal caches after the forward, and re-runs the forward
inside ``backward`` to rebuild them — trading one extra forward pass
for activation memory, exactly like ``torch.utils.checkpoint``.
"""

from __future__ import annotations

from repro.nn.module import Module


class CheckpointWrapper(Module):
    """Wrap a module so its activations are recomputed during backward."""

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner

    def forward(self, x):
        out = self.inner(x)
        # Keep only the input; everything inside is recomputed later.
        self.inner.clear_cache()
        self._cache = x
        return out

    def backward(self, grad_out):
        x = self._require_cache()
        self._cache = None
        self.inner(x)  # recompute: rebuilds the inner caches
        return self.inner.backward(grad_out)

    @property
    def recompute_flops_factor(self) -> float:
        """Extra forward compute incurred per backward (for the perf model)."""
        return 1.0
