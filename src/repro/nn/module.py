"""Module base class with explicit forward/backward and cache control.

Unlike autograd frameworks, every module implements its own
``backward``.  The contract:

* ``forward(x)`` returns the output and stashes whatever backward needs
  in ``self._cache``;
* ``backward(grad_out)`` consumes ``self._cache``, accumulates
  parameter gradients via :meth:`Parameter.add_grad`, and returns
  ``grad_in``;
* ``clear_cache()`` drops all cached activations (the forward tape
  drops what a recording forward cached);
* one ``forward`` must be followed by at most one ``backward`` before
  the next ``forward`` (engines that need otherwise re-run forward).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.parameter import Parameter


class Module:
    """Base class for explicit-backprop modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        self._cache = None

    # -- registration ------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        # ``_cache`` is written at least once per forward; it is never a
        # parameter or a child, so it skips the registration tests.
        if name != "_cache":
            if isinstance(value, Parameter):
                self._parameters[name] = value
            elif isinstance(value, Module):
                self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child under an explicit name (for module lists)."""
        if not isinstance(module, Module):
            raise TypeError(f"expected Module, got {type(module)!r}")
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal -----------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters, depth-first."""
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` including self (empty name)."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> list["Module"]:
        """Immediate child modules."""
        return list(self._modules.values())

    def num_parameters(self) -> int:
        """Total parameter element count."""
        return sum(p.size for p in self.parameters())

    def parameter_bytes(self) -> int:
        """Total parameter bytes."""
        return sum(p.nbytes for p in self.parameters())

    # -- gradients and caches ----------------------------------------------
    def zero_grad(self) -> None:
        """Drop gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def clear_cache(self) -> None:
        """Drop all cached activations, recursively."""
        self._cache = None
        for module in self._modules.values():
            module.clear_cache()

    def _require_cache(self):
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward called without a cached forward; "
                "run forward first (or re-run it after clear_cache)"
            )
        return self._cache

    # -- interface -----------------------------------------------------------
    def forward(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def backward(self, grad_out):  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- state ----------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted name."""
        return {
            name: (param.data if param.is_meta else np.array(param.data, copy=True))
            for name, param in self.named_parameters()
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays; shapes must match, keys must be exact."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in params.items():
            value = state[name]
            if tuple(value.shape) != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {tuple(value.shape)}, "
                    f"parameter {param.shape}"
                )
            param.data = value if param.is_meta else np.array(value, copy=True)

