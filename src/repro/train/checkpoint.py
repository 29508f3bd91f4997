"""Model checkpoint persistence (single .npz per checkpoint)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.nn.module import Module
from repro.obs.off import OFF


def save_checkpoint(module: Module, path, metadata: dict | None = None, tracer=OFF) -> None:
    """Write every parameter (plus JSON metadata) to an ``.npz`` file.

    An attached tracer receives a ``checkpoint`` marker (parameter
    count/bytes) and an ``io`` marker for the archive write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    state = module.state_dict()
    arrays = {f"param::{name}": np.asarray(value) for name, value in state.items()}
    arrays["metadata"] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    param_bytes = float(sum(a.nbytes for a in arrays.values()))
    tracer.instant("checkpoint", "save", nbytes=param_bytes, params=len(state),
                   path=str(path))
    tracer.instant("io", "npz.write", nbytes=param_bytes)
    tracer.metrics.counter("checkpoint.saves").inc()


def load_checkpoint(module: Module, path, tracer=OFF) -> dict:
    """Load parameters saved by :func:`save_checkpoint`; returns the metadata.

    Raises ``KeyError`` when the archive's parameter set does not match
    the module's (missing or extra keys), ``ValueError`` on shape
    mismatches.
    """
    path = Path(path)
    with np.load(path) as archive:
        state = {
            key[len("param::"):]: archive[key]
            for key in archive.files
            if key.startswith("param::")
        }
        metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
    module.load_state_dict(state)
    param_bytes = float(sum(np.asarray(v).nbytes for v in state.values()))
    tracer.instant("checkpoint", "load", nbytes=param_bytes, params=len(state),
                   path=str(path))
    tracer.instant("io", "npz.read", nbytes=param_bytes)
    tracer.metrics.counter("checkpoint.loads").inc()
    return metadata
