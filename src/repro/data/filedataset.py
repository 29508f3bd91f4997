"""File-backed datasets: plug real (exported) reanalysis data in.

The synthetic generator covers everything the benchmarks need, but a
downstream user with actual CMIP6/ERA5 exports should not have to touch
the generator.  :func:`save_archive` writes any dataset window to a
single ``.npz`` file; :class:`FileDataset` is a
:class:`~repro.data.dataset.ClimateDataset` over such an archive
(snapshots, targets, forecast pairs, windows), so loaders, trainers,
climatology, and evaluators work unchanged.

Archive layout (one ``.npz``):

* ``fields`` — float32 array of shape ``(T, C, H, W)``;
* ``names`` — channel names, in order;
* ``out_names`` — target-variable names;
* ``start_step`` — absolute six-hourly index of the first snapshot.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.dataset import ClimateDataset
from repro.data.grid import LatLonGrid
from repro.data.variables import VariableRegistry, default_registry


def save_archive(dataset: ClimateDataset, path, indices=None) -> Path:
    """Materialize a dataset window into an ``.npz`` archive.

    Returns the path written: like NumPy, ``.npz`` is appended to a name
    that lacks it, so the result can go straight to :class:`FileDataset`.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    if indices is None:
        indices = range(len(dataset))
    fields = np.stack([dataset.snapshot(int(i)) for i in indices]).astype(np.float32)
    np.savez_compressed(
        path,
        fields=fields,
        names=np.array(list(dataset.registry.names)),
        out_names=np.array(list(dataset.out_names)),
        start_step=np.int64(dataset.start_step),
    )
    return path


class _ArchiveSystem:
    """The archive in the role of a climate system: snapshots by absolute step."""

    def __init__(self, fields: np.ndarray, start_step: int,
                 registry: VariableRegistry, grid: LatLonGrid):
        self.fields = fields
        self.start_step = start_step
        self.registry = registry
        self.grid = grid

    def snapshot(self, step: int) -> np.ndarray:
        return self.fields[step - self.start_step].copy()


class FileDataset(ClimateDataset):
    """A :class:`~repro.data.dataset.ClimateDataset` over an ``.npz`` archive."""

    def __init__(self, path, registry: VariableRegistry | None = None):
        path = Path(path)
        with np.load(path, allow_pickle=False) as archive:
            fields = np.asarray(archive["fields"], dtype=np.float32)
            names = [str(n) for n in archive["names"]]
            out_names = [str(n) for n in archive["out_names"]]
            start_step = int(archive["start_step"])
        if fields.ndim != 4:
            raise ValueError(f"archive fields must be (T, C, H, W), got {fields.shape}")
        if fields.shape[1] != len(names):
            raise ValueError(
                f"{fields.shape[1]} channels but {len(names)} names in archive"
            )
        full = registry if registry is not None else default_registry(91)
        self.grid = LatLonGrid(fields.shape[2], fields.shape[3])
        system = _ArchiveSystem(fields, start_step, full.subset(names), self.grid)
        super().__init__(system, start_step, len(fields), out_names, name=path.stem)
