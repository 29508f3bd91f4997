"""Checkpoint archives for the runtime layer.

One ``.npz`` per checkpoint: every persisted array under a namespaced
key, plus a JSON metadata blob.  :func:`save_archive`/:func:`load_archive`
are the container under :meth:`Session.save
<repro.runtime.session.Session.save>` and :meth:`Session.resume
<repro.runtime.session.Session.resume>`, the one checkpoint writer and
restorer.  The compressed ``.npz`` container preserves array bits exactly, which
is what makes bitwise resume-parity possible.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.obs.off import OFF
from repro.utils.artifacts import ArtifactFormatError, read_npz, write_npz

#: Archive format version; bumped on any incompatible layout change.
#: Schema 2 adds a per-array integrity manifest (crc32/shape/dtype);
#: schema-1 archives are still readable, just unverifiable.
CHECKPOINT_SCHEMA = 2

_META_KEY = "runtime::metadata"


class CheckpointCorruptError(ArtifactFormatError):
    """A checkpoint archive failed structural or integrity validation.

    The message always names the archive and — when the damage is
    localized — the offending member, so an operator knows whether to
    discard one checkpoint or suspect the whole directory.
    """


def _manifest_for(arrays: dict[str, np.ndarray]) -> dict:
    """Per-array integrity records: crc32 over the raw bytes + shape/dtype."""
    manifest = {}
    for key, value in arrays.items():
        value = np.asarray(value)
        manifest[key] = {
            "crc32": zlib.crc32(np.ascontiguousarray(value).tobytes()) & 0xFFFFFFFF,
            "shape": list(value.shape),
            "dtype": str(value.dtype),
        }
    return manifest


def _verify_manifest(path: Path, arrays: dict, manifest) -> None:
    if not isinstance(manifest, dict):
        raise CheckpointCorruptError(
            f"{path}: manifest is {type(manifest).__name__}, not a JSON object"
        )
    for key, entry in manifest.items():
        if key not in arrays:
            raise CheckpointCorruptError(
                f"{path}: array member {key!r} named by the manifest is missing"
            )
        try:
            shape, dtype, stored = list(entry["shape"]), entry["dtype"], entry["crc32"]
        except (TypeError, KeyError) as err:
            raise CheckpointCorruptError(
                f"{path}: manifest entry for array member {key!r} is malformed "
                f"({type(err).__name__}: {err})"
            ) from err
        value = np.asarray(arrays[key])
        if list(value.shape) != shape or str(value.dtype) != dtype:
            raise CheckpointCorruptError(
                f"{path}: array member {key!r} is {value.dtype}{tuple(value.shape)}, "
                f"manifest records {dtype}{tuple(shape)}"
            )
        crc = zlib.crc32(np.ascontiguousarray(value).tobytes()) & 0xFFFFFFFF
        if crc != stored:
            raise CheckpointCorruptError(
                f"{path}: checksum mismatch for array member {key!r} "
                f"(stored crc32 {stored}, computed {crc})"
            )
    extras = sorted(set(arrays) - set(manifest))
    if extras:
        raise CheckpointCorruptError(
            f"{path}: array member(s) {extras} not named by the manifest"
        )


def save_archive(path, arrays: dict[str, np.ndarray], metadata: dict,
                 tracer=OFF) -> Path:
    """Write namespaced arrays + JSON metadata to one ``.npz``.

    Returns the path of the file written (:func:`write_npz` appends
    ``.npz`` to a name that lacks it), ready for :func:`load_archive`.

    An attached tracer receives ``checkpoint``/``io`` markers, so
    checkpoint cost shows up on the same timeline as compute and
    collectives.
    """
    if _META_KEY in arrays:
        raise ValueError(f"array key {_META_KEY!r} is reserved")
    payload = {key: np.asarray(value) for key, value in arrays.items()}
    meta = dict(metadata)
    meta.setdefault("schema", CHECKPOINT_SCHEMA)
    meta.setdefault("manifest", _manifest_for(payload))
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path = write_npz(path, payload)
    nbytes = float(sum(a.nbytes for a in payload.values()))
    tracer.instant("checkpoint", "save", nbytes=nbytes, arrays=len(arrays),
                   path=str(path))
    tracer.instant("io", "npz.write", nbytes=nbytes)
    tracer.metrics.counter("checkpoint.saves").inc()
    return path


def load_archive(path, tracer=OFF,
                 verify: bool = True) -> tuple[dict[str, np.ndarray], dict]:
    """Read an archive written by :func:`save_archive`.

    Returns ``(arrays, metadata)``.  Raises
    :class:`CheckpointCorruptError` naming the archive — and the
    offending member when the damage is localized — when the archive is
    unreadable, a member fails to decompress, the metadata is not a JSON
    object, its schema is unknown, or a schema-2 manifest check
    (malformed entry, checksum, shape, dtype, missing/extra member)
    fails.  ``verify=False`` skips the manifest pass (already trusted
    archives).
    """
    path = Path(path)
    try:
        opened = read_npz(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as err:
        raise CheckpointCorruptError(
            f"{path} is not a readable checkpoint archive: {err}"
        ) from err
    with opened as archive:
        if _META_KEY not in archive:
            raise CheckpointCorruptError(
                f"{path} is not a runtime checkpoint archive "
                f"(no {_META_KEY!r} member)"
            )
        try:
            metadata = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        except (ValueError, UnicodeDecodeError, zipfile.BadZipFile,
                zlib.error, OSError) as err:
            raise CheckpointCorruptError(
                f"{path}: metadata member {_META_KEY!r} is corrupt: {err}"
            ) from err
        arrays = {}
        for key in archive:
            if key == _META_KEY:
                continue
            try:
                arrays[key] = archive[key]
            except (ValueError, OSError, EOFError, zipfile.BadZipFile,
                    zlib.error, KeyError) as err:
                raise CheckpointCorruptError(
                    f"{path}: array member {key!r} is corrupt: {err}"
                ) from err
    if not isinstance(metadata, dict):
        raise CheckpointCorruptError(
            f"{path}: metadata member {_META_KEY!r} is "
            f"{type(metadata).__name__}, not a JSON object"
        )
    schema = metadata.get("schema")
    if schema not in (1, CHECKPOINT_SCHEMA):
        raise CheckpointCorruptError(
            f"{path}: unsupported checkpoint schema {schema!r} "
            f"(this build reads 1 and {CHECKPOINT_SCHEMA})"
        )
    if verify and schema >= 2:
        _verify_manifest(path, arrays, metadata.get("manifest", {}))
    nbytes = float(sum(np.asarray(a).nbytes for a in arrays.values()))
    tracer.instant("checkpoint", "load", nbytes=nbytes, arrays=len(arrays),
                   path=str(path))
    tracer.instant("io", "npz.read", nbytes=nbytes)
    tracer.metrics.counter("checkpoint.loads").inc()
    return arrays, metadata

