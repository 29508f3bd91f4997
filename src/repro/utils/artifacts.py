"""Artifact I/O: the one writer and the one error of every persisted file.

Checkpoints, BENCH baselines, fault plans, journals, timeseries, trace
events, tune caches and reports reach disk through :func:`write_artifact`
(or its :func:`write_json`) and :func:`write_npz`: a temp file beside the
target, ``os.replace``-d over it, so a crash mid-write leaves the previous
file whole.  Their readers raise :class:`ArtifactFormatError` naming the
path (and the line or entry) for a file that is missing, torn, of the
wrong shape or of another schema.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

#: Compact, key-sorted ``json.dumps`` keywords: the byte contract of
#: journals, timeseries and the serve latency histogram.
CANONICAL_JSON = dict(sort_keys=True, separators=(",", ":"))


class ArtifactFormatError(ValueError):
    """An artifact its reader cannot use: missing, unreadable, torn, not
    the expected shape, or of another schema.  The message names the
    path and the problem (the CLI maps it to one stderr line, exit 2)."""


@contextmanager
def _replacing(path: Path):
    """A temp path beside ``path``, renamed over it if the block succeeds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_artifact(path, text: str) -> Path:
    """Write ``text`` to ``path`` whole or not at all; returns the path."""
    path = Path(path)
    with _replacing(path) as tmp:
        tmp.write_text(text)
    return path


def write_json(path, doc, sort_keys: bool = False) -> Path:
    """:func:`write_artifact` of ``doc`` as indented JSON plus a newline."""
    return write_artifact(path, json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n")


def write_npz(path, arrays: dict) -> Path:
    """Write ``arrays`` compressed to ``path`` (``.npz`` appended to a name
    that lacks it) whole or not at all; returns the path written."""
    import numpy as np

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    with _replacing(path) as tmp, open(tmp, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    return path


def _read_bytes(path, artifact: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as error:
        raise ArtifactFormatError(
            f"{artifact} {path}: cannot be read ({error.strerror or error})"
        ) from error


def read_json(path, artifact: str, schema: int | None = None) -> dict:
    """The JSON object in the ``artifact`` file at ``path``, at ``schema``
    when one is given; :class:`ArtifactFormatError` otherwise."""
    data = _read_bytes(path, artifact)
    try:
        doc = json.loads(data)
    except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8
        raise ArtifactFormatError(
            f"{artifact} {path}: not valid JSON ({error})") from error
    if not isinstance(doc, dict):
        raise ArtifactFormatError(f"{artifact} {path}: expected a JSON object, "
                                  f"found {type(doc).__name__}")
    if schema is not None and doc.get("schema") != schema:
        raise ArtifactFormatError(f"{artifact} {path} has schema "
                                  f"{doc.get('schema')!r}, expected {schema}")
    return doc


def read_jsonl(path, artifact: str, header_kind: str,
               schema: int) -> tuple[dict, list]:
    """``(header, [(line number, entry), ...])`` of the JSONL ``artifact``
    at ``path``: every line a JSON object, the first a ``header_kind``
    header at ``schema``.  :class:`ArtifactFormatError` otherwise."""
    numbered = []
    for number, line in enumerate(_read_bytes(path, artifact).splitlines(), 1):
        if not line:
            continue
        where = f"{path}: line {number}"
        try:
            entry = json.loads(line)
        except ValueError as exc:
            raise ArtifactFormatError(f"{where}: not valid JSON ({exc})") from exc
        if not isinstance(entry, dict):
            raise ArtifactFormatError(
                f"{where}: expected a JSON object, found {type(entry).__name__}")
        numbered.append((number, entry))
    if not numbered or numbered[0][1].get("kind") != header_kind:
        raise ArtifactFormatError(
            f"{path} is not a {artifact} artifact (no header)")
    header = numbered[0][1]
    if header.get("schema") != schema:
        raise ArtifactFormatError(
            f"{path} has {artifact} schema {header.get('schema')!r}, "
            f"expected {schema}"
        )
    return header, numbered[1:]
