"""Artifact I/O: the one writer and the one error of every persisted file.

Checkpoints, BENCH baselines, fault plans, journals, timeseries, trace
events, tune caches and reports reach disk through :func:`write_artifact`
(or its :func:`write_json`) and :func:`write_npz`: a temp file beside the
target, ``os.replace``-d over it, so a crash mid-write leaves the previous
file whole.  Their readers raise :class:`ArtifactFormatError` naming the
path (and the line or entry) for a file that is missing, torn, of the
wrong shape or of another schema; ``.npz`` archives are read by
:func:`read_npz`.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import zlib
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

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
    that lacks it) whole or not at all; returns the path written.

    The bytes are ``np.savez_compressed``'s, but :func:`_write_members`
    deflates each distinct payload once.  It hands to
    ``np.savez_compressed`` itself any pickled dtype, a name that is not
    printable ASCII, and an archive that needs a zip64 record.
    """
    import numpy as np

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    values = {key: np.asanyarray(value) for key, value in arrays.items()}
    plain = len(values) <= 0xFFFF and all(  # zipfile.ZIP_FILECOUNT_LIMIT
        _plain_name(key) and getattr(type(value.dtype), "_legacy", False)
        and not value.dtype.hasobject for key, value in values.items())
    with _replacing(path) as tmp, open(tmp, "w+b") as handle:
        if not (plain and _write_members(handle, values)):
            handle.seek(0)
            handle.truncate()
            np.savez_compressed(handle, **values)
    return path


def read_npz(path):
    """The arrays of the ``.npz`` at ``path``, a mapping ``name -> array``
    for a ``with`` block, as ``np.load`` returns them.

    :func:`_read_members` decodes :func:`write_npz`'s layout, inflating
    each distinct member once; any other file, or one that fails its
    CRC or size checks, is opened by ``np.load``, so its errors are
    ``np.load``'s.
    """
    import numpy as np

    try:
        with open(path, "rb") as handle:
            members = _read_members(handle)
    except (OSError, ValueError, struct.error, zlib.error):
        members = None
    return np.load(path) if members is None else nullcontext(members)


# ``np.savez_compressed`` is ``zipfile`` writing each ``<name>.npy`` (from
# ``numpy.lib.format.write_array``) deflated at the default level with
# ``force_zip64``: a local header (version 45, dated 1980-01-01, mode
# 0o600, sizes in a zip64 extra), the data, one central record per member
# (made on POSIX, no extra below 2 GiB), and the end record.
_LOCAL = struct.Struct("<4s2B4HL2L2H")
_ZIP64_EXTRA = struct.Struct("<HHQQ")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_END = struct.Struct("<4s4H2LH")
_ZIP64_LIMIT = (1 << 31) - 1  # zipfile.ZIP64_LIMIT


def _local_header(name: bytes, crc: int, size: int, csize: int) -> bytes:
    return _LOCAL.pack(
        b"PK\x03\x04", 45, 0, 0, zlib.DEFLATED, 0, 33, crc, 0xFFFFFFFF,
        0xFFFFFFFF, len(name), _ZIP64_EXTRA.size,
    ) + name + _ZIP64_EXTRA.pack(1, 16, size, csize)


def _central_record(name: bytes, crc: int, size: int, csize: int,
                    offset: int) -> bytes:
    return _CENTRAL.pack(
        b"PK\x01\x02", 45, 3, 45, 0, 0, zlib.DEFLATED, 0, 33, crc, csize,
        size, len(name), 0, 0, 0, 0, 0o600 << 16, offset,
    ) + name


def _plain_name(name: str) -> bool:
    # zipfile cuts a name at a NUL and, on Windows, rewrites a backslash.
    return name.isascii() and name.isprintable() and "\\" not in name


def _bytes_at(handle, offset: int, size: int) -> bytes:
    """``size`` bytes of ``handle`` at ``offset``, its position kept."""
    back = handle.tell()
    handle.seek(offset)
    data = handle.read(size)
    handle.seek(back)
    return data


def _npy_chunks(value) -> list:
    """``value``'s ``.npy`` payload, in the chunks ``write_array`` writes."""
    from numpy.lib import format as npy

    chunks = []
    npy.write_array(SimpleNamespace(write=chunks.append), value)
    return chunks


def _write_members(handle, values: dict) -> bool:
    """Write ``values`` as ``np.savez_compressed`` does; False (the file
    then partial) when a record would need zip64.  A payload equal, byte
    for byte, to an earlier member's is not deflated again: that
    member's deflated bytes are read back from ``handle``."""
    central, firsts = [], {}
    for key, value in values.items():
        name, chunks = f"{key}.npy".encode("ascii"), _npy_chunks(value)
        size, crc, offset = sum(map(len, chunks)), 0, handle.tell()
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
        if max(offset, size) > _ZIP64_LIMIT:
            return False
        first = firsts.get((size, crc))
        if first is not None and (b"".join(_npy_chunks(first[0]))
                                  == b"".join(chunks)):
            data = _bytes_at(handle, first[1], first[2])
        else:
            deflate = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION,
                                       zlib.DEFLATED, -15)
            data = b"".join([*map(deflate.compress, chunks), deflate.flush()])
        header = _local_header(name, crc, size, len(data))
        firsts.setdefault((size, crc), (value, offset + len(header), len(data)))
        handle.write(header + data)
        central.append(_central_record(name, crc, size, len(data), offset))
    start, directory = handle.tell(), b"".join(central)
    if start + len(directory) > _ZIP64_LIMIT:
        return False
    handle.write(directory + _END.pack(b"PK\x05\x06", 0, 0, len(central),
                                       len(central), len(directory), start, 0))
    return True


def _read_members(handle) -> dict | None:
    """The arrays of an archive in :func:`_write_members`' exact layout,
    read in one pass, or None for anything else or a CRC or size that
    does not match.

    A member whose deflated bytes equal an earlier one's (compared byte
    for byte, the earlier read back from ``handle``) is not inflated
    again: it is a copy of that member's array, and its recorded CRC
    must equal that member's checked one.
    """
    members, central, firsts, headers = {}, [], {}, {}
    end = handle.seek(0, 2)
    handle.seek(0)
    while (local := handle.read(_LOCAL.size)).startswith(b"PK\x03\x04"):
        fields, offset = _LOCAL.unpack(local), handle.tell() - _LOCAL.size
        name, extra = handle.read(fields[10]), handle.read(_ZIP64_EXTRA.size)
        crc, (size, csize) = fields[7], _ZIP64_EXTRA.unpack(extra)[2:]
        key = name[:-4].decode("latin-1")
        if (local + name + extra != _local_header(name, crc, size, csize)
                or not name.endswith(b".npy") or not _plain_name(key)
                or key in members or csize > end - handle.tell()):
            return None
        data = handle.read(csize)
        seen = (size, csize, zlib.crc32(data))
        first = firsts.get(seen)
        central.append(_central_record(name, crc, size, csize, offset))
        if first is not None and _bytes_at(handle, first[1], csize) == data:
            if crc != first[2]:
                return None
            members[key] = members[first[0]].copy()
            continue
        inflate = zlib.decompressobj(-15)
        payload = inflate.decompress(data, size + 1)
        if (not inflate.eof or inflate.unused_data or len(payload) != size
                or zlib.crc32(payload) != crc):
            return None
        members[key] = _npy_array(payload, headers)
        if members[key] is None:
            return None
        firsts.setdefault(seen, (key, handle.tell() - csize, crc))
    start, directory = handle.tell() - len(local), b"".join(central)
    directory += _END.pack(b"PK\x05\x06", 0, 0, len(central), len(central),
                           len(directory), start, 0)
    return (members if _bytes_at(handle, start, len(directory) + 1) == directory
            else None)


def _npy_array(payload: bytes, headers: dict):
    """The array of a v1, C-order, unpickled ``.npy`` payload, as
    ``np.load`` returns it, else None; ``headers`` caches parsed headers
    by their bytes."""
    import numpy as np
    from numpy.lib import format as npy

    if payload[:8] != npy.MAGIC_PREFIX + bytes((1, 0)):
        return None
    start = 10 + int.from_bytes(payload[8:10], "little")
    raw = payload[8:start]
    if raw not in headers:
        shape, fortran, dtype = npy.read_array_header_1_0(io.BytesIO(raw))
        headers[raw] = (None if fortran or dtype.hasobject else
                        (shape, dtype, math.prod(shape) * dtype.itemsize))
    if headers[raw] is None or len(payload) != start + headers[raw][2]:
        return None
    shape, dtype, nbytes = headers[raw]
    array = np.ndarray(shape, dtype)
    if nbytes:
        array.reshape(-1).view(np.uint8)[:] = np.frombuffer(
            payload, np.uint8, offset=start)
    return array


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
