"""``write_npz`` / ``read_npz`` against their oracles.

``write_npz`` must write the bytes ``np.savez_compressed`` writes, and
``read_npz`` must return what ``np.load`` returns, array for array: the
fast paths deflate and inflate each distinct payload once, and hand
anything outside their layout to the oracle itself.
"""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils import artifacts
from repro.utils.artifacts import read_npz, write_npz

DTYPES = ["<f8", ">f4", "<f2", "<i2", ">i8", "u1", "?", "<c16", "<U3", ">U2",
          "S4", "<M8[s]", "<m8[ms]", [("a", "<i4"), ("b", ">f8")]]


def _savez_bytes(arrays: dict) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _assert_same_arrays(got, want):
    assert list(got) == list(want)
    for key in want:
        mine, theirs = got[key], want[key]
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), key
        assert mine.tobytes() == theirs.tobytes(), key
        assert mine.flags.writeable, key


@st.composite
def _layouts(draw):
    """An array of a drawn dtype and shape, C-ordered, Fortran-ordered or
    a strided view."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=4))
    value = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        return np.asfortranarray(value)
    if layout == "strided" and value.ndim:
        return np.repeat(value, 2, axis=-1)[..., ::2]
    return value


@st.composite
def _archives(draw):
    """Named arrays, some repeating an earlier payload, under ``::`` names."""
    arrays = {}
    for i in range(draw(st.integers(1, 6))):
        if arrays and draw(st.booleans()):
            value = draw(st.sampled_from(list(arrays.values()))).copy()
        else:
            value = draw(_layouts())
        prefix = draw(st.sampled_from(["dense", "shard::1", "opt::m", "w"]))
        arrays[f"{prefix}::{i}"] = value
    return arrays


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arrays=_archives())
@example(arrays={"dense::0::w": np.arange(6.0).reshape(2, 3),
                 "dense::1::w": np.arange(6.0).reshape(2, 3),
                 "s": np.array(["ab", "c"]), "z": np.float64(3.0),
                 "e": np.zeros((0, 3), ">i4")})
@example(arrays={})
def test_write_npz_is_savez_compressed_and_read_npz_is_np_load(arrays, tmp_path):
    path = write_npz(tmp_path / "a.npz", arrays)
    assert path.read_bytes() == _savez_bytes(arrays)
    fortran = any(value.flags.f_contiguous and not value.flags.c_contiguous
                  for value in arrays.values())
    with read_npz(path) as got, np.load(path) as want:
        assert isinstance(got, dict) is not fortran  # the fast path, or np.load
        _assert_same_arrays(got, want)
        values = [got[key] for key in got]
        for i, value in enumerate(values):  # copies, never aliases
            assert not any(np.shares_memory(value, other)
                           for other in values[i + 1:])


@pytest.mark.parametrize("arrays", [
    {"é::0": np.arange(3.0)},
    {"nul\0name": np.arange(3.0)},
    {"o": np.array([{"a": 1}, None], dtype=object)},
], ids=["non-ascii-name", "nul-in-name", "object-dtype"])
def test_the_writer_hands_what_it_does_not_write_to_savez(arrays, tmp_path,
                                                          monkeypatch):
    deflated = []
    monkeypatch.setattr(artifacts, "_write_members",
                        lambda handle, values: deflated.append(values))
    path = write_npz(tmp_path / "a.npz", arrays)
    assert deflated == [] and path.read_bytes() == _savez_bytes(arrays)


def test_an_archive_that_would_need_zip64_is_rewritten_by_savez(tmp_path,
                                                                monkeypatch):
    arrays = {f"m::{i}": np.full(64, i, np.int64) for i in range(4)}
    monkeypatch.setattr(artifacts, "_ZIP64_LIMIT", 600)
    path = write_npz(tmp_path / "a.npz", arrays)
    assert path.read_bytes() == _savez_bytes(arrays)


def _stored(path):
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        archive.writestr("a.npy", _npy(np.arange(3.0)))


def _commented(path):
    path.write_bytes(_savez_bytes({"a": np.arange(3.0)}))
    with zipfile.ZipFile(path, "a") as archive:
        archive.comment = b"note"


def _npy(value) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, value)
    return buffer.getvalue()


def _version_two(path):
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        with archive.open("a.npy", "w", force_zip64=True) as member:
            np.lib.format.write_array(member, np.arange(3.0), version=(2, 0))


def _fortran(path):
    path.write_bytes(_savez_bytes({"a": np.asfortranarray(np.ones((2, 3)))}))


def _raw_member(path):
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("notes.txt", b"not an array")


@pytest.mark.parametrize("make", [_stored, _commented, _version_two, _fortran,
                                  _raw_member],
                         ids=["stored", "comment", "npy-v2", "fortran",
                              "not-npy"])
def test_the_reader_hands_what_it_does_not_read_to_np_load(make, tmp_path):
    path = tmp_path / "a.npz"
    make(path)
    with read_npz(path) as archive, np.load(path) as want:
        assert not isinstance(archive, dict)
        assert list(archive) == list(want)
