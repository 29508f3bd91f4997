"""Checkpoint integrity: the manifest catches corruption, typed and named."""

import json
import re
import zipfile

import numpy as np
import pytest

from repro.runtime import (
    CheckpointCorruptError,
    Session,
    load_archive,
    save_archive,
)
from repro.runtime.checkpoint import _META_KEY, CHECKPOINT_SCHEMA
from repro.utils.artifacts import read_npz
from tests.invariants import spec


@pytest.fixture
def archive(tmp_path):
    path = tmp_path / "ckpt.npz"
    save_archive(
        path,
        {"dense::0::w": np.arange(6.0).reshape(2, 3),
         "opt::m::0": np.zeros(4)},
        {"kind": "session", "step": 3},
    )
    return path


class TestManifest:
    def test_round_trip_verifies_clean(self, archive):
        arrays, meta = load_archive(archive)
        assert meta["schema"] == CHECKPOINT_SCHEMA == 2
        assert set(meta["manifest"]) == {"dense::0::w", "opt::m::0"}
        entry = meta["manifest"]["dense::0::w"]
        assert entry["shape"] == [2, 3] and entry["dtype"] == "float64"
        np.testing.assert_array_equal(
            arrays["dense::0::w"], np.arange(6.0).reshape(2, 3)
        )

    def test_checksum_mismatch_names_the_member(self, archive, tmp_path):
        arrays, meta = load_archive(archive)
        arrays["opt::m::0"] = np.ones(4)  # silently flipped bits
        tampered = tmp_path / "tampered.npz"
        save_archive(tampered, arrays, {**meta, "manifest": meta["manifest"]})
        with pytest.raises(CheckpointCorruptError, match="opt::m::0"):
            load_archive(tampered)

    def test_missing_member_named(self, archive, tmp_path):
        arrays, meta = load_archive(archive)
        del arrays["dense::0::w"]
        broken = tmp_path / "missing.npz"
        save_archive(broken, arrays, meta)
        with pytest.raises(CheckpointCorruptError, match="dense::0::w"):
            load_archive(broken)

    def test_extra_member_rejected(self, archive, tmp_path):
        arrays, meta = load_archive(archive)
        arrays["rogue"] = np.ones(2)
        broken = tmp_path / "extra.npz"
        save_archive(broken, arrays, meta)
        with pytest.raises(CheckpointCorruptError, match="rogue"):
            load_archive(broken)

    def test_verify_false_skips_the_manifest_pass(self, archive, tmp_path):
        arrays, meta = load_archive(archive)
        arrays["opt::m::0"] = np.ones(4)
        tampered = tmp_path / "tampered.npz"
        save_archive(tampered, arrays, meta)
        loaded, _ = load_archive(tampered, verify=False)
        np.testing.assert_array_equal(loaded["opt::m::0"], np.ones(4))


class TestStructuralDamage:
    def test_truncated_file_is_typed_not_raw(self, archive):
        data = archive.read_bytes()
        archive.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError, match=str(archive)):
            load_archive(archive)

    def test_not_a_zip_at_all(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an archive")
        with pytest.raises(CheckpointCorruptError):
            load_archive(path)

    def test_corrupted_zip_member_names_the_member(self, archive, tmp_path):
        # Rewrite the zip with one member's compressed payload mangled.
        broken = tmp_path / "member.npz"
        with zipfile.ZipFile(archive) as src, \
                zipfile.ZipFile(broken, "w", zipfile.ZIP_STORED) as dst:
            for info in src.infolist():
                payload = src.read(info.filename)
                if info.filename == "opt::m::0.npy":
                    payload = payload[:-8] + b"XXXXXXXX"
                dst.writestr(info, payload)
        with pytest.raises(CheckpointCorruptError, match="opt::m::0"):
            load_archive(broken)

    def test_missing_metadata_member_is_typed(self, archive, tmp_path):
        broken = tmp_path / "meta.npz"
        with zipfile.ZipFile(archive) as src, \
                zipfile.ZipFile(broken, "w", zipfile.ZIP_STORED) as dst:
            for info in src.infolist():
                if info.filename == f"{_META_KEY}.npy":
                    continue
                dst.writestr(info, src.read(info.filename))
        with pytest.raises(CheckpointCorruptError, match=_META_KEY):
            load_archive(broken)

    def test_schema_one_archives_still_load(self, tmp_path):
        """Back-compat: schema-1 archives (no manifest) load unverified."""
        path = tmp_path / "v1.npz"
        payload = {"a": np.arange(3.0)}
        meta = {"kind": "session", "schema": 1}
        payload[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(path, **payload)
        arrays, loaded = load_archive(path)
        assert loaded["schema"] == 1
        np.testing.assert_array_equal(arrays["a"], np.arange(3.0))

    def test_unknown_schema_still_value_error(self, tmp_path):
        path = tmp_path / "v99.npz"
        payload = {
            _META_KEY: np.frombuffer(
                json.dumps({"schema": 99}).encode("utf-8"), dtype=np.uint8
            )
        }
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="unsupported checkpoint schema") as info:
            load_archive(path)
        assert isinstance(info.value, CheckpointCorruptError)
        assert str(path) in str(info.value)
        assert "(this build reads 1 and 2)" in str(info.value)

    @pytest.mark.parametrize("metadata, member", [
        ([1, 2], _META_KEY),
        ({"schema": 2, "manifest": [1]}, "manifest"),
        ({"schema": 2, "manifest": {"a": {"shape": [3], "dtype": "float64"}}},
         "'a'"),
    ], ids=["metadata-not-an-object", "manifest-not-an-object",
            "entry-without-crc32"])
    def test_malformed_metadata_is_typed(self, tmp_path, metadata, member):
        path = tmp_path / "malformed.npz"
        payload = {
            "a": np.arange(3.0),
            _META_KEY: np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8
            ),
        }
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointCorruptError, match=re.escape(str(path))) as info:
            load_archive(path)
        assert member in str(info.value)


@pytest.fixture(scope="module")
def session_archive(tmp_path_factory):
    """A numeric tp2 x fsdp2 x ddp2 ``Session.save`` archive, as written:
    replica 1's members repeat replica 0's payloads."""
    session = Session(spec((2, 2, 2), meta=False))
    session.numeric_step(0)
    path = session.save(tmp_path_factory.mktemp("session") / "ckpt.npz")
    with zipfile.ZipFile(path) as archive:
        infos = {info.filename[:-4]: info for info in archive.infolist()}
        at = archive.start_dir
    records = {}  # the offset of each member's central record
    for key, info in infos.items():
        records[key] = at
        at += 46 + len(info.filename)
    return path, infos, records


def _data_offset(info) -> int:
    """Where a member's deflated bytes start: after the local header and
    its zip64 extra."""
    return info.header_offset + 30 + len(info.filename) + 20


def _flip(data: bytearray, at: int) -> None:
    data[at] ^= 0xFF


class TestDamageTheFastReaderSees:
    """Damage to an archive exactly as ``Session.save`` writes it: the
    fast reader must give the member back to ``np.load``, whose error
    names the archive and the member."""

    REPLICA_0 = "dense::0::head.head.proj.weight"
    REPLICA_1 = "dense::1::head.head.proj.weight"

    def _damaged(self, session_archive, tmp_path, damage):
        path, infos, records = session_archive
        data = bytearray(path.read_bytes())
        damage(data, infos, records)
        broken = tmp_path / "broken.npz"
        broken.write_bytes(bytes(data))
        return broken

    def test_the_replicas_share_one_payload(self, session_archive):
        path, infos, _ = session_archive
        first, second = infos[self.REPLICA_0], infos[self.REPLICA_1]
        assert (first.CRC, first.compress_size) == (second.CRC,
                                                    second.compress_size)
        data = path.read_bytes()
        assert (data[_data_offset(first):][:first.compress_size]
                == data[_data_offset(second):][:second.compress_size])
        with read_npz(path) as archive:  # undamaged, it takes the fast path
            assert isinstance(archive, dict)

    @pytest.mark.parametrize("member", [REPLICA_0, REPLICA_1],
                             ids=["first-occurrence", "replica-1"])
    def test_a_flipped_deflated_byte_names_the_member(
            self, session_archive, tmp_path, member):
        def damage(data, infos, records):
            info = infos[member]
            _flip(data, _data_offset(info) + info.compress_size // 2)

        broken = self._damaged(session_archive, tmp_path, damage)
        with pytest.raises(CheckpointCorruptError) as info:
            load_archive(broken)
        assert str(broken) in str(info.value)
        assert f"array member {member!r} is corrupt" in str(info.value)

    def test_a_wrong_crc_on_a_repeated_payload_names_the_member(
            self, session_archive, tmp_path):
        # Replica 1's deflated bytes still equal replica 0's; only the CRC
        # recorded for it, in its local header and its central record, is
        # wrong.
        def damage(data, infos, records):
            _flip(data, infos[self.REPLICA_1].header_offset + 14)
            _flip(data, records[self.REPLICA_1] + 16)

        broken = self._damaged(session_archive, tmp_path, damage)
        with pytest.raises(CheckpointCorruptError) as info:
            load_archive(broken)
        assert str(broken) in str(info.value)
        assert f"array member {self.REPLICA_1!r} is corrupt" in str(info.value)

    def test_a_truncated_central_directory_names_the_archive(
            self, session_archive, tmp_path):
        path, _, records = session_archive
        broken = tmp_path / "broken.npz"
        cut = records[self.REPLICA_1]
        broken.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointCorruptError,
                           match=re.escape(f"{broken} is not a readable "
                                           "checkpoint archive")):
            load_archive(broken)
