"""Checkpoint integrity: digests, torn writes, backup fallback.

Covers the checksummed checkpoint format (per-member SHA-256 recorded
at write time, verified on read), the ``checkpoint.write`` torn-write
chaos hook and the ``.bak`` previous-good fallback that the ECO warm
start's snapshot read goes through.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np
import pytest

from repro.utils import faults
from repro.utils.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    backup_path,
    read_checkpoint,
    read_checkpoint_with_fallback,
    write_checkpoint,
)
from repro.utils.faults import FaultPlan

META = {"design": "t", "round": 2}
ARRAYS = {"x": np.linspace(0.0, 1.0, 7), "mask": np.arange(5)}


def _tamper_member(path: str, member: str, mutate) -> None:
    """Rewrite the archive with one member's bytes passed through
    ``mutate`` (zip structure stays valid, so only the digest check
    can catch the damage)."""
    with zipfile.ZipFile(path) as zf:
        members = [(info.filename, zf.read(info.filename))
                   for info in zf.infolist()]
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in members:
            zf.writestr(name, mutate(data) if name == member else data)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


class TestChecksumVerification:
    def test_roundtrip_reads_back_verified(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        write_checkpoint(path, META, ARRAYS)
        meta, arrays = read_checkpoint(path)
        assert meta == META
        assert set(arrays) == {"x", "mask"}
        assert np.array_equal(arrays["x"], ARRAYS["x"])
        assert np.array_equal(arrays["mask"], ARRAYS["mask"])

    def test_same_state_writes_identical_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        write_checkpoint(a, META, ARRAYS)
        write_checkpoint(b, META, ARRAYS)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_tampered_member_raises_with_digests(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        write_checkpoint(path, META, ARRAYS)
        # flip one payload byte, keeping the npy header intact
        _tamper_member(
            path, "x.npy",
            lambda data: data[:-1] + bytes([data[-1] ^ 0xFF]),
        )
        with pytest.raises(CheckpointCorruptError, match="digest mismatch"):
            read_checkpoint(path)
        try:
            read_checkpoint(path)
        except CheckpointCorruptError as exc:
            assert exc.path == path
            assert exc.member == "x.npy"
            assert exc.expected and exc.actual
            assert exc.expected != exc.actual
            # the message alone identifies the damage
            assert "x.npy" in str(exc) and exc.expected in str(exc)

    def test_truncated_archive_raises_corrupt(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        write_checkpoint(path, META, ARRAYS)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError, match="truncated or torn"):
            read_checkpoint(path)

    def test_missing_member_detected(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        write_checkpoint(path, META, ARRAYS)
        with zipfile.ZipFile(path) as zf:
            members = [(i.filename, zf.read(i.filename)) for i in zf.infolist()]
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            for name, data in members:
                if name != "mask.npy":
                    zf.writestr(name, data)
        open(path, "wb").write(buf.getvalue())
        with pytest.raises(CheckpointCorruptError, match="missing from archive"):
            read_checkpoint(path)

    def test_unmanifested_member_detected(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        write_checkpoint(path, META, ARRAYS)
        extra = io.BytesIO()
        np.lib.format.write_array(extra, np.zeros(3), allow_pickle=False)
        with zipfile.ZipFile(path, "a") as zf:
            zf.writestr("smuggled.npy", extra.getvalue())
        with pytest.raises(CheckpointCorruptError, match="not in manifest"):
            read_checkpoint(path)

    def test_pre_digest_format_still_loads(self, tmp_path):
        """Format-1 files (raw meta, no envelope) load unverified."""
        path = str(tmp_path / "old.npz")
        np.savez(
            path.rstrip(".npz"),
            __meta__=np.array(json.dumps(META)),
            x=ARRAYS["x"],
        )
        meta, arrays = read_checkpoint(str(tmp_path / "old.npz"))
        assert meta == META
        assert np.array_equal(arrays["x"], ARRAYS["x"])


@pytest.mark.faultinject
class TestTornWrite:
    def test_torn_write_detected_on_read(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        with faults.injected(FaultPlan("checkpoint.write", mode="torn")):
            write_checkpoint(path, META, ARRAYS)
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(path)

    def test_torn_write_falls_back_to_previous_good(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        write_checkpoint(path, {"round": 1}, ARRAYS)
        with faults.injected(FaultPlan("checkpoint.write", mode="torn")):
            write_checkpoint(path, {"round": 2}, ARRAYS, keep_previous=True)
        # primary is torn, the .bak predecessor is the round-1 state
        meta, _, used = read_checkpoint_with_fallback(path)
        assert used == backup_path(path)
        assert meta == {"round": 1}


class TestFallback:
    def test_missing_primary_resolves_to_backup(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        write_checkpoint(backup_path(path), META, ARRAYS)
        meta, arrays, used = read_checkpoint_with_fallback(path)
        assert used == backup_path(path)
        assert meta == META

    def test_all_candidates_corrupt_reraises_primary(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        for candidate in (path, backup_path(path)):
            write_checkpoint(candidate, META, ARRAYS)
            data = open(candidate, "rb").read()
            open(candidate, "wb").write(data[:40])
        with pytest.raises(CheckpointCorruptError) as excinfo:
            read_checkpoint_with_fallback(path)
        assert excinfo.value.path == path

    def test_no_candidates_raises_plain_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such file"):
            read_checkpoint_with_fallback(str(tmp_path / "absent.npz"))
