"""Atomic on-disk checkpoints: a JSON meta block plus numpy arrays.

Generic carrier of the best-placement snapshot that
:class:`~repro.core.rd_placer.RoutabilityDrivenPlacer` writes and the
ECO warm start (:func:`repro.eco.warm.baseline_positions`) reads: the
caller supplies a JSON-serializable ``meta`` dict and a dict of float/int
arrays; both round-trip losslessly (arrays bit-exact) through one
``.npz`` file.  Writes are atomic — the payload lands in a temp file
that is ``os.replace``d over the target, so a crash mid-write can
never leave a truncated checkpoint behind.

The bytes are *deterministic*: the archive is assembled with fixed zip
timestamps and members in insertion order, so two checkpoints of the
same state are bit-identical files (``np.savez`` would stamp each
member with the current local time).  The e2e determinism test
compares checkpoint files byte-for-byte across runs.

Integrity: the meta member carries a SHA-256 digest of every array
member's serialized bytes, verified on read.  A truncated archive or a
digest mismatch raises :class:`CheckpointCorruptError` — naming the
file, the member and the expected/actual digests — instead of numpy's
opaque zipfile error; a reader then falls back to the previous good
checkpoint (``<path>.bak``, kept when callers pass
``keep_previous=True``).  Checkpoints written before the digest format
(no envelope in the meta member) still load, without verification.

Fault site ``checkpoint.write`` exposes the serialized archive bytes
to :mod:`repro.utils.faults` so torn-write tests can corrupt the
file that actually lands on disk.

Pickle is disabled on both ends: a checkpoint is data, not code.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile

import numpy as np

from repro.utils import faults

#: Envelope version of the meta member (2 = checksummed envelope;
#: pre-envelope files carry the caller meta directly and load without
#: verification).
CHECKPOINT_FORMAT = 2
_META_KEY = "__meta__"
_META_MEMBER = _META_KEY + ".npy"
#: Suffix of the previous-good checkpoint kept by ``keep_previous``.
BACKUP_SUFFIX = ".bak"


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint whose bytes do not match what was written.

    Raised for truncated/torn archives and for content-digest
    mismatches; carries enough context (path, member, expected/actual
    digest) that the error message alone identifies the damage.
    """

    def __init__(
        self,
        path: str,
        reason: str,
        member: str | None = None,
        expected: str | None = None,
        actual: str | None = None,
    ) -> None:
        detail = f"{path}: corrupt checkpoint: {reason}"
        if member is not None:
            detail += f" (member {member!r}"
            if expected is not None or actual is not None:
                detail += f", expected sha256 {expected}, got {actual}"
            detail += ")"
        super().__init__(detail)
        self.path = path
        self.member = member
        self.expected = expected
        self.actual = actual


def _json_default(obj):
    """Let numpy scalars through ``json.dumps`` losslessly.

    ``np.float64 -> float`` is the identity on the IEEE-754 payload and
    Python's json round-trips floats via ``repr``, so the value read
    back is bit-exact.
    """
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"{type(obj).__name__} is not checkpoint-serializable")


# fixed member timestamp (the zip epoch) => byte-stable archives
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _serialize_array(arr: np.ndarray) -> bytes:
    """One array as canonical ``.npy`` bytes (the digested unit)."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=False)
    return buf.getvalue()


def backup_path(path: str) -> str:
    """The previous-good sibling of checkpoint ``path``."""
    return path + BACKUP_SUFFIX


def write_checkpoint(
    path: str, meta: dict, arrays: dict, keep_previous: bool = False
) -> None:
    """Atomically write ``meta`` + ``arrays`` to ``path`` (.npz).

    The file is a standard npz (``np.load`` reads it back) but written
    with deterministic bytes: fixed member timestamps instead of the
    wall clock ``np.savez`` would use.  The meta member carries a
    SHA-256 digest of every array member, verified by
    :func:`read_checkpoint`.

    With ``keep_previous=True`` an existing file at ``path`` is moved
    to ``path + ".bak"`` first, so one good predecessor survives a
    corrupted write (the fallback consulted by
    :func:`read_checkpoint_with_fallback`).
    """
    members: list = []
    checksums: dict = {}
    for name, arr in arrays.items():
        if name == _META_KEY:
            raise ValueError(f"array name {name!r} is reserved")
        data = _serialize_array(np.asarray(arr))
        member = name + ".npy"
        members.append((member, data))
        checksums[member] = hashlib.sha256(data).hexdigest()
    envelope = {
        "__checkpoint_format__": CHECKPOINT_FORMAT,
        "meta": meta,
        "checksums": checksums,
    }
    meta_bytes = _serialize_array(
        np.array(json.dumps(envelope, default=_json_default))
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for member, data in [(_META_MEMBER, meta_bytes)] + members:
            info = zipfile.ZipInfo(member, date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o600 << 16
            with zf.open(info, "w") as fh:
                fh.write(data)
    # fault hook: torn-write plans truncate the bytes that hit the disk
    payload = faults.fire("checkpoint.write", buf.getvalue())
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(payload)
    if keep_previous and os.path.exists(path):
        os.replace(path, backup_path(path))
    os.replace(tmp, path)


def _load_members(path: str) -> dict:
    """Raw member bytes of the archive; corrupt archives raise."""
    try:
        with zipfile.ZipFile(path) as zf:
            return {name: zf.read(name) for name in zf.namelist()}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as exc:
        raise CheckpointCorruptError(
            path, f"unreadable archive (truncated or torn write): {exc}"
        ) from exc


def _parse_array(path: str, member: str, data: bytes) -> np.ndarray:
    """Decode one ``.npy`` member; damage raises the corrupt error."""
    try:
        return np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
    except (ValueError, OSError, EOFError) as exc:
        raise CheckpointCorruptError(
            path, f"undecodable array: {exc}", member=member
        ) from exc


def read_checkpoint(path: str) -> tuple:
    """Read a checkpoint back as ``(meta, arrays)``.

    Verifies the per-member SHA-256 digests recorded at write time
    (checksummed format); any mismatch, truncation, or missing member
    raises :class:`CheckpointCorruptError` naming the file and the
    expected/actual digest.  Other unreadable payloads raise
    :class:`CheckpointError` with the offending file named.
    """
    try:
        members = _load_members(path)
    except FileNotFoundError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    if _META_MEMBER not in members:
        raise CheckpointError(
            f"{path}: not a flow checkpoint (missing meta block)"
        )
    meta_arr = _parse_array(path, _META_MEMBER, members.pop(_META_MEMBER))
    try:
        parsed = json.loads(str(meta_arr))
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptError(
            path, f"meta block is not valid JSON: {exc}", member=_META_MEMBER
        ) from exc

    checksums = None
    meta = parsed
    if isinstance(parsed, dict) and "__checkpoint_format__" in parsed:
        meta = parsed.get("meta", {})
        checksums = parsed.get("checksums", {})
    if checksums is not None:
        missing = sorted(set(checksums) - set(members))
        if missing:
            raise CheckpointCorruptError(
                path, "array member missing from archive", member=missing[0],
                expected=checksums[missing[0]], actual=None,
            )
        unexpected = sorted(set(members) - set(checksums))
        if unexpected:
            raise CheckpointCorruptError(
                path, "archive member not in manifest", member=unexpected[0],
            )
        for member, data in members.items():
            actual = hashlib.sha256(data).hexdigest()
            if actual != checksums[member]:
                raise CheckpointCorruptError(
                    path, "content digest mismatch", member=member,
                    expected=checksums[member], actual=actual,
                )
    arrays = {
        member[: -len(".npy")]: _parse_array(path, member, data)
        for member, data in members.items()
    }
    return meta, arrays


def read_checkpoint_with_fallback(path: str) -> tuple:
    """Read ``path``, falling back to its ``.bak`` predecessor.

    Returns ``(meta, arrays, used_path)``.  Only *corruption* triggers
    the fallback — a missing primary with a good backup also resolves
    to the backup, but the caller's semantic checks (e.g. the design
    fingerprint) run on what is returned, so misuse is never papered
    over.  When every candidate
    is corrupt or absent, the primary's error is re-raised.
    """
    primary_error: CheckpointError | None = None
    for candidate in (path, backup_path(path)):
        if not os.path.exists(candidate):
            continue
        try:
            meta, arrays = read_checkpoint(candidate)
            return meta, arrays, candidate
        except CheckpointCorruptError as exc:
            if primary_error is None:
                primary_error = exc
    if primary_error is not None:
        raise primary_error
    raise CheckpointError(f"{path}: cannot read checkpoint: no such file")
