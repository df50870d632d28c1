"""Atomic, in-place and append-only file persistence primitives, digest-verified.

Every durable byte of the fault plane (:mod:`repro.faults.durable`) goes
through this module, so the guarantees the store builds on are stated —
and enumerated by ``tests/faults/test_crash_states.py`` — in one place:

1. **Atomic commit** — :func:`atomic_write_bytes` writes to a temp file
   in the destination directory, flushes, ``fsync``\\ s, then
   ``os.replace``\\ s onto the final name and fsyncs the directory.  A
   crash at any point leaves either the old file or the new file, never
   a half-written one; stray ``*.tmp-*`` files are the only debris and
   are ignored by every reader.
2. **Synced append** — :func:`append_synced` returns only after the
   appended bytes are fsynced.  A crash mid-append can tear the *last*
   record and nothing before it; :func:`truncate_file` cuts such a tail
   off (the cut is durable with the file's next fsync).
3. **Synced in-place write** — :func:`pwrite_synced` writes extents into
   an existing file without truncating it and fsyncs once.  A crash
   mid-write damages only the byte ranges being written; callers keep
   acknowledged ranges and ranges in flight on separate 4 KiB blocks.
4. **Durable names** — whichever primitive creates a file or directory
   (:func:`ensure_dir`) fsyncs the directory that gained the name before
   it returns.
5. **Verified read** — :func:`read_bytes_verified` refuses to hand back
   bytes (a whole file, or one extent of it) whose size or sha256 digest
   does not match what the caller recorded at write time, raising
   :class:`IntegrityError` with the offending path and digests.  No
   caller ever parses unverified bytes.
6. **Canonical JSON** — :func:`canonical_json` produces the one byte
   encoding of a JSON document (sorted keys, no whitespace, numpy
   scalars unwrapped) so content digests are stable across processes.

:func:`recording` logs the schedule of those operations for tests; it
is the only module state and is off (``None``) unless a test turns it
on.  Everything here is stdlib + numpy only and safe to import from any
layer.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import tempfile
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PersistError",
    "IntegrityError",
    "sha256_bytes",
    "canonical_json",
    "atomic_write_bytes",
    "atomic_write_json",
    "append_synced",
    "pwrite_synced",
    "truncate_file",
    "ensure_dir",
    "fsync_dir",
    "read_bytes_verified",
    "read_json_verified",
    "recording",
]

_OPS: Optional[List[tuple]] = None  # recording() target; None = not recording


class PersistError(RuntimeError):
    """Base error of the persistence layer."""


class IntegrityError(PersistError):
    """A persisted file is missing, truncated or fails digest verification.

    Carries the offending ``path`` plus the ``expected``/``actual``
    values (a size or a digest, per ``reason``) so callers can surface
    exactly which artifact is damaged.
    """

    def __init__(self, path, reason: str, expected=None, actual=None) -> None:
        self.path = str(path)
        self.reason = reason
        self.expected = expected
        self.actual = actual
        message = f"{reason}: {self.path}"
        if expected is not None or actual is not None:
            message += f" (expected {expected!r}, got {actual!r})"
        super().__init__(message)


def sha256_bytes(data: bytes) -> str:
    """Hex sha256 content digest of a byte string."""
    return hashlib.sha256(data).hexdigest()


def _json_default(value):
    """Unwrap numpy scalars/arrays so canonical JSON never depends on dtype."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def canonical_json(obj) -> bytes:
    """The canonical byte encoding of a JSON document (digest-stable)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_json_default
    ).encode()


@contextlib.contextmanager
def recording() -> Iterator[List[tuple]]:
    """Test-only: log the schedule of durable operations issued inside the block.

    Yields the live list; every primitive below appends one tuple per
    operation, in issue order: ``("write", path, offset, data)``,
    ``("fsync", path)``, ``("rename", src, dst)``, ``("dir-fsync", path)``,
    ``("truncate", path, size)``, ``("mkdir", path)``.  The crash-state
    suite (``tests/faults/test_crash_states.py``) replays every prefix of
    such a schedule under a process-death and a power-loss model.
    """
    global _OPS
    previous, _OPS = _OPS, []
    try:
        yield _OPS
    finally:
        _OPS = previous


def _log(*op) -> None:
    if _OPS is not None:
        _OPS.append(op)


def fsync_dir(path: str) -> None:
    """Flush a directory's entry table (best effort; no-op where unsupported)."""
    _log("dir-fsync", path)
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. Windows
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def ensure_dir(path: str) -> None:
    """Create ``path`` (and missing parents), fsyncing each parent it adds a
    name to — a new directory is as durable as the files put into it."""
    if not os.path.isdir(path):
        parent = os.path.dirname(path) or "."
        ensure_dir(parent)
        os.mkdir(path)
        _log("mkdir", path)
        fsync_dir(parent)


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Write ``data`` to ``path`` atomically; returns its sha256 digest.

    Protocol: temp file in the same directory (so the rename cannot
    cross filesystems) → write → flush+fsync → ``os.replace`` →
    directory fsync.  On any failure the temp file is removed and the
    destination is untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    ensure_dir(directory)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".tmp-"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        _log("write", tmp, 0, data)
        _log("fsync", tmp)
        os.replace(tmp, path)
        _log("rename", tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(directory)
    return sha256_bytes(data)


def atomic_write_json(path: str, obj) -> str:
    """Atomically write an object's canonical JSON; returns the file digest."""
    return atomic_write_bytes(path, canonical_json(obj))


def _write_synced(path: str, extents: Sequence[Tuple[Optional[int], Sequence]], flags: int = 0) -> os.stat_result:
    """Write ``(offset, buffers)`` extents into ``path`` (created durably if
    missing), fsync once, return the file's new stat."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    created = not os.path.exists(path)
    if created:
        ensure_dir(directory)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | flags, 0o644)
    try:
        for offset, buffers in extents:
            if offset is None:  # O_APPEND: the write lands at the end whatever offset says
                offset = os.fstat(fd).st_size
            if os.pwritev(fd, buffers, offset) != sum(memoryview(b).nbytes for b in buffers):
                raise OSError(errno.EIO, "short write", path)
            if _OPS is not None:
                _log("write", path, offset, b"".join(bytes(b) for b in buffers))
        os.fsync(fd)
        stat = os.fstat(fd)
    finally:
        os.close(fd)
    _log("fsync", path)
    if created:
        fsync_dir(directory)
    return stat


def append_synced(path: str, data: bytes) -> os.stat_result:
    """Append ``data`` to ``path`` and fsync it; returns the file's new stat.

    The append is durable when this returns; a crash before that leaves
    at most a torn tail after the previously synced bytes.  A file
    created here also gets its directory fsynced, so the name survives.
    """
    return _write_synced(path, [(None, [data])], os.O_APPEND)


def pwrite_synced(path: str, extents: Sequence[Tuple[int, Sequence]]) -> None:
    """Write ``(offset, buffers)`` extents into ``path`` in place, then fsync once.

    No truncate: bytes outside the extents keep whatever they held, so a
    file reused in place never returns its pages to the allocator.  A
    file created here also gets its directory fsynced.
    """
    _write_synced(path, extents)


def truncate_file(path: str, size: int) -> None:
    """Cut ``path`` to ``size`` bytes — durable with the file's next fsync."""
    os.truncate(path, size)
    _log("truncate", os.fspath(path), int(size))


def read_bytes_verified(
    path: str,
    expected_digest: Optional[str] = None,
    expected_size: Optional[int] = None,
    offset: Optional[int] = None,
) -> bytes:
    """Read a file and verify its size/digest before returning any bytes.

    With ``offset`` the read covers only the extent ``[offset, offset +
    expected_size)`` of a larger file.  Raises :class:`IntegrityError` on
    a missing file, a size mismatch (truncation) or a digest mismatch
    (bit rot / tampering).  Size is checked first so a truncated file is
    reported as truncated, not as a generic digest failure.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            if offset is None:
                data = handle.read()
            else:
                handle.seek(offset)
                data = handle.read(int(expected_size))
    except FileNotFoundError:
        raise IntegrityError(path, "persisted file missing") from None
    except OSError as exc:
        raise IntegrityError(path, f"persisted file unreadable ({exc})") from exc
    if expected_size is not None and len(data) != int(expected_size):
        raise IntegrityError(
            path, "persisted file truncated", expected=int(expected_size), actual=len(data)
        )
    if expected_digest is not None:
        actual = sha256_bytes(data)
        if actual != expected_digest:
            raise IntegrityError(
                path, "persisted file digest mismatch", expected=expected_digest, actual=actual
            )
    return data


def read_json_verified(
    path: str,
    expected_digest: Optional[str] = None,
    expected_size: Optional[int] = None,
):
    """Verified read + JSON parse (a parse failure is an integrity failure)."""
    data = read_bytes_verified(path, expected_digest, expected_size)
    try:
        return json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(path, f"persisted JSON unparseable ({exc})") from exc
