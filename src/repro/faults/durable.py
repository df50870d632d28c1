"""Disk-backed crash-recovery plane: durable checkpoints, plans, ledgers, decisions.

:class:`~repro.faults.checkpoint.CheckpointStore` keeps its files in a
dict; a coordinator that actually dies (SIGKILL, OOM, node loss) loses
them.  This module puts them in a run directory so a *fresh process*
resumes byte-identically:

``DurableCheckpointStore``
    The same store — index, slot frames, retention, commit records, fault
    plans, :class:`~repro.billing.metering.UsageLedger` segments — with
    only the I/O methods overridden: ``__init__`` (verify the snapshot,
    replay the journal, list the slots), ``_fence`` (refuse a stale
    writer), ``_journal`` (append + fsync the line, apply it, compact)
    and ``_write_frames`` / ``_write_file`` / ``_read`` (``pwrite_synced``
    / ``atomic_write_bytes`` / ``read_bytes_verified``).

``DurableDecisionLog``
    An append-only, digest-verified log of lifecycle decision records
    (including promotion audit maps) that
    :class:`~repro.lifecycle.LifecyclePipeline` replays on restart.

Layout under ``root``::

    MANIFEST.json              self-digested *snapshot* of the index
    MANIFEST.log               journal: one self-digested, sequence-numbered
                               line per index mutation since the snapshot
    objects/slot-<n>.bin       checkpoint *slots*: frames of one round attempt
                               at 4 KiB-aligned offsets, reused in place
    commits/round-<n>.npz      committed-round records (weights + result)
    records/<kind>/<seq>.json  generic JSON records (plans, ledger
                               segments, decisions, ...)

The index (``store._manifest``) lives in memory; the snapshot is what it
was at some sequence number, the journal is every mutation after that.
Opening = verify the snapshot, then replay the journal records above
the snapshot's ``seq``.  When the journal outgrows the snapshot
(``_COMPACT_RATIO``) the store *compacts*: it writes a new snapshot, then
replaces the journal with an empty file — so the bytes spent on the
index are linear in the length of a run, not quadratic.

Write protocol, per operation (all I/O through :mod:`repro.persist`; a
sync is one ``os.fsync`` of a file or directory):

``put`` — 2 syncs
    Only the frames the slot does not hold yet are written — the meta
    frame first, then one frame per *new* cohort — with ``pwrite`` at
    block-aligned offsets, then the slot is fsynced, then one journal
    line carrying their frame table ``(offset, size, sha256, position,
    rows, cols)`` is appended and fsynced.  A checkpoint that does not
    extend the head of its ``(round, model_digest)`` attempt starts a
    slot of its own.  Re-putting a held checkpoint costs nothing (or one
    line, if the resume pointer has to move).
``record_commit`` — 3 syncs
    ``commits/round-N.npz`` through ``atomic_write_bytes`` (temp file,
    fsync, rename, directory fsync), then **one** journal line that
    commits the round, drops its resume pointers and retires the
    archive of older rounds.  ``clear_round`` after a commit finds
    nothing to do; on an uncommitted round it is one line, 1 sync.
``put_record`` (and ``put_plan``, ``DurableDecisionLog.append``) — 3 syncs
    the record file atomically (2 syncs), then one line (1 sync).  The
    first record into a fresh store pays 6: it also creates the journal,
    ``records/`` and ``records/<kind>/``.
compaction — 4 syncs, amortised over the lines it absorbs
    snapshot, then journal reset, each through ``atomic_write_bytes``.  A
    crash between them leaves lines the snapshot already covers; replay
    skips them by sequence number.

Every mutation is acknowledged — journaled and fsynced — before it
returns; a steady two-cohort round is 9 syncs (3 puts, 1 commit).

Torn tail vs damaged acknowledged byte.  The only write in flight when
a process or the power dies is the *last* one, so exactly two kinds of
damage are benign and both are invisible: journal bytes after the last
line that verifies (a torn append — dropped on open, cut off before the
next append) and slot bytes no journaled frame table covers (a torn
frame, an orphan slot, stale frames of a retired round).  Everything
else was acknowledged, and damage to it raises
:class:`CheckpointCorrupted` with the offending path and digests: a bad
journal line *followed by a good one*, a snapshot failing its
self-digest, a frame or file shorter than journaled ("truncated") or
failing its sha256, a checkpoint whose content digest — recomputed after
parsing — differs from the one asked for.  Reads ``pread`` exactly the
journaled extents and verify size → digest → parse → content digest; no
code path loads unverified bytes.  ``tests/faults/test_crash_states.py``
enumerates every prefix of a recorded write schedule under a
process-death and a power-loss model and resumes each to the
never-crashed run's bytes; it also shows that removing any one sync
above makes some state fail.

Why slots are reused in place.  A new round's frames overwrite the slot
of a retired round: no create, no truncate, no append.  On the build
container 0.83 MB (one e0 cohort) costs 3.4–5.5 ms to write into a new
or growing file — the page cache has to allocate every page — but
0.10 ms into pages the file already owns; ``fsync`` is ~0.5 ms either
way.  That allocation was the largest single line of a durable round
(20.7 of ~94 ms).  Slots are created lazily and grow on first use, so
only the first ``_RETAINED_ROUNDS + 1`` rounds of a run pay it.

Retention.  Commit records are kept forever (``commits()`` replays a
whole run).  The checkpoint archive is not: ``record_commit`` retires
the checkpoints of committed rounds older than the newest
``_RETAINED_ROUNDS`` (= 2), which frees
their slots for reuse and bounds the state dir at a few slots plus the
commit records; ``get`` of a retired digest returns ``None``.  An
uncommitted round is never retired.

One writer.  The journal doubles as a fence: before the first byte of
any mutation the store ``stat``\\ s the journal, and if its inode/size is
not what this instance last left — another instance has appended or
compacted — it raises ``CheckpointCorrupted("stale writer ...")`` and
writes nothing.  Any number of instances may *read* one directory.

Persisting a new record kind
----------------------------
The store is generic below the checkpoint/commit layer; adding a record
kind is three lines, no schema migration, and holds for both flavours:

1. Pick a kind slug (``"my-kind"``) and a JSON-safe payload dict.
2. Write with ``store.put_record("my-kind", name, payload)`` — the
   payload file commits atomically, then its journal line, stamped with
   a monotonic sequence number.
3. Read back with ``store.get_record("my-kind", name)`` (digest
   verified) or iterate ``store.record_names("my-kind")`` in write
   order.  That is exactly how fault plans (``put_plan``) and ledger
   segments (``put_ledger_segments``) are built; read their few-line
   implementations on ``CheckpointStore`` as worked examples.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.persist import (
    IntegrityError,
    append_synced,
    atomic_write_bytes,
    atomic_write_json,
    canonical_json,
    ensure_dir,
    pwrite_synced,
    read_bytes_verified,
    read_json_verified,
    sha256_bytes,
    truncate_file,
)

from .checkpoint import _FORMAT, _JOURNAL_NAME, _MANIFEST_NAME, CheckpointCorrupted, CheckpointStore

__all__ = ["CheckpointCorrupted", "DurableCheckpointStore", "DurableDecisionLog"]

_SLOT_RE = re.compile(r"slot-\d+\.bin\Z")
# Compact (snapshot + journal reset) once the journal outgrows the
# snapshot by this ratio: manifest bytes written stay linear in run length.
_COMPACT_RATIO = 2
_COMPACT_MIN_BYTES = 4096


def _corrupt(exc: IntegrityError) -> CheckpointCorrupted:
    """Re-type a persistence-layer integrity failure as CheckpointCorrupted."""
    err = CheckpointCorrupted(exc.path, exc.reason, expected=exc.expected, actual=exc.actual)
    err.__cause__ = exc
    return err


# ---------------------------------------------------------------------------
# journal lines
# ---------------------------------------------------------------------------

def _journal_line(record: Mapping[str, object]) -> bytes:
    body = canonical_json(record)
    return sha256_bytes(body).encode() + b" " + body + b"\n"


def _parse_line(line: bytes) -> Optional[Dict[str, object]]:
    digest, _, body = line.partition(b" ")
    if not body or sha256_bytes(body).encode() != digest:
        return None
    return json.loads(body)


def _parse_journal(data: bytes, path: str) -> Tuple[List[Dict[str, object]], int]:
    """Records of the valid prefix, and that prefix's length in bytes.

    Only an append can be in flight when a writer dies, so bytes that do
    not parse are a torn tail — dropped — exactly when no valid record
    follows them; a bad line *before* a good one is damage to an
    acknowledged record and raises.
    """
    records: List[Dict[str, object]] = []
    lines = data.split(b"\n")[:-1]  # what follows the last newline is never a record
    valid = 0
    for i, line in enumerate(lines):
        record = _parse_line(line)
        if record is None:
            if any(_parse_line(later) is not None for later in lines[i + 1:]):
                raise CheckpointCorrupted(path, f"journal record {i + 1} damaged")
            break
        records.append(record)
        valid += len(line) + 1
    return records, valid


# ---------------------------------------------------------------------------
# the manifest-backed store
# ---------------------------------------------------------------------------

class DurableCheckpointStore(CheckpointStore):
    """A :class:`CheckpointStore` whose files are in ``root`` and survive
    process death (layout and write protocol: the module docstring).

    Opening a directory verifies the snapshot and replays the journal: a
    fresh process sees exactly the acknowledged state of the dead one.
    One writer per directory: a second instance may read, but once it
    writes, the first one's next write raises.
    """

    def __init__(self, root: str) -> None:
        super().__init__()
        self.root = self._root = os.fspath(root)
        ensure_dir(self.root)  # a new state dir's name is durable before anything goes into it
        self._manifest_path = os.path.join(self.root, _MANIFEST_NAME)
        self._journal_path = os.path.join(self.root, _JOURNAL_NAME)
        self._journal_token: Optional[Tuple[int, int]] = None  # (inode, size) as this instance left it
        self._torn_at: Optional[int] = None  # cut the journal here before the next append
        self._manifest = self._load_manifest()
        self._replay_journal()
        try:
            on_disk = sorted(n for n in os.listdir(os.path.join(self.root, "objects")) if _SLOT_RE.match(n))
        except FileNotFoundError:
            on_disk = []
        slots = self._manifest["slots"]
        self._free = [f for f in (os.path.join("objects", n) for n in on_disk) if f not in slots]

    # -- manifest: snapshot + journal ------------------------------------
    def _load_manifest(self) -> Dict[str, object]:
        if not os.path.exists(self._manifest_path):
            if os.path.exists(self._journal_path):
                raise CheckpointCorrupted(self._manifest_path, "manifest snapshot missing beside a journal")
            self._flush()  # the snapshot exists from construction on
            return self._manifest
        try:
            body = read_json_verified(self._manifest_path)
        except IntegrityError as exc:
            raise _corrupt(exc) from exc
        if not isinstance(body, dict) or body.get("format") != _FORMAT:
            raise CheckpointCorrupted(
                self._manifest_path, "manifest format unrecognized",
                expected=_FORMAT, actual=body.get("format") if isinstance(body, dict) else None,
            )
        recorded = body.pop("manifest_digest", None)
        actual = sha256_bytes(canonical_json(body))
        if recorded != actual:
            raise CheckpointCorrupted(
                self._manifest_path, "manifest self-digest mismatch",
                expected=recorded, actual=actual,
            )
        self._snapshot_bytes = os.path.getsize(self._manifest_path)
        return body

    def _flush(self) -> None:
        """Write the whole index as the self-digested snapshot."""
        body = dict(self._manifest)
        body.pop("manifest_digest", None)
        body["manifest_digest"] = sha256_bytes(canonical_json(body))
        atomic_write_json(self._manifest_path, body)
        self._snapshot_bytes = os.path.getsize(self._manifest_path)

    def _replay_journal(self) -> None:
        try:
            with open(self._journal_path, "rb") as handle:
                inode = os.fstat(handle.fileno()).st_ino
                data = handle.read()
        except FileNotFoundError:
            return
        records, valid = _parse_journal(data, self._journal_path)
        previous = 0
        for record in records:
            if record.get("v") != _FORMAT:
                raise CheckpointCorrupted(
                    self._journal_path, "journal record format unrecognized",
                    expected=_FORMAT, actual=record.get("v"),
                )
            if int(record["seq"]) <= previous:
                raise CheckpointCorrupted(
                    self._journal_path, "journal sequence out of order",
                    expected=previous + 1, actual=record["seq"],
                )
            previous = int(record["seq"])
            if previous > int(self._manifest["seq"]):  # else: already in the snapshot
                self._apply(record)
        self._journal_token = (inode, len(data))
        self._torn_at = valid if valid < len(data) else None

    # -- where bytes go -----------------------------------------------------
    def _fence(self) -> None:
        """Refuse to write if another instance wrote since this one last did.

        Called before the first byte of every mutation: a stale writer
        raises with journal, slots and payload files untouched.
        """
        try:
            stat = os.stat(self._journal_path)
            current: Optional[Tuple[int, int]] = (stat.st_ino, stat.st_size)
        except FileNotFoundError:
            current = None
        if current != self._journal_token:
            raise CheckpointCorrupted(
                self._journal_path, "stale writer: another instance has written to this state dir",
                expected=self._journal_token, actual=current,
            )

    def _journal(self, op: str, **fields: object) -> None:
        """One index mutation = one appended, fsynced line, then applied."""
        record = {"v": _FORMAT, "seq": int(self._manifest["seq"]) + 1, "op": op, **fields}
        if self._torn_at is not None:
            truncate_file(self._journal_path, self._torn_at)
            self._torn_at = None
        stat = append_synced(self._journal_path, _journal_line(record))
        self._apply(record)
        if stat.st_size > max(_COMPACT_MIN_BYTES, _COMPACT_RATIO * self._snapshot_bytes):
            # Snapshot first: a crash in between leaves journal records the
            # snapshot's seq already covers, and replay skips those.
            self._flush()
            atomic_write_bytes(self._journal_path, b"")
            stat = os.stat(self._journal_path)
        self._journal_token = (stat.st_ino, stat.st_size)

    def _write_frames(self, file: str, extents: Sequence[Tuple[int, Sequence]]) -> None:
        pwrite_synced(os.path.join(self.root, file), extents)

    def _write_file(self, file: str, data: bytes) -> str:
        return atomic_write_bytes(os.path.join(self.root, file), data)

    def _read(self, file: str, sha: str, size: int, offset: Optional[int] = None) -> bytes:
        try:
            return read_bytes_verified(os.path.join(self.root, file), sha, size, offset=offset)
        except IntegrityError as exc:
            raise _corrupt(exc) from exc


# ---------------------------------------------------------------------------
# lifecycle decision log
# ---------------------------------------------------------------------------

class DurableDecisionLog:
    """Append-only, digest-verified log of lifecycle decision records.

    Each appended payload (a ``LifecycleDecision.as_dict()`` plus its
    registry record digest and promotion audit map) becomes one
    atomically-committed JSON file referenced by a self-digested
    manifest; :meth:`load` replays them in append order, verifying every
    digest, so a restarted :class:`~repro.lifecycle.LifecyclePipeline`
    reconstructs its history and cycle counter exactly.
    """

    def __init__(self, root: str) -> None:
        # Own subdirectory: a lifecycle run may share its state_dir with a
        # DurableCheckpointStore, and each manifest assumes exclusive
        # ownership of its directory.
        self._store = DurableCheckpointStore(os.path.join(os.fspath(root), "decisions"))

    def __len__(self) -> int:
        return len(self._store.record_names("lifecycle-decision"))

    def append(self, payload: Mapping[str, object]) -> str:
        index = len(self)
        return self._store.put_record(
            "lifecycle-decision", f"{index:06d}", dict(payload)
        )

    def load(self) -> List[Dict[str, object]]:
        return [
            self._store.get_record("lifecycle-decision", name)
            for name in self._store.record_names("lifecycle-decision")
        ]
