"""Disk-backed crash-recovery plane: durable checkpoints, plans, ledgers, decisions.

PR 9 made federated rounds transactional, but every durability primitive
lived in process memory — a coordinator that actually dies (SIGKILL,
OOM, node loss) lost all of it.  This module persists the fault plane's
state to a run directory so a *fresh process* resumes byte-identically:

``DurableCheckpointStore``
    The :class:`~repro.faults.checkpoint.CheckpointStore` interface
    (``put`` / ``get`` / ``latest_for`` / ``clear_round``) backed by a
    journaled manifest + checkpoint slot files, plus committed-round
    records (:meth:`~DurableCheckpointStore.record_commit` /
    :meth:`~DurableCheckpointStore.latest_commit`), fault plans and exported
    :class:`~repro.billing.metering.UsageLedger` segments.

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
``_RETAINED_ROUNDS`` (= 2, shared with the in-memory store), which frees
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
kind is three lines, no schema migration:

1. Pick a kind slug (``"my-kind"``) and a JSON-safe payload dict.
2. Write with ``store.put_record("my-kind", name, payload)`` — the
   payload file commits atomically, then its journal line, stamped with
   a monotonic sequence number.
3. Read back with ``store.get_record("my-kind", name)`` (digest
   verified) or iterate ``store.record_names("my-kind")`` in write
   order.  That is exactly how fault plans (``put_plan``) and ledger
   segments (``put_ledger_segments``) are built; read their few-line
   implementations as worked examples.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.persist import (
    IntegrityError,
    append_synced,
    atomic_write_bytes,
    atomic_write_json,
    canonical_json,
    pwrite_synced,
    read_bytes_verified,
    read_json_verified,
    sha256_bytes,
    truncate_file,
)

from .checkpoint import CheckpointStore, RoundCheckpoint, _retired_rounds
from .plan import FaultPlan

__all__ = ["CheckpointCorrupted", "DurableCheckpointStore", "DurableDecisionLog"]

_MANIFEST_NAME = "MANIFEST.json"
_JOURNAL_NAME = "MANIFEST.log"
_FORMAT = 2  # of the snapshot, of every journal line and of every slot's frame table
_BLOCK = 4096  # frame alignment inside a slot
_SLOT_RE = re.compile(r"slot-\d+\.bin\Z")
# Compact (snapshot + journal reset) once the journal outgrows the
# snapshot by this ratio: manifest bytes written stay linear in run length.
_COMPACT_RATIO = 2
_COMPACT_MIN_BYTES = 4096


class CheckpointCorrupted(IntegrityError):
    """A persisted fault-plane artifact failed verification.

    Raised — never silently skipped — whenever resuming would require
    trusting bytes that do not match their recorded digest: a truncated
    or bit-flipped payload, a manifest entry whose file is gone (stale
    manifest), a tampered manifest or journal record, an explicit resume
    against a mismatched model digest, or a write attempted by a stale
    second writer.  Inherits ``path`` / ``expected`` / ``actual`` from
    :class:`repro.persist.IntegrityError`.
    """


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
    """A :class:`CheckpointStore` whose state survives process death.

    Layout, write protocol and retention are described in the module
    docstring.  Construction on an existing directory verifies the
    snapshot and replays the journal; a fresh process sees exactly the
    acknowledged state of the dead one.  The in-memory
    :class:`CheckpointStore` API contract holds (``latest_for`` returns
    ``None`` for an unknown ``(round, model_digest)`` key, the archive
    outlives ``clear_round`` and is retired by ``record_commit``), with
    one addition: any access that *would* return persisted bytes failing
    verification raises :class:`CheckpointCorrupted` instead of resuming
    partially.  One writer per directory: a second instance may read,
    but once it writes, the first one's next write raises.
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._manifest_path = os.path.join(self.root, _MANIFEST_NAME)
        self._journal_path = os.path.join(self.root, _JOURNAL_NAME)
        self._journal_token: Optional[Tuple[int, int]] = None  # (inode, size) as this instance left it
        self._torn_at: Optional[int] = None  # cut the journal here before the next append
        self._free: List[str] = []  # slot files no live round references
        self._manifest = self._load_manifest()
        self._replay_journal()
        try:
            on_disk = sorted(n for n in os.listdir(os.path.join(self.root, "objects")) if _SLOT_RE.match(n))
        except FileNotFoundError:
            on_disk = []
        slots = self._manifest["slots"]
        self._free = [f for f in (os.path.join("objects", n) for n in on_disk) if f not in slots]

    # -- manifest: snapshot + journal ------------------------------------
    def _empty_manifest(self) -> Dict[str, object]:
        return {
            "format": _FORMAT,
            "seq": 0,
            "checkpoints": {},
            "latest": {},
            "slots": {},
            "commits": {},
            "records": {},
        }

    def _load_manifest(self) -> Dict[str, object]:
        if not os.path.exists(self._manifest_path):
            if os.path.exists(self._journal_path):
                raise CheckpointCorrupted(self._manifest_path, "manifest snapshot missing beside a journal")
            self._manifest = self._empty_manifest()
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

    def _apply(self, record: Mapping[str, object]) -> None:
        """Apply one journal record to the in-memory index (live and on replay)."""
        m = self._manifest
        op, seq = record["op"], int(record["seq"])
        if op == "put":
            slot = m["slots"].setdefault(
                record["file"], {"v": _FORMAT, "round": record["round"], "frames": []}
            )
            slot["frames"].extend(record["frames"])
            m["checkpoints"].setdefault(record["digest"], {
                "file": record["file"],
                "n_frames": len(slot["frames"]),
                "round_index": record["round"],
                "model_digest": record["model"],
                "seq": seq,
            })
            m["latest"][f"{record['round']}:{record['model']}"] = record["digest"]
        elif op == "clear":
            self._drop_pointers(int(record["round"]))
        elif op == "commit":
            m["commits"][str(record["round"])] = dict(record["entry"], seq=seq)
            self._drop_pointers(int(record["round"]))
            retired = _retired_rounds(
                map(int, m["commits"]), (slot["round"] for slot in m["slots"].values())
            )
            if retired:
                freed = [f for f, slot in m["slots"].items() if slot["round"] in retired]
                for file in freed:
                    del m["slots"][file]
                self._free.extend(freed)
                m["checkpoints"] = {d: e for d, e in m["checkpoints"].items() if e["file"] in m["slots"]}
                m["latest"] = {k: d for k, d in m["latest"].items() if d in m["checkpoints"]}
        elif op == "record":
            m["records"][record["key"]] = dict(record["entry"], seq=seq)
        else:
            raise CheckpointCorrupted(self._journal_path, f"unknown journal op {op!r}")
        m["seq"] = seq

    def _drop_pointers(self, round_index: int) -> None:
        latest: Dict[str, str] = self._manifest["latest"]  # type: ignore[assignment]
        for key in [k for k in latest if k.startswith(f"{round_index}:")]:
            del latest[key]

    def _read_payload(self, entry: Mapping[str, object]) -> bytes:
        path = os.path.join(self.root, str(entry["file"]))
        try:
            return read_bytes_verified(
                path,
                expected_digest=str(entry["file_digest"]),
                expected_size=int(entry["size"]),
            )
        except IntegrityError as exc:
            raise _corrupt(exc) from exc

    def _write_payload(self, relpath: str, data: bytes) -> Dict[str, object]:
        path = os.path.join(self.root, relpath)
        digest = atomic_write_bytes(path, data)
        return {"file": relpath, "file_digest": digest, "size": len(data)}

    # -- CheckpointStore interface ---------------------------------------
    def __len__(self) -> int:
        return len(self._manifest["checkpoints"])

    def put(self, checkpoint: RoundCheckpoint) -> str:
        digest = checkpoint.digest()
        m = self._manifest
        key = f"{int(checkpoint.round_index)}:{checkpoint.model_digest}"
        fields = dict(digest=digest, round=int(checkpoint.round_index), model=checkpoint.model_digest)
        held = m["checkpoints"].get(digest)
        if held is not None:  # content-addressed: at most the resume pointer moves
            if m["latest"].get(key) != digest:
                self._fence()
                self._journal("put", file=held["file"], frames=[], **fields)
            return digest
        self._fence()
        # Extend the slot of this attempt's head when every frame it holds
        # is part of this checkpoint; anything else starts a slot of its own.
        meta = checkpoint.meta_bytes()
        meta_digest = sha256_bytes(meta)
        head = m["checkpoints"].get(m["latest"].get(key))
        file = head["file"] if head is not None else None
        frames = m["slots"][file]["frames"] if file is not None else []
        if not frames or frames[0][2] != meta_digest or any(
            checkpoint.cohort_digests.get(position) != sha for _, _, sha, position, _, _ in frames[1:]
        ):
            file, frames = self._take_slot(), []
        # Frames start on block boundaries: a torn write of a new frame
        # cannot share a block with an acknowledged one.
        pending = [] if frames else [([meta], meta_digest, -1, 0, 0)]
        for position in sorted(set(checkpoint.cohorts) - {f[3] for f in frames}):
            rows, cols = checkpoint.cohorts[position]["deltas"].shape
            pending.append((checkpoint.cohort_frame(position), checkpoint.cohort_digests[position],
                            position, rows, cols))
        offset = sum(frames[-1][:2]) if frames else 0
        table, extents = [], []
        for buffers, sha, position, rows, cols in pending:
            offset = -(-offset // _BLOCK) * _BLOCK
            size = sum(memoryview(b).nbytes for b in buffers)
            table.append([offset, size, sha, position, rows, cols])
            extents.append((offset, buffers))
            offset += size
        pwrite_synced(os.path.join(self.root, file), extents)
        self._journal("put", file=file, frames=table, **fields)
        return digest

    def _take_slot(self) -> str:
        """A retired slot file to overwrite in place, else a new name."""
        if self._free:
            return self._free.pop(0)
        slots = self._manifest["slots"]
        names = (os.path.join("objects", f"slot-{n:03d}.bin") for n in itertools.count())
        return next(name for name in names if name not in slots)

    def get(self, digest: str) -> Optional[RoundCheckpoint]:
        entry = self._manifest["checkpoints"].get(digest)  # type: ignore[union-attr]
        if entry is None:
            return None
        path = os.path.join(self.root, str(entry["file"]))
        slot = self._manifest["slots"][entry["file"]]
        if slot.get("v") != _FORMAT:
            raise CheckpointCorrupted(
                path, "frame table format unrecognized", expected=_FORMAT, actual=slot.get("v")
            )
        # Exactly the journaled extents are read; each is size- and
        # digest-checked before it is parsed.
        (offset, size, sha, *_), *cohorts = slot["frames"][: entry["n_frames"]]
        try:
            ckpt = RoundCheckpoint.from_meta(read_bytes_verified(path, sha, size, offset=offset))
            for offset, size, sha, position, rows, cols in cohorts:
                frame = read_bytes_verified(path, sha, size, offset=offset)
                ckpt.restore_cohort(position, frame, rows, cols, sha)
        except IntegrityError as exc:
            raise _corrupt(exc) from exc
        except (KeyError, ValueError) as exc:
            raise CheckpointCorrupted(path, f"checkpoint payload unparseable ({exc})") from exc
        actual = ckpt.digest()
        if actual != digest:
            raise CheckpointCorrupted(
                path, "checkpoint content digest mismatch", expected=digest, actual=actual
            )
        return ckpt

    def latest_for(self, round_index: int, model_digest: str) -> Optional[RoundCheckpoint]:
        digest = self._manifest["latest"].get(f"{int(round_index)}:{model_digest}")  # type: ignore[union-attr]
        if digest is None:
            return None
        ckpt = self.get(digest)
        if ckpt is None:
            raise CheckpointCorrupted(
                self._manifest_path, "latest pointer references an unknown checkpoint",
                expected=digest, actual=None,
            )
        return ckpt

    def resume_or_raise(self, round_index: int, model_digest: str) -> RoundCheckpoint:
        """``latest_for`` that treats "no checkpoint for these weights" as an error.

        ``latest_for`` stays ``None``-tolerant (the engine's opt-in resume
        probe); harnesses that *know* a round was interrupted call this to
        get a :class:`CheckpointCorrupted` naming the digest mismatch
        instead of silently restarting the round.
        """
        found = self.latest_for(round_index, model_digest)
        if found is not None:
            return found
        stored = sorted(
            key.split(":", 1)[1]
            for key in self._manifest["latest"]  # type: ignore[union-attr]
            if key.split(":", 1)[0] == str(int(round_index))
        )
        raise CheckpointCorrupted(
            self._manifest_path,
            f"no checkpoint for round {int(round_index)} under the current model digest",
            expected=model_digest,
            actual=stored or None,
        )

    def clear_round(self, round_index: int) -> None:
        prefix = f"{int(round_index)}:"
        if any(key.startswith(prefix) for key in self._manifest["latest"]):  # type: ignore[union-attr]
            self._fence()
            self._journal("clear", round=int(round_index))

    # -- committed rounds -------------------------------------------------
    def record_commit(
        self,
        round_index: int,
        weights: np.ndarray,
        result: Mapping[str, object],
        scheduler_state: Optional[dict] = None,
    ) -> None:
        self._fence()
        meta = {
            "round_index": int(round_index),
            "result": dict(result),
            "scheduler_state": scheduler_state,
        }
        buf = io.BytesIO()
        np.savez(
            buf,
            meta=np.frombuffer(canonical_json(meta), dtype=np.uint8),
            weights=np.ascontiguousarray(np.asarray(weights, dtype=np.float64)),
        )
        entry = self._write_payload(
            os.path.join("commits", f"round-{int(round_index):06d}.npz"), buf.getvalue()
        )
        # One record commits the round, drops its resume pointers and
        # retires the archive of older committed rounds (see _apply).
        self._journal("commit", round=int(round_index), entry=entry)

    def _load_commit(self, key: str) -> Dict[str, object]:
        entry = self._manifest["commits"][key]  # type: ignore[index]
        path = os.path.join(self.root, str(entry["file"]))
        data = self._read_payload(entry)
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as archive:
                meta = json.loads(bytes(archive["meta"].tobytes()).decode())
                weights = np.array(archive["weights"], dtype=np.float64)
        except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
            raise CheckpointCorrupted(path, f"commit record unparseable ({exc})") from exc
        return {
            "round_index": int(meta["round_index"]),
            "weights": weights,
            "result": meta["result"],
            "scheduler_state": meta["scheduler_state"],
        }

    def latest_commit(self) -> Optional[Dict[str, object]]:
        commits: Dict[str, dict] = self._manifest["commits"]  # type: ignore[assignment]
        if not commits:
            return None
        return self._load_commit(max(commits, key=int))

    def commits(self) -> List[Dict[str, object]]:
        """Every committed-round record in round order (all verified)."""
        keys = sorted(self._manifest["commits"], key=int)  # type: ignore[arg-type]
        return [self._load_commit(k) for k in keys]

    # -- generic records --------------------------------------------------
    def put_record(self, kind: str, name: str, payload: Mapping[str, object]) -> str:
        """Persist one JSON record atomically; returns its content digest.

        See the module docstring's "persisting a new record kind" recipe.
        """
        self._fence()
        entry = self._write_payload(
            os.path.join("records", kind, f"{int(self._manifest['seq']) + 1:06d}.json"),
            canonical_json(dict(payload)),
        )
        self._journal("record", key=f"{kind}/{name}", entry=entry)
        return str(entry["file_digest"])

    def get_record(self, kind: str, name: str) -> Optional[Dict[str, object]]:
        entry = self._manifest["records"].get(f"{kind}/{name}")  # type: ignore[union-attr]
        if entry is None:
            return None
        return json.loads(self._read_payload(entry).decode())

    def record_names(self, kind: str) -> List[str]:
        """Names of a kind's records in write (sequence) order."""
        prefix = f"{kind}/"
        entries: Dict[str, dict] = self._manifest["records"]  # type: ignore[assignment]
        names = [(int(e["seq"]), key[len(prefix):]) for key, e in entries.items() if key.startswith(prefix)]
        return [name for _, name in sorted(names)]

    # -- fault plans ------------------------------------------------------
    def put_plan(self, plan: FaultPlan) -> str:
        digest = plan.digest()
        self.put_record("fault-plan", digest, {"digest": digest, "plan": json.loads(plan.to_json())})
        return digest

    def load_plan(self, digest: Optional[str] = None) -> Optional[FaultPlan]:
        """The plan with ``digest`` (or the latest persisted one), re-verified."""
        if digest is None:
            names = self.record_names("fault-plan")
            if not names:
                return None
            digest = names[-1]
        record = self.get_record("fault-plan", digest)
        if record is None:
            return None
        plan = FaultPlan.from_json(json.dumps(record["plan"]))
        actual = plan.digest()
        if actual != digest:
            raise CheckpointCorrupted(
                self._manifest_path, "fault plan content digest mismatch",
                expected=digest, actual=actual,
            )
        return plan

    # -- ledger segments --------------------------------------------------
    def put_ledger_segments(self, label: str, segments: Mapping[str, Sequence]) -> str:
        """Persist exported :class:`UsageLedger` segments under one label.

        ``segments`` maps device id → the entries of
        ``ledger.export_segment(start)``.  Restoring replays them through
        ``append_segment``, which re-verifies every MAC against the
        device key — a tampered persisted segment can never re-enter a
        chain.
        """
        payload = {
            "label": str(label),
            "segments": {
                device_id: [entry.to_dict() for entry in entries]
                for device_id, entries in segments.items()
            },
        }
        return self.put_record("ledger-segment", str(label), payload)

    def iter_ledger_segments(self) -> List[Tuple[str, Dict[str, list]]]:
        """All persisted segments in write order, entries rehydrated."""
        from repro.billing.metering import LedgerEntry

        out: List[Tuple[str, Dict[str, list]]] = []
        for name in self.record_names("ledger-segment"):
            record = self.get_record("ledger-segment", name)
            if record is None:  # pragma: no cover - names come from the manifest
                continue
            out.append(
                (
                    str(record["label"]),
                    {
                        device_id: [LedgerEntry.from_dict(e) for e in entries]
                        for device_id, entries in record["segments"].items()
                    },
                )
            )
        return out


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
