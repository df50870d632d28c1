"""Transactional round checkpoints: interrupt a round, resume it byte-identically.

A federated round is a transaction: selection → local training (one
sweep per cohort) → delivery → quorum commit.  The coordinator can die
between cohort sweeps; :class:`RoundCheckpoint` persists everything the
round decided before the crash — the selection (including the
scheduler's post-selection RNG stream state, because schedulers are
*stateful* and re-selecting on resume would double-advance the stream),
the fault-plan verdicts (crashes, delivery outcomes, quorum target) and
every completed cohort's delta stack — content-addressed, so a resumed
round replays the missing cohorts only and commits byte-identically to
a run that was never interrupted (the chaos suite asserts this).
:class:`CheckpointStore` is the one store that archives them; its
durable flavour only moves the files from a dict to a directory.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.persist import IntegrityError, canonical_json, sha256_bytes

from .plan import FaultPlan

__all__ = ["RoundInterrupted", "RoundCheckpoint", "CheckpointStore"]

# The store keeps the checkpoint archive of the newest this-many
# *committed* rounds (and of every uncommitted round); older committed
# rounds are retired at commit time.  A constant, not a knob: resume
# only ever reads the in-flight round, two rounds back is for post-mortem.
_RETAINED_ROUNDS = 2
_FORMAT = 2  # of the index snapshot, of every journal line and of every slot's frame table
_BLOCK = 4096  # frame alignment inside a slot
_MANIFEST_NAME = "MANIFEST.json"
_JOURNAL_NAME = "MANIFEST.log"

_COHORT_FRAME = (("indices", np.int64), ("deltas", np.float64),
                 ("losses", np.float64), ("accs", np.float64))


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


def _retired_rounds(committed: Iterable[int], archived: Iterable[int]) -> Set[int]:
    """The ``archived`` rounds that are committed and older than the
    newest ``_RETAINED_ROUNDS`` committed ones."""
    committed = set(committed)
    newest = heapq.nlargest(_RETAINED_ROUNDS, committed)
    if len(newest) < _RETAINED_ROUNDS:
        return set()
    return {r for r in archived if r < newest[-1] and r in committed}


class RoundInterrupted(RuntimeError):
    """The coordinator crashed mid-round; a checkpoint holds the progress.

    Carries the round index and the checkpoint's content digest so the
    caller can re-issue ``run_round`` against the same store and resume.
    """

    def __init__(self, round_index: int, checkpoint_digest: str) -> None:
        super().__init__(
            f"round {round_index} interrupted; resume from checkpoint {checkpoint_digest[:12]}"
        )
        self.round_index = int(round_index)
        self.checkpoint_digest = checkpoint_digest


@dataclass
class RoundCheckpoint:
    """Durable state of one in-flight round.

    ``model_digest`` pins the global weights the round started from — a
    checkpoint never resumes onto different weights.  ``cohorts`` maps
    cohort position → the completed sweep's ``(indices, deltas, losses,
    accs)`` payload; positions absent from the map still need training.
    """

    round_index: int
    model_digest: str
    selected: Tuple[str, ...]
    contributors: Tuple[str, ...]
    stragglers: Tuple[str, ...]
    counts: Dict[str, int] = field(default_factory=dict)
    delivered_rows: Optional[Tuple[int, ...]] = None
    tx_counts: Optional[Tuple[int, ...]] = None
    scheduler_state: Optional[dict] = None
    cohorts: Dict[int, Dict[str, np.ndarray]] = field(default_factory=dict)

    # position -> sha256 of the cohort's frame bytes, set by record_cohort
    cohort_digests: Dict[int, str] = field(default_factory=dict, repr=False, compare=False)

    def record_cohort(
        self,
        position: int,
        indices: Sequence[int],
        deltas: np.ndarray,
        losses: np.ndarray,
        accs: np.ndarray,
    ) -> None:
        """Persist one completed cohort sweep.

        The arrays are kept as private, read-only, C-contiguous copies
        and hashed once, here: the sha256 of their concatenated raw bytes
        (the cohort's *frame*) feeds :meth:`digest` and is the digest the
        store records for the frame it writes."""
        arrays = {
            key: np.array(value, dtype=dtype, order="C", ndmin=2 if key == "deltas" else 1)
            for (key, dtype), value in zip(_COHORT_FRAME, (indices, deltas, losses, accs))
        }
        h = hashlib.sha256()
        for array in arrays.values():
            array.flags.writeable = False
            h.update(array)
        self.cohorts[int(position)] = arrays
        self.cohort_digests[int(position)] = h.hexdigest()

    def cohort_frame(self, position: int) -> List[np.ndarray]:
        """A recorded cohort's arrays in frame order (their raw bytes,
        concatenated, are what ``cohort_digests[position]`` hashes)."""
        return [self.cohorts[position][key] for key, _ in _COHORT_FRAME]

    def restore_cohort(self, position: int, frame: bytes, rows: int, cols: int, digest: str) -> None:
        """Adopt a frame the caller has just verified against ``digest``:
        the arrays are read-only views of ``frame``, nothing is re-hashed."""
        arrays, offset = {}, 0
        for key, dtype in _COHORT_FRAME:
            shape = (rows, cols) if key == "deltas" else (rows,)
            arrays[key] = np.frombuffer(frame, dtype, math.prod(shape), offset).reshape(shape)
            offset += arrays[key].nbytes
        if offset != len(frame):
            raise ValueError(f"cohort frame holds {len(frame)} bytes, its shape needs {offset}")
        self.cohorts[int(position)] = arrays
        self.cohort_digests[int(position)] = digest

    @property
    def n_cohorts_done(self) -> int:
        return len(self.cohorts)

    def meta_bytes(self) -> bytes:
        """Canonical JSON of everything but the cohort payloads."""
        return canonical_json({
            "round_index": self.round_index,
            "model_digest": self.model_digest,
            "selected": list(self.selected),
            "contributors": list(self.contributors),
            "stragglers": list(self.stragglers),
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
            "delivered_rows": None if self.delivered_rows is None else list(self.delivered_rows),
            "tx_counts": None if self.tx_counts is None else list(self.tx_counts),
            "scheduler_state": self.scheduler_state,
        })

    @classmethod
    def from_meta(cls, data: bytes) -> "RoundCheckpoint":
        """Inverse of :meth:`meta_bytes` (a checkpoint with no cohorts yet)."""
        meta = json.loads(data)
        return cls(
            round_index=int(meta["round_index"]),
            model_digest=str(meta["model_digest"]),
            selected=tuple(meta["selected"]),
            contributors=tuple(meta["contributors"]),
            stragglers=tuple(meta["stragglers"]),
            counts={k: int(v) for k, v in meta["counts"].items()},
            delivered_rows=None
            if meta["delivered_rows"] is None
            else tuple(int(r) for r in meta["delivered_rows"]),
            tx_counts=None
            if meta["tx_counts"] is None
            else tuple(int(t) for t in meta["tx_counts"]),
            scheduler_state=meta["scheduler_state"],
        )

    def digest(self) -> str:
        """Content address: sha256 over the metadata's canonical JSON and
        every cohort's ``(position, shape, frame digest)`` in position
        order — O(#cohorts), the payload bytes were hashed when recorded."""
        h = hashlib.sha256(self.meta_bytes())
        for position in sorted(self.cohorts):
            rows, cols = self.cohorts[position]["deltas"].shape
            h.update(f"{position}:{rows}x{cols}:{self.cohort_digests[position]}".encode())
        return h.hexdigest()


class CheckpointStore:
    """Content-addressed archive of round checkpoints + a resume pointer.

    ``put`` archives a checkpoint under its digest as the latest for its
    ``(round_index, model_digest)`` key; ``get`` / ``latest_for`` rebuild
    a fresh copy from the archived bytes.  ``record_commit`` snapshots a
    committed round and retires the archive of committed rounds older
    than the newest ``_RETAINED_ROUNDS`` (``get`` of their digests
    returns ``None``); an uncommitted round's is never retired.  Plans,
    ledger segments and other JSON records ride the same index.

    Its "files" (slot frames, commit ``.npz``, record JSON) live in a
    dict: it survives an exception, not the process.
    :class:`~repro.faults.durable.DurableCheckpointStore` overrides only
    where bytes go, so the two flavours run one code path.
    """

    # Where errors say the bytes are; the directory flavour names its own.
    _root = ""
    _manifest_path = _MANIFEST_NAME
    _journal_path = _JOURNAL_NAME

    def __init__(self) -> None:
        # The index: mutated only by _apply, one journal record at a time.
        self._manifest: Dict[str, object] = {
            "format": _FORMAT, "seq": 0, "checkpoints": {}, "latest": {}, "slots": {}, "commits": {}, "records": {},
        }
        self._free: List[str] = []  # slot files no live round references
        self._files: Dict[str, bytes] = {}  # the memory flavour's files, by relative path

    # -- where bytes go (DurableCheckpointStore overrides these) -----------
    def _fence(self) -> None:
        """Refuse to write if another writer has; memory has one writer."""

    def _journal(self, op: str, **fields: object) -> None:
        """One index mutation, applied."""
        self._apply({"v": _FORMAT, "seq": int(self._manifest["seq"]) + 1, "op": op, **fields})

    def _write_frames(self, file: str, extents: Sequence[Tuple[int, Sequence]]) -> None:
        """Write ``(offset, buffers)`` extents into a slot file in place."""
        slot = self._files.setdefault(file, bytearray())
        for offset, buffers in extents:
            data = b"".join(buffers)
            slot.extend(bytes(max(0, offset - len(slot))))
            slot[offset:offset + len(data)] = data

    def _write_file(self, file: str, data: bytes) -> str:
        """Replace a whole file atomically; returns its sha256."""
        self._files[file] = data
        return sha256_bytes(data)

    def _read(self, file: str, sha: str, size: int, offset: Optional[int] = None) -> bytes:
        """A file's bytes, or ``size`` of them at ``offset``; on disk they are
        checked against the journaled ``sha`` (memory cannot rot) and a
        mismatch raises :class:`CheckpointCorrupted`."""
        view = memoryview(self._files[file])
        return bytes(view if offset is None else view[offset:offset + size])

    # -- the index ---------------------------------------------------------
    def _apply(self, record: Mapping[str, object]) -> None:
        """Apply one journal record to the index (live and on replay)."""
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

    def _write_payload(self, file: str, data: bytes) -> Dict[str, object]:
        return {"file": file, "file_digest": self._write_file(file, data), "size": len(data)}

    # -- checkpoints -------------------------------------------------------
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
        self._write_frames(file, extents)
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
        file = str(entry["file"])
        path = os.path.join(self._root, file)
        slot = self._manifest["slots"][file]
        if slot.get("v") != _FORMAT:
            raise CheckpointCorrupted(
                path, "frame table format unrecognized", expected=_FORMAT, actual=slot.get("v")
            )
        # Exactly the journaled extents are read; each is size- and
        # digest-checked before it is parsed.
        (offset, size, sha, *_), *cohorts = slot["frames"][: entry["n_frames"]]
        try:
            ckpt = RoundCheckpoint.from_meta(self._read(file, sha, size, offset))
            for offset, size, sha, position, rows, cols in cohorts:
                ckpt.restore_cohort(position, self._read(file, sha, size, offset), rows, cols, sha)
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
        prefix = f"{int(round_index)}:"
        stored = sorted(k[len(prefix):] for k in self._manifest["latest"] if k.startswith(prefix))  # type: ignore[union-attr]
        raise CheckpointCorrupted(
            self._manifest_path,
            f"no checkpoint for round {int(round_index)} under the current model digest",
            expected=model_digest,
            actual=stored or None,
        )

    def clear_round(self, round_index: int) -> None:
        """Drop a round's resume pointers; its archive stays until retired."""
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
        """Snapshot a *committed* round — post-commit weights, the result
        dict (read back as JSON: lists, floats) and the post-round
        scheduler RNG stream — as the between-rounds anchor a fresh
        process restores.  One journal record commits the round, drops
        its resume pointers and retires older rounds (see :meth:`_apply`)."""
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
        self._journal("commit", round=int(round_index), entry=entry)

    def _load_commit(self, key: str) -> Dict[str, object]:
        entry = self._manifest["commits"][key]  # type: ignore[index]
        data = self._read(entry["file"], entry["file_digest"], entry["size"])
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as archive:
                meta = json.loads(bytes(archive["meta"].tobytes()).decode())
                weights = np.array(archive["weights"], dtype=np.float64)
        except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
            raise CheckpointCorrupted(
                os.path.join(self._root, str(entry["file"])), f"commit record unparseable ({exc})"
            ) from exc
        return {
            "round_index": int(meta["round_index"]),
            "weights": weights,
            "result": meta["result"],
            "scheduler_state": meta["scheduler_state"],
        }

    def latest_commit(self) -> Optional[Dict[str, object]]:
        """The highest committed round's record, or None."""
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

        See :mod:`repro.faults.durable`'s "persisting a new record kind"
        recipe.
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
        return json.loads(self._read(entry["file"], entry["file_digest"], entry["size"]))

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

        records = (self.get_record("ledger-segment", name) for name in self.record_names("ledger-segment"))
        return [
            (str(record["label"]), {
                device_id: [LedgerEntry.from_dict(e) for e in entries]
                for device_id, entries in record["segments"].items()
            })
            for record in records
        ]
