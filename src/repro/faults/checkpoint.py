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
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.persist import canonical_json

__all__ = ["RoundInterrupted", "RoundCheckpoint", "CheckpointStore"]

# Both stores keep the checkpoint archive of the newest this-many
# *committed* rounds (and of every uncommitted round); older committed
# rounds are retired at commit time.  A constant, not a knob: resume
# only ever reads the in-flight round, two rounds back is for post-mortem.
_RETAINED_ROUNDS = 2

_COHORT_FRAME = (("indices", np.int64), ("deltas", np.float64),
                 ("losses", np.float64), ("accs", np.float64))


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
        durable store records for the frame it writes."""
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

    ``put`` snapshots the checkpoint under its digest and records it as
    the latest for its ``(round_index, model_digest)`` key;
    ``latest_for`` hands back a *copy*, so a resumed run never mutates
    the archived snapshot.  The archive is bounded: ``record_commit``
    retires committed rounds older than the newest ``_RETAINED_ROUNDS``
    (``get`` of their digests returns ``None``); an uncommitted round's
    checkpoints are never retired.
    """

    def __init__(self) -> None:
        self._objects: Dict[str, RoundCheckpoint] = {}
        self._latest: Dict[Tuple[int, str], str] = {}
        self._commits: Dict[int, Dict[str, object]] = {}

    def __len__(self) -> int:
        return len(self._objects)

    def put(self, checkpoint: RoundCheckpoint) -> str:
        digest = checkpoint.digest()
        if digest not in self._objects:
            self._objects[digest] = copy.deepcopy(checkpoint)
        self._latest[(checkpoint.round_index, checkpoint.model_digest)] = digest
        return digest

    def get(self, digest: str) -> Optional[RoundCheckpoint]:
        found = self._objects.get(digest)
        return copy.deepcopy(found) if found is not None else None

    def latest_for(self, round_index: int, model_digest: str) -> Optional[RoundCheckpoint]:
        digest = self._latest.get((int(round_index), model_digest))
        return self.get(digest) if digest is not None else None

    def clear_round(self, round_index: int) -> None:
        """Drop a round's resume pointers; its archive stays until retired."""
        for key in [k for k in self._latest if k[0] == int(round_index)]:
            del self._latest[key]

    # -- committed rounds -------------------------------------------------
    def record_commit(
        self,
        round_index: int,
        weights: np.ndarray,
        result: Dict[str, object],
        scheduler_state: Optional[dict] = None,
    ) -> None:
        """Snapshot a *committed* round: post-commit weights, the round's
        result dict and the post-round scheduler RNG stream.

        In-flight checkpoints cover a crash *inside* a round; commit
        records are the between-rounds anchor a fresh process restores
        before replaying later rounds (``repro.faults.durable`` persists
        them to disk — the in-memory form keeps both implementations
        behaviourally interchangeable).  Committing also drops the
        round's resume pointers and retires the checkpoint archive of
        committed rounds older than the newest ``_RETAINED_ROUNDS``."""
        self._commits[int(round_index)] = {
            "round_index": int(round_index),
            "weights": np.asarray(weights, dtype=np.float64).copy(),
            "result": copy.deepcopy(dict(result)),
            "scheduler_state": copy.deepcopy(scheduler_state),
        }
        self.clear_round(round_index)
        retired = _retired_rounds(self._commits, (c.round_index for c in self._objects.values()))
        if retired:
            self._objects = {d: c for d, c in self._objects.items() if c.round_index not in retired}
            self._latest = {k: d for k, d in self._latest.items() if d in self._objects}

    def latest_commit(self) -> Optional[Dict[str, object]]:
        """The highest committed round's record (a copy), or None."""
        if not self._commits:
            return None
        return copy.deepcopy(self._commits[max(self._commits)])
