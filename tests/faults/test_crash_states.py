"""Crash-state enumeration for the durable store: every prefix, two crash models.

The SIGKILL suite (``test_crash_recovery.py``) kills a real process at a
few timed points.  This suite replaces luck with enumeration: it records
the schedule of durable operations (``repro.persist.recording``) of one
small reference run — five rounds of two cohorts, one coordinator
interrupt, a ledger segment persisted after every round and one lifecycle
decision appended at the end, with the compaction threshold shrunk so the
run compacts its manifest and reuses a retired slot — and then, for
**every** prefix of that schedule, materialises the directory two crash
models would leave:

*process death*
    every issued operation applied (the page cache survives the process);
*power loss*
    a file holds what its last ``fsync`` covered, the newest write is
    additionally torn (a 4 KiB-block-aligned part of it lands, or half of
    a write that fits one block), and a name created or renamed since its
    directory's last fsync is absent.

Each state is opened, checked against what the dead process had
*acknowledged* (a returned ``put`` / ``record_commit`` / record write must
be there), resumed with the ``examples/crash_recovery.py`` recipe and run
to the end; final weights, every ``commits()`` record, the committed-round
list, the ledger segments and the decision log must equal the
never-crashed run byte for byte.  ``test_missing_sync_is_caught`` then
deletes one class of sync from the schedule at a time and asserts the
enumeration notices — the proof is only worth what it can reject.  ``test_op_schedule_is_pinned`` compares the schedule itself
with ``tests/pins/state/crash_schedule.json`` (``python -m tests.pins
--update`` re-records it): a refactor of the store must issue the same
operations with the same bytes.
"""

import dataclasses
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro.faults.durable as durable
from repro import persist
from repro.billing.metering import LedgerEntry
from repro.data import ClientData
from repro.faults import (
    CheckpointCorrupted,
    DurableCheckpointStore,
    DurableDecisionLog,
    FaultInjector,
    FaultPlan,
    FaultRates,
    RoundInterrupted,
)
from repro.federated.client import FederatedClient
from repro.federated.engine import FederatedEngine, partition_cohorts
from repro.nn import make_mlp

N_ROUNDS = 5
BLOCK = 4096
DECISION = {"cycle": 0, "promoted": True}
SCHEDULE_PIN = Path(__file__).resolve().parents[1] / "pins" / "state" / "crash_schedule.json"


def _world() -> FederatedEngine:
    """Four clients in two cohort configs; rebuilt from scratch per 'process'."""
    rng = np.random.default_rng(7)
    clients = [
        FederatedClient(
            ClientData(f"c{i}", rng.normal(size=(8, 4)), rng.integers(0, 2, 8)),
            seed=i, batch_size=4 if i % 2 else 8,
        )
        for i in range(4)
    ]
    return FederatedEngine(make_mlp(4, 2, hidden=(48,), seed=0), clients)


def _plan(engine: FederatedEngine) -> FaultPlan:
    plan = FaultPlan.generate(
        17, client_ids=sorted(engine.clients), n_rounds=N_ROUNDS,
        rates=FaultRates(uplink_loss=0.15),
    )
    # the coordinator dies after the first cohort of round 2
    return dataclasses.replace(plan, interrupts=((2, 1),))


def _segment(r: int):
    """The ledger segment a coordinator exports after round ``r`` commits."""
    return {"dev-0": [LedgerEntry(r, "g0", "m", float(r), f"{r:064x}", f"{r + 1:064x}", r + 1)]}


class _AckingStore(DurableCheckpointStore):
    """Marks, in the recorded schedule, the point each mutation was acknowledged."""

    def __init__(self, root, ops):
        super().__init__(root)
        self._ops = ops

    def put(self, checkpoint):
        digest = super().put(checkpoint)
        self._ops.append(("ack", "put", digest, int(checkpoint.round_index)))
        return digest

    def record_commit(self, round_index, *args, **kwargs):
        super().record_commit(round_index, *args, **kwargs)
        self._ops.append(("ack", "commit", int(round_index)))

    def put_plan(self, plan):
        digest = super().put_plan(plan)
        self._ops.append(("ack", "plan", digest))
        return digest

    def put_ledger_segments(self, label, segments):
        digest = super().put_ledger_segments(label, segments)
        self._ops.append(("ack", "segment", label))
        return digest


def _process(root, ops=None, acked=()):
    """One coordinator process — the ``examples/crash_recovery.py`` recipe:
    open the state dir, restore the latest commit, resume, finish."""
    engine = _world()
    store = DurableCheckpointStore(root) if ops is None else _AckingStore(root, ops)
    _check_acknowledged(store, root, acked)
    engine.checkpoints = store
    plan = store.load_plan()
    if plan is None:  # died before the plan was acknowledged: regenerate it from its seed
        plan = _plan(engine)
        store.put_plan(plan)
    engine.fault_injector = FaultInjector(plan)
    commit = store.latest_commit()
    start = 0
    if commit is not None:
        engine.global_model.set_flat_weights(commit["weights"])
        engine._restore_scheduler_rng(commit["scheduler_state"])
        start = int(commit["round_index"]) + 1
    exported = set(store.record_names("ledger-segment"))
    for r in range(start):  # died between a commit and its segment: export it now
        if f"round-{r}" not in exported:
            store.put_ledger_segments(f"round-{r}", _segment(r))
    for r in range(start, N_ROUNDS):
        engine.run_round(r)
        store.put_ledger_segments(f"round-{r}", _segment(r))
    log = DurableDecisionLog(root)
    if not len(log):
        log.append(DECISION)
        if ops is not None:
            ops.append(("ack", "decision"))
    return (
        engine.global_model.get_flat_weights().tobytes(),
        [
            (c["round_index"], c["weights"].tobytes(), persist.canonical_json(c["result"]),
             persist.canonical_json(c["scheduler_state"]))
            for c in store.commits()
        ],
        _segments(store),
        log.load(),
    )


def _dicts(segments):
    return {device: [entry.to_dict() for entry in entries] for device, entries in segments.items()}


def _segments(store):
    """Every persisted ledger segment, in write order (each read is verified)."""
    return [(label, _dicts(segments)) for label, segments in store.iter_ledger_segments()]


def _run_to_end(root, ops=None, acked=()):
    while True:
        try:
            return _process(root, ops, acked)
        except RoundInterrupted:
            acked = ()  # the plan's interrupt: the next process starts from the state dir alone


def _check_acknowledged(store, root, acked) -> None:
    """What the dead process was told is durable must be there on open."""
    if any(a[1] == "plan" for a in acked):
        assert store.load_plan() is not None, "acknowledged fault plan lost"
    segments = dict(_segments(store))
    for label in {a[2] for a in acked if a[1] == "segment"}:
        expected = _dicts(_segment(int(label.split("-")[1])))
        assert segments.get(label) == expected, f"acknowledged segment {label} lost"
    if any(a[1] == "decision" for a in acked):
        assert DurableDecisionLog(root).load() == [DECISION], "acknowledged decision lost"
    committed = {c["round_index"] for c in store.commits()}
    commits = {a[2] for a in acked if a[1] == "commit"}
    assert commits <= committed, f"acknowledged commits {sorted(commits - committed)} lost"
    puts = [a for a in acked if a[1] == "put"]
    if puts and puts[-1][3] not in commits:  # the in-flight round's newest checkpoint
        digest = puts[-1][2]
        found = store.get(digest)
        assert found is not None and found.digest() == digest, "acknowledged checkpoint lost"


# ---------------------------------------------------------------------------
# the crash models
# ---------------------------------------------------------------------------
class _File:
    def __init__(self):
        self.live = b""      # what the page cache holds
        self.synced = None   # what the last fsync covered (None: never synced)


_DIR = object()


def _overwrite(content: bytes, offset: int, data: bytes) -> bytes:
    return content[:offset].ljust(offset, b"\0") + data + content[offset + len(data):]


def _crash_state(ops, power_loss: bool):
    """``{path: bytes | _DIR}`` left by a crash right after the last of ``ops``."""
    live, durable = {}, {}
    for kind, path, *args in ops:
        if kind == "mkdir":
            live[path] = _DIR
        elif kind == "write":
            file = live.setdefault(path, _File())
            file.live = _overwrite(file.live, *args)
        elif kind == "truncate":
            live[path].live = live[path].live[: args[0]].ljust(args[0], b"\0")
        elif kind == "fsync":
            live[path].synced = live[path].live
        elif kind == "rename":
            live[args[0]] = live.pop(path)
        elif kind == "dir-fsync":
            for name in [n for n in durable if os.path.dirname(n) == path]:
                del durable[name]
            durable.update({n: f for n, f in live.items() if os.path.dirname(n) == path})
        else:
            assert kind == "ack", kind
    if not power_loss:
        return {n: f if f is _DIR else f.live for n, f in live.items()}
    state = {n: f if f is _DIR else (f.synced or b"") for n, f in durable.items()}
    work = [op for op in ops if op[0] != "ack"]
    if work and work[-1][0] == "write":  # the write in flight is torn, not simply lost
        _, path, offset, data = work[-1]
        end = (offset + len(data)) // BLOCK * BLOCK
        cut = end - offset if end > offset else len(data) // 2
        for name, file in durable.items():
            if file is live.get(path):
                state[name] = _overwrite(state[name], offset, data[:cut])
    return state


def _materialise(state, root, target) -> None:
    os.makedirs(target)
    for name in sorted(state, key=len):  # parents before children
        rel = os.path.relpath(name, root)
        if rel == "." or rel.startswith(".."):
            continue  # the state dir itself and its parent
        dest = os.path.join(target, rel)
        if not os.path.isdir(os.path.dirname(dest)):
            continue  # its directory never became durable: the name is gone with it
        if state[name] is _DIR:
            os.mkdir(dest)
        else:
            with open(dest, "wb") as handle:
                handle.write(state[name])


# ---------------------------------------------------------------------------
# reference run + enumeration
# ---------------------------------------------------------------------------
def record_reference(root):
    """The never-crashed run in ``root``: ``(recorded schedule, fingerprint)``."""
    saved, durable._COMPACT_MIN_BYTES = durable._COMPACT_MIN_BYTES, 1024  # compact inside five rounds
    try:
        with persist.recording() as ops:
            expected = _run_to_end(root, ops)
    finally:
        durable._COMPACT_MIN_BYTES = saved
    return list(ops), expected


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """(root, recorded schedule, fingerprint) of the never-crashed run."""
    root = str(tmp_path_factory.mktemp("reference") / "state")
    ops, expected = record_reference(root)
    return root, ops, expected, {}


def schedule_rows(ops, root):
    """The durable operations of a schedule as pin rows: ``[kind, path]``
    relative to ``root`` (temp-file names as ``.tmp-*``), plus a write's
    offset, size and data sha256, a rename's target, a truncate's size."""
    def rel(path):
        return re.sub(r"\.tmp-[^/]*\Z", ".tmp-*", os.path.relpath(path, root))

    rows = []
    for kind, path, *args in (op for op in ops if op[0] != "ack"):
        row = [kind, rel(path)]
        if kind == "write":
            offset, data = args
            row += [offset, len(data), hashlib.sha256(data).hexdigest()]
        elif kind == "rename":
            row.append(rel(args[0]))
        elif kind == "truncate":
            row += args
        rows.append(row)
    return rows


def _versions():
    return {"numpy": np.__version__, "python": "%d.%d" % sys.version_info[:2]}


def write_schedule_pin() -> None:
    """Re-record ``SCHEDULE_PIN`` (``python -m tests.pins --update`` calls this)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "state")
        rows = schedule_rows(record_reference(root)[0], root)
    SCHEDULE_PIN.parent.mkdir(exist_ok=True)
    head = json.dumps(_versions(), sort_keys=True)[:-1]
    SCHEDULE_PIN.write_text(head + ', "ops": [\n' + ",\n".join(json.dumps(r) for r in rows) + "\n]}\n")


def _state_key(state, root, acked) -> str:
    h = hashlib.sha256(repr(acked).encode())
    for name in sorted(state):
        h.update(os.path.relpath(name, root).encode() + b"\0")
        h.update(b"<dir>" if state[name] is _DIR else hashlib.sha256(state[name]).digest())
    return h.hexdigest()


def _failures(reference, ops, tmp_path, stop_at_first=False):
    """Enumerate every prefix x {process death, power loss}; return what failed."""
    root, _, expected, outcomes = reference
    failed = []
    for k in range(len(ops) + 1):
        acked = tuple(op for op in ops[:k] if op[0] == "ack")
        for power_loss in (False, True):
            state = _crash_state(ops[:k], power_loss)
            key = _state_key(state, root, acked)
            if key not in outcomes:  # many prefixes leave the same bytes: resume each once
                target = str(tmp_path / f"crash-{len(outcomes)}")
                _materialise(state, root, target)
                try:
                    got = _run_to_end(target, acked=acked)
                    outcomes[key] = None if got == expected else "recovered run differs"
                except (CheckpointCorrupted, AssertionError) as exc:
                    outcomes[key] = f"{type(exc).__name__}: {exc}"
            if outcomes[key] is not None:
                failed.append((k, "power loss" if power_loss else "process death", outcomes[key]))
                if stop_at_first:
                    return failed
    return failed


def test_reference_run_exercises_the_whole_protocol(reference):
    root, ops, expected, _ = reference
    weights, commits, *_ = expected
    assert [c[0] for c in commits] == list(range(N_ROUNDS))
    assert len([c for c in partition_cohorts(_world().global_model, list(_world().clients.values()))
                if c.kind == "batched"]) == 2
    # never-crashed durable run == plain in-memory run of the same plan minus the interrupt
    plain = _world()
    plain.fault_injector = FaultInjector(dataclasses.replace(_plan(plain), interrupts=()))
    for r in range(N_ROUNDS):
        plain.run_round(r)
    assert plain.global_model.get_flat_weights().tobytes() == weights
    # the schedule contains a compaction (a second snapshot + journal reset) ...
    snapshots = [op for op in ops if op[0] == "rename" and op[2].endswith("MANIFEST.json")]
    resets = [op for op in ops if op[0] == "rename" and op[2].endswith("MANIFEST.log")]
    assert len(snapshots) >= 2 and resets
    # ... a slot reused in place, never truncated ...
    slot_heads = [op[1] for op in ops if op[0] == "write" and "slot-" in op[1] and op[2] == 0]
    assert len(slot_heads) > len(set(slot_heads)) == 3
    assert not [op for op in ops if op[0] == "truncate" and "slot-" in op[1]]
    # ... and the plan's coordinator interrupt (round 2 was put from two processes)
    assert len({op[2] for op in ops if op[:2] == ("ack", "put") and op[3] == 2}) == 3


def test_op_schedule_is_pinned(reference):
    """The store issues the operations it issued when the pin was recorded:
    same kinds, paths and order, and — on the recording NumPy and Python,
    whose float bits the payloads carry — the same offsets and bytes."""
    root, ops, _, _ = reference
    pin = json.loads(SCHEDULE_PIN.read_text())
    got, want = schedule_rows(ops, root), pin.pop("ops")
    if pin != _versions():
        got, want = [row[:2] for row in got], [row[:2] for row in want]
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want)))
    assert got == want, f"op {first} moved: pinned {want[first:first + 1]}, issued {got[first:first + 1]}"


def test_every_crash_state_recovers_byte_identically(reference, tmp_path):
    _, ops, _, _ = reference
    assert len(ops) > 100
    assert _failures(reference, ops, tmp_path) == []


def _is(op, kind, suffix="", contains=""):
    return op[0] == kind and op[1].endswith(suffix) and contains in op[1]


@pytest.mark.parametrize("name, drop", [
    ("slot frames before their journal record",
     lambda ops, i: _is(ops[i], "fsync", contains="slot-")),
    ("journal append",
     lambda ops, i: _is(ops[i], "fsync", "MANIFEST.log")),
    ("commit payload before its rename",
     lambda ops, i: _is(ops[i], "fsync", contains="round-")),
    ("name of a new slot file",
     lambda ops, i: _is(ops[i], "dir-fsync", "objects")),
    ("name of the new objects/ directory",
     lambda ops, i: ops[i][0] == "dir-fsync" and _is(ops[i - 1], "mkdir", "objects")),
    ("name of the new journal",
     lambda ops, i: ops[i][0] == "dir-fsync" and _is(ops[i - 1], "fsync", "MANIFEST.log")),
    ("rename that resets the journal at compaction",
     lambda ops, i: ops[i][0] == "dir-fsync" and ops[i - 1][0] == "rename"
     and ops[i - 1][2].endswith("MANIFEST.log")),
    ("record payload before its rename",
     lambda ops, i: _is(ops[i], "fsync", contains=f"{os.sep}records{os.sep}")),
    ("name of a record in records/<kind>/",
     lambda ops, i: ops[i][0] == "dir-fsync"
     and os.path.basename(os.path.dirname(ops[i][1])) == "records"),
])
def test_missing_sync_is_caught(reference, tmp_path, name, drop):
    """Delete one class of sync from the schedule: some crash state must fail."""
    _, ops, _, _ = reference
    mutated = [op for i, op in enumerate(ops) if not (i and drop(ops, i))]
    assert len(mutated) < len(ops), f"nothing matched: {name}"
    failed = _failures(reference, mutated, tmp_path, stop_at_first=True)
    assert failed, f"no crash state notices a missing sync of the {name}"
    assert failed[0][1] == "power loss"
