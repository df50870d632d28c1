"""Deterministic I/O budget of a durable round: counts, no clocks.

``repro.persist.recording`` logs every durable operation, so what a
round costs the disk is a number that repeats exactly: how many syncs,
how many bytes, which byte ranges.  Forty rounds of a two-cohort world
(16 clients, ~115 KB of cohort deltas per round) pin the write path's
budget — the regression these guard against is the pre-journal store:
18 syncs a round, every cohort written twice, a manifest rewritten per
mutation and a state dir that kept every round forever.
"""

import os
from statistics import median

import numpy as np
import pytest

from repro import persist
from repro.data import ClientData
from repro.faults import DurableCheckpointStore, DurableDecisionLog, FaultPlan
from repro.federated.client import FederatedClient
from repro.federated.engine import FederatedEngine
from repro.nn import make_mlp

N_ROUNDS = 40
STEADY = 3  # the first _RETAINED_ROUNDS + 1 rounds create their slot files


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Per-round op schedules of a 40-round durable run, plus the world's sizes."""
    rng = np.random.default_rng(3)
    clients = [
        FederatedClient(
            ClientData(f"c{i}", rng.normal(size=(8, 4)), rng.integers(0, 2, 8)),
            seed=i, batch_size=4 if i % 2 else 8,
        )
        for i in range(16)
    ]
    engine = FederatedEngine(make_mlp(4, 2, hidden=(128,), seed=0), clients)
    root = str(tmp_path_factory.mktemp("budget") / "state")
    engine.checkpoints = DurableCheckpointStore(root)
    rounds = []
    for r in range(N_ROUNDS):
        with persist.recording() as ops:
            result = engine.run_round(r)
        assert len(result.participants) == 16
        rounds.append(list(ops))
    n_params = engine.global_model.get_flat_weights().size
    # two cohorts of 8 rows: indices + deltas + losses + accs, 8 bytes a cell
    payload = 2 * 8 * (3 + n_params) * 8
    return root, rounds, payload


def _syncs(ops):
    return sum(op[0] in ("fsync", "dir-fsync") for op in ops)


def _written(ops, match=lambda path: True):
    return sum(len(op[3]) for op in ops if op[0] == "write" and match(op[1]))


def _is_manifest(path):
    return os.path.basename(path).startswith("MANIFEST.")


def _compacts(ops):
    return any(op[0] == "rename" and op[2].endswith("MANIFEST.json") for op in ops)


def test_steady_state_round_issues_nine_syncs(run):
    _, rounds, _ = run
    steady = rounds[STEADY:]
    # 3 puts x (slot + journal) + commit x (payload + its directory + journal)
    assert {_syncs(ops) for ops in steady if not _compacts(ops)} == {9}
    # a compaction adds the snapshot's and the journal reset's atomic writes
    assert {_syncs(ops) for ops in steady if _compacts(ops)} <= {13}
    assert sum(_compacts(ops) for ops in steady) <= len(steady) // 4


def test_round_writes_its_cohort_payload_once(run):
    _, rounds, payload = run
    assert payload > 100_000
    for ops in rounds:
        assert _written(ops) <= 1.05 * payload + 32 * 1024
        # no byte of an earlier cohort (or of the meta frame) is written again
        extents = sorted((op[1], op[2], op[2] + len(op[3])) for op in ops
                         if op[0] == "write" and "slot-" in op[1])
        assert len(extents) == 3
        for (path, _, end), (other, start, _) in zip(extents, extents[1:]):
            assert path == other and end <= start
        assert not [op for op in ops if op[0] == "truncate"]


def test_slots_are_recycled_in_place(run):
    root, rounds, payload = run
    slots = sorted(os.listdir(os.path.join(root, "objects")))
    assert slots == ["slot-000.bin", "slot-001.bin", "slot-002.bin"]
    for ops in rounds[STEADY:]:
        assert not [op for op in ops if op[0] == "mkdir" or
                    (op[0] == "dir-fsync" and op[1].endswith("objects"))]


def test_state_dir_is_bounded_by_slots_plus_commits(run):
    root, _, payload = run
    state = sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)
    slots = 3 * (payload + 3 * 4096)
    assert state <= slots + 16 * 1024 * N_ROUNDS
    # the snapshot indexes commits (a line each) and the retained rounds, not history
    assert os.path.getsize(os.path.join(root, "MANIFEST.json")) <= 4096 + 256 * N_ROUNDS
    store = DurableCheckpointStore(root)
    assert len(store.commits()) == N_ROUNDS  # commits are never retired
    assert len(store) <= 2 * 3  # two retained rounds, three checkpoints each


def test_manifest_bytes_written_are_linear_in_rounds(run):
    _, rounds, _ = run
    per_round = [_written(ops, _is_manifest) for ops in rounds]
    assert sum(per_round[-10:]) <= 1.5 * sum(per_round[:10])
    assert median(per_round) <= 4096


@pytest.mark.parametrize("writer", ["put_record", "put_plan", "decision_log"])
def test_record_writes_issue_three_syncs(writer, tmp_path):
    """A record is its file, atomically (2 syncs), then one journal line (1).
    The first into a fresh store also creates ``records/``,
    ``records/<kind>/`` and the journal: one directory fsync each."""
    store = DurableCheckpointStore(str(tmp_path / "store"))
    log = DurableDecisionLog(str(tmp_path / "log"))
    write = {
        "put_record": lambda i: store.put_record("note", str(i), {"i": i}),
        "put_plan": lambda i: store.put_plan(FaultPlan(seed=i)),
        "decision_log": lambda i: log.append({"cycle": i}),
    }[writer]
    counts = []
    for i in range(4):
        with persist.recording() as ops:
            write(i)
        counts.append(_syncs(ops))
    assert counts == [6, 3, 3, 3]
