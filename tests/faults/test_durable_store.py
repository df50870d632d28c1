"""Corruption regressions for the durable crash-recovery plane.

Every persisted artifact is digest-verified on load; these tests damage
the on-disk state in each of the ways a real crash or bad disk can and
assert the store raises a typed :class:`CheckpointCorrupted` naming the
offending path — never resumes from unverified bytes.
"""

import json
import os

import numpy as np
import pytest

from _sharded_worlds import federated_world
from repro.billing.metering import LedgerEntry, UsageLedger
from repro.faults import (
    CheckpointCorrupted,
    DurableCheckpointStore,
    DurableDecisionLog,
    FaultPlan,
    FaultRates,
    RoundCheckpoint,
)
from repro.persist import IntegrityError, atomic_write_bytes, read_bytes_verified


def _ckpt(round_index=0, model_digest="m", positions=(0, 1)):
    ckpt = RoundCheckpoint(
        round_index=round_index,
        model_digest=model_digest,
        selected=("a", "b"),
        contributors=("a", "b"),
        stragglers=(),
        counts={},
    )
    for pos in positions:
        ckpt.record_cohort(pos, [pos], np.full((1, 4), 1.5), np.ones(1), np.ones(1))
    return ckpt


def _object_path(store, digest):
    entry = store._manifest["checkpoints"][digest]
    return os.path.join(store.root, entry["file"])


class TestCorruptionDetection:
    def test_truncated_object_file(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        path = _object_path(store, digest)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        fresh = DurableCheckpointStore(tmp_path)
        with pytest.raises(CheckpointCorrupted) as exc_info:
            fresh.latest_for(0, "m")
        assert exc_info.value.path == path
        assert "truncated" in str(exc_info.value)

    def test_bit_flipped_object_file(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        path = _object_path(store, digest)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        fresh = DurableCheckpointStore(tmp_path)
        with pytest.raises(CheckpointCorrupted) as exc_info:
            fresh.get(digest)
        assert exc_info.value.path == path
        assert exc_info.value.expected  # the digest it wanted is named

    def test_stale_manifest_missing_file(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        os.remove(_object_path(store, digest))
        fresh = DurableCheckpointStore(tmp_path)
        with pytest.raises(CheckpointCorrupted, match="missing"):
            fresh.latest_for(0, "m")

    def test_tampered_manifest(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt())
        manifest_path = os.path.join(store.root, "MANIFEST.json")
        body = json.loads(open(manifest_path).read())
        body["seq"] = 999  # edit without recomputing the self-digest
        with open(manifest_path, "w") as fh:
            json.dump(body, fh)
        with pytest.raises(CheckpointCorrupted, match="self-digest"):
            DurableCheckpointStore(tmp_path)

    def test_unparseable_manifest(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt())
        with open(os.path.join(store.root, "MANIFEST.json"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(CheckpointCorrupted):
            DurableCheckpointStore(tmp_path)

    def test_tmp_file_debris_is_invisible(self, tmp_path):
        """A crash mid-payload-write leaves only a tmp file: ignored."""
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        debris = os.path.join(store.root, "objects", ".tmp-leftover")
        with open(debris, "wb") as fh:
            fh.write(b"half-written garbage")
        fresh = DurableCheckpointStore(tmp_path)
        assert len(fresh) == 1
        assert fresh.latest_for(0, "m").digest() == digest

    def test_orphan_payload_is_invisible(self, tmp_path):
        """A crash between payload rename and manifest flush leaves an
        orphan object file no manifest entry references: never loaded."""
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt())
        orphan = os.path.join(store.root, "objects", "f" * 64 + ".npz")
        with open(orphan, "wb") as fh:
            fh.write(b"orphan bytes from a dead process")
        fresh = DurableCheckpointStore(tmp_path)
        assert len(fresh) == 1
        assert fresh.get("f" * 64) is None

    def test_resume_or_raise_names_the_digest_mismatch(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt(round_index=2, model_digest="weights-A"))
        found = store.resume_or_raise(2, "weights-A")
        assert found.model_digest == "weights-A"
        with pytest.raises(CheckpointCorrupted) as exc_info:
            store.resume_or_raise(2, "weights-B")
        assert exc_info.value.expected == "weights-B"
        assert exc_info.value.actual == ["weights-A"]

    def test_corrupt_commit_record(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        store.record_commit(0, np.arange(3.0), {"round_index": 0})
        entry = store._manifest["commits"]["0"]
        path = os.path.join(store.root, entry["file"])
        with open(path, "ab") as fh:
            fh.write(b"extra")
        fresh = DurableCheckpointStore(tmp_path)
        with pytest.raises(CheckpointCorrupted):
            fresh.latest_commit()


class TestPersistPrimitives:
    def test_atomic_write_then_verified_read(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        digest = atomic_write_bytes(path, b"payload")
        assert read_bytes_verified(path, digest, 7) == b"payload"

    def test_verified_read_rejects_wrong_size_first(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        digest = atomic_write_bytes(path, b"payload")
        with pytest.raises(IntegrityError, match="truncated"):
            read_bytes_verified(path, digest, 6)

    def test_failed_write_leaves_no_debris(self, tmp_path):
        # The "directory" is actually a file, so the write cannot commit.
        blocker = tmp_path / "sub"
        blocker.write_bytes(b"")
        with pytest.raises(OSError):
            atomic_write_bytes(str(blocker / "blob.bin"), b"x")
        assert list(tmp_path.iterdir()) == [blocker]


class TestPlanAndLedgerPersistence:
    def test_fault_plan_round_trips_with_digest(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        plan = FaultPlan.generate(
            11, client_ids=["c0", "c1"], n_rounds=3, n_windows=2,
            rates=FaultRates(round_interrupt=0.5),
        )
        digest = store.put_plan(plan)
        fresh = DurableCheckpointStore(tmp_path)
        restored = fresh.load_plan()
        assert restored.digest() == digest == plan.digest()
        assert fresh.load_plan(digest).digest() == digest

    def test_tampered_plan_rejected(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put_plan(FaultPlan(seed=1, interrupts=((0, 1),)))
        entry = store._manifest["records"][f"fault-plan/{digest}"]
        path = os.path.join(store.root, entry["file"])
        record = json.loads(open(path).read())
        record["plan"]["seed"] = 999
        # Re-commit the edit "atomically" so only the content digest is off.
        new_digest = atomic_write_bytes(
            path, json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        )
        entry["file_digest"] = new_digest
        entry["size"] = os.path.getsize(path)
        store._flush()
        fresh = DurableCheckpointStore(tmp_path)
        with pytest.raises(CheckpointCorrupted, match="plan content digest"):
            fresh.load_plan(digest)

    @staticmethod
    def _metered_ledger(quota=40):
        from repro.billing import BillingBackend, PricingPlan

        billing = BillingBackend()
        billing.register_plan(PricingPlan(model_name="m"))
        key = billing.enroll_device("dev-0")
        grant = billing.sell_package("dev-0", "m", quota)

        def build():
            ledger = UsageLedger("dev-0", key)
            ledger.add_grant(grant, backend_key=billing.signing_key())
            return ledger

        return build

    def test_ledger_segments_round_trip_with_macs(self, tmp_path):
        build = self._metered_ledger()
        ledger = build()
        for i in range(4):
            ledger.record_batch("m", 2 + i)
        segment = ledger.export_segment(0)
        store = DurableCheckpointStore(tmp_path)
        store.put_ledger_segments("round-0", {"dev-0": segment})

        fresh = DurableCheckpointStore(tmp_path)
        [(label, segments)] = fresh.iter_ledger_segments()
        assert label == "round-0"
        replay = build()
        replay.append_segment(segments["dev-0"])  # re-verifies every MAC
        assert replay.head_mac() == ledger.head_mac()
        assert replay.verify_chain()
        assert replay.used("m") == ledger.used("m")

    def test_tampered_ledger_segment_cannot_reenter_a_chain(self, tmp_path):
        build = self._metered_ledger()
        ledger = build()
        ledger.record_batch("m", 3)
        store = DurableCheckpointStore(tmp_path)
        store.put_ledger_segments("round-0", {"dev-0": ledger.export_segment(0)})
        entry = store._manifest["records"]["ledger-segment/round-0"]
        path = os.path.join(store.root, entry["file"])
        record = json.loads(open(path).read())
        record["segments"]["dev-0"][0]["count"] = 999  # inflate the bill
        new_digest = atomic_write_bytes(
            path, json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        )
        entry["file_digest"] = new_digest
        entry["size"] = os.path.getsize(path)
        store._flush()
        fresh = DurableCheckpointStore(tmp_path)
        [(_, segments)] = fresh.iter_ledger_segments()
        replay = build()
        with pytest.raises(ValueError):
            replay.append_segment(segments["dev-0"])


class TestDecisionLog:
    def test_append_load_round_trip(self, tmp_path):
        log = DurableDecisionLog(tmp_path)
        log.append({"cycle": 0, "promoted": True})
        log.append({"cycle": 1, "promoted": False})
        fresh = DurableDecisionLog(tmp_path)
        assert len(fresh) == 2
        assert [d["cycle"] for d in fresh.load()] == [0, 1]

    def test_shares_state_dir_with_engine_store(self, tmp_path):
        """The decision log owns a subdirectory, so one state_dir can hold
        both an engine's checkpoints and the lifecycle decisions."""
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt())
        log = DurableDecisionLog(tmp_path)
        log.append({"cycle": 0})
        # Neither clobbered the other's manifest.
        assert len(DurableCheckpointStore(tmp_path)) == 1
        assert len(DurableDecisionLog(tmp_path)) == 1


class TestLifecycleDurableRestart:
    @staticmethod
    def _world(seed=21):
        from repro.core import PlatformConfig, TinyMLOpsPlatform
        from repro.data import make_gaussian_blobs, partition_dirichlet
        from repro.devices import Fleet
        from repro.nn import make_mlp

        ds = make_gaussian_blobs(600, 12, 4, seed=seed)
        train, test = ds.split(0.3, seed=seed)
        fleet = Fleet.random(8, seed=seed)
        platform = TinyMLOpsPlatform(
            fleet, PlatformConfig(bit_widths=(8,), sparsities=(0.5,), seed=seed)
        )
        model = make_mlp(12, 4, hidden=(16,), seed=0, name="wakeword")
        model.fit(train.x, train.y, epochs=3, lr=0.01, seed=0)
        platform.release(model, test.x, test.y)
        platform.deploy(
            "wakeword",
            reference_x=train.x[:100],
            reference_predictions=model.predict_classes(train.x[:100]),
            num_classes=4,
            prepaid_queries=2000,
        )
        clients = partition_dirichlet(train, 4, alpha=0.7, seed=seed)
        return platform, clients, test

    def test_lifecycle_decisions_survive_restart(self, tmp_path):
        from repro.lifecycle import LifecycleConfig

        config = LifecycleConfig(rounds=1, canary_windows=2, seed=21)
        platform, clients, test = self._world()
        pipe = platform.lifecycle(
            "wakeword", clients, (test.x, test.y),
            config=config, state_dir=str(tmp_path / "lc"),
        )
        first = pipe.run_cycle(trigger={"kind": "manual"})
        assert pipe._cycles == 1

        # Restart: a fresh platform world + a fresh pipeline over the same
        # state_dir replays the decision log.
        platform2, clients2, test2 = self._world()
        pipe2 = platform2.lifecycle(
            "wakeword", clients2, (test2.x, test2.y),
            config=config, state_dir=str(tmp_path / "lc"),
        )
        assert pipe2._cycles == 1
        assert len(pipe2.history) == 1
        restored = pipe2.history[0]
        assert restored.cycle == first.cycle
        assert restored.promoted == first.promoted
        assert restored.candidate_version == first.candidate_version
        assert restored.record_digest == first.record_digest
        assert restored.promotion == first.promotion
        if first.promoted:
            assert restored.promotion.get("version") == first.candidate_version
            assert restored.promotion.get("flipped_devices")

        # The next cycle numbers itself after the restored history.
        second = pipe2.run_cycle(trigger={"kind": "manual"})
        assert second.cycle == 1
        assert len(DurableDecisionLog(str(tmp_path / "lc")).load()) == 2


def _tree(root):
    """Every file under a state dir, byte for byte."""
    return {
        os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
        for d, _, files in os.walk(root) for f in files
    }


class TestSingleWriterFence:
    def test_stale_second_writer_raises_and_touches_nothing(self, tmp_path):
        first = DurableCheckpointStore(tmp_path)
        first.put(_ckpt(round_index=0))
        second = DurableCheckpointStore(tmp_path)  # e.g. a restarted coordinator
        second.put(_ckpt(round_index=1))
        second.record_commit(0, np.arange(3.0), {"round_index": 0})
        before = _tree(tmp_path)
        for write in (
            lambda: first.put(_ckpt(round_index=2)),
            lambda: first.record_commit(1, np.arange(3.0), {"round_index": 1}),
            lambda: first.put_record("note", "n", {"x": 1}),
            lambda: first.clear_round(0),
        ):
            with pytest.raises(CheckpointCorrupted, match="stale writer") as exc_info:
                write()
            assert exc_info.value.path == os.path.join(first.root, "MANIFEST.log")
        assert _tree(tmp_path) == before  # journal, slots, commits: not one byte
        # the live writer is unaffected and a fresh instance sees its state
        second.put(_ckpt(round_index=2))
        fresh = DurableCheckpointStore(tmp_path)
        assert fresh.latest_commit()["round_index"] == 0
        assert fresh.latest_for(2, "m") is not None

    def test_stale_writer_is_fenced_across_a_compaction(self, tmp_path, monkeypatch):
        import repro.faults.durable as durable

        first = DurableCheckpointStore(tmp_path)
        first.put(_ckpt(round_index=0))
        monkeypatch.setattr(durable, "_COMPACT_MIN_BYTES", 64)
        second = DurableCheckpointStore(tmp_path)
        second.put(_ckpt(round_index=1))  # compacts: the journal is a new, empty file
        assert os.path.getsize(os.path.join(second.root, "MANIFEST.log")) == 0
        with pytest.raises(CheckpointCorrupted, match="stale writer"):
            first.put(_ckpt(round_index=2))

    def test_readers_coexist_with_the_writer(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt(round_index=0))
        reader = DurableCheckpointStore(tmp_path)
        assert reader.get(digest).digest() == digest
        later = store.put(_ckpt(round_index=1))  # the reader wrote nothing: no fence
        assert reader.get(later) is None  # a reader sees the state it opened
        assert DurableCheckpointStore(tmp_path).get(later) is not None


class TestJournal:
    @staticmethod
    def _journal(store):
        return os.path.join(store.root, "MANIFEST.log")

    def test_mutations_append_to_the_journal_not_the_snapshot(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        snapshot = open(os.path.join(store.root, "MANIFEST.json"), "rb").read()
        store.put(_ckpt())
        store.record_commit(0, np.arange(3.0), {"round_index": 0})
        assert open(os.path.join(store.root, "MANIFEST.json"), "rb").read() == snapshot
        assert len(open(self._journal(store), "rb").read().splitlines()) == 2
        fresh = DurableCheckpointStore(tmp_path)
        assert fresh._manifest == store._manifest

    def test_compaction_preserves_the_index(self, tmp_path, monkeypatch):
        import repro.faults.durable as durable

        monkeypatch.setattr(durable, "_COMPACT_MIN_BYTES", 256)
        store = DurableCheckpointStore(tmp_path)
        store.put_plan(FaultPlan(seed=1, interrupts=((0, 1),)))
        store.put_record("note", "a", {"n": 1})
        store.put_record("note", "b", {"n": 2})
        for r in range(6):
            store.put(_ckpt(round_index=r))
            store.record_commit(r, np.full(3, float(r)), {"round_index": r})
            store.clear_round(r)
        # 15 mutations: the snapshot absorbed some, the journal holds the rest
        snapshot_seq = json.loads(open(os.path.join(store.root, "MANIFEST.json")).read())["seq"]
        assert 0 < snapshot_seq < store._manifest["seq"] == 15
        journal = open(self._journal(store), "rb").read().splitlines()
        assert len(journal) == 15 - snapshot_seq
        fresh = DurableCheckpointStore(tmp_path)
        assert fresh._manifest == store._manifest
        assert [c["round_index"] for c in fresh.commits()] == list(range(6))
        assert fresh.load_plan().interrupts == ((0, 1),)
        assert fresh.record_names("note") == ["a", "b"]

    def test_snapshot_newer_than_journal_records_skips_them(self, tmp_path):
        """A crash between compaction's snapshot and its journal reset."""
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt())
        store._flush()  # snapshot now covers the journal's one record
        fresh = DurableCheckpointStore(tmp_path)
        assert fresh._manifest == store._manifest
        assert len(fresh) == 1

    def test_torn_last_line_is_dropped_then_cut(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        kept = store.put(_ckpt(round_index=0))
        size = os.path.getsize(self._journal(store))
        torn = store.put(_ckpt(round_index=1))
        with open(self._journal(store), "r+b") as fh:
            fh.truncate(size + 40)  # the second append never finished
        fresh = DurableCheckpointStore(tmp_path)
        assert fresh.get(kept) is not None and fresh.get(torn) is None
        fresh.put(_ckpt(round_index=2))  # cuts the tail before appending
        again = DurableCheckpointStore(tmp_path)
        assert sorted(e["round_index"] for e in again._manifest["checkpoints"].values()) == [0, 2]

    def test_garbage_after_a_complete_line_is_a_dropped_tail(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        with open(self._journal(store), "ab") as fh:
            fh.write(b"\x00\x00garbage\nmore garbage")
        fresh = DurableCheckpointStore(tmp_path)
        assert fresh.get(digest).digest() == digest

    def test_damaged_middle_line_raises(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt(round_index=0))
        store.put(_ckpt(round_index=1))
        data = bytearray(open(self._journal(store), "rb").read())
        data[100] ^= 0xFF  # inside the first (acknowledged) record
        with open(self._journal(store), "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(CheckpointCorrupted, match="journal record 1 damaged") as exc_info:
            DurableCheckpointStore(tmp_path)
        assert exc_info.value.path == self._journal(store)

    def test_journal_without_its_snapshot_is_refused(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt())
        os.remove(os.path.join(store.root, "MANIFEST.json"))
        with pytest.raises(CheckpointCorrupted, match="snapshot missing"):
            DurableCheckpointStore(tmp_path)


class TestPersistedVersions:
    def test_format_1_directory_is_refused_naming_both_versions(self, tmp_path):
        from repro.persist import atomic_write_json, canonical_json, sha256_bytes

        body = {"format": 1, "seq": 0, "checkpoints": {}, "latest": {}, "commits": {}, "records": {}}
        body["manifest_digest"] = sha256_bytes(canonical_json(body))
        atomic_write_json(str(tmp_path / "MANIFEST.json"), body)
        with pytest.raises(CheckpointCorrupted, match="manifest format unrecognized") as exc_info:
            DurableCheckpointStore(tmp_path)
        assert (exc_info.value.expected, exc_info.value.actual) == (2, 1)
        assert "expected 2, got 1" in str(exc_info.value)

    @staticmethod
    def _append_record(store, **record):
        from repro.faults.durable import _journal_line

        seq = store._manifest["seq"] + 1
        with open(os.path.join(store.root, "MANIFEST.log"), "ab") as fh:
            fh.write(_journal_line({"seq": seq, **record}))

    @pytest.mark.parametrize(
        "op, fields",
        [
            ("defragment", {}),
            # The retired merge-intent WAL's two ops: a dir that used it is
            # refused by name, not replayed up to the line it cannot read.
            ("merge-commit", {"key": "merge-intent/serve-000002"}),
            ("discard", {"keys": ["merge-intent/serve-000002"]}),
        ],
    )
    def test_unknown_journal_op_raises_naming_it(self, tmp_path, op, fields):
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt())
        store.put_record("merge-intent", "serve-000002", {"scope": "serve", "n_shards": 2})
        self._append_record(store, v=2, op=op, **fields)
        state = {n: open(os.path.join(store.root, n), "rb").read() for n in ("MANIFEST.json", "MANIFEST.log")}
        with pytest.raises(CheckpointCorrupted, match=f"unknown journal op '{op}'"):
            DurableCheckpointStore(tmp_path)
        for name, data in state.items():  # the refused open wrote nothing
            assert open(os.path.join(store.root, name), "rb").read() == data

    def test_journal_line_of_another_format_is_refused(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        store.put(_ckpt())
        self._append_record(store, v=3, op="clear", round=0)
        with pytest.raises(CheckpointCorrupted, match="journal record format") as exc_info:
            DurableCheckpointStore(tmp_path)
        assert (exc_info.value.expected, exc_info.value.actual) == (2, 3)

    def test_every_journal_line_and_frame_table_carries_the_format(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        for line in open(os.path.join(store.root, "MANIFEST.log"), "rb").read().splitlines():
            assert json.loads(line.split(b" ", 1)[1])["v"] == 2
        slot = store._manifest["slots"][store._manifest["checkpoints"][digest]["file"]]
        assert slot["v"] == 2
        slot["v"] = 3
        store._flush()
        with pytest.raises(CheckpointCorrupted, match="frame table format"):
            DurableCheckpointStore(tmp_path).get(digest)


class TestSlotFrames:
    @staticmethod
    def _frames(store, digest):
        entry = store._manifest["checkpoints"][digest]
        return store._manifest["slots"][entry["file"]]["frames"][: entry["n_frames"]]

    def test_put_writes_only_the_new_frames(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        ckpt = _ckpt(positions=())
        d0 = store.put(ckpt)
        ckpt.record_cohort(0, [0], np.full((1, 4), 1.5), np.ones(1), np.ones(1))
        d1 = store.put(ckpt)
        ckpt.record_cohort(1, [1], np.full((1, 4), 2.5), np.ones(1), np.ones(1))
        d2 = store.put(ckpt)
        # one slot, frames shared as prefixes, each on its own 4 KiB block
        assert len({store._manifest["checkpoints"][d]["file"] for d in (d0, d1, d2)}) == 1
        assert [len(self._frames(store, d)) for d in (d0, d1, d2)] == [1, 2, 3]
        assert [f[0] for f in self._frames(store, d2)] == [0, 4096, 8192]
        fresh = DurableCheckpointStore(tmp_path)
        assert [fresh.get(d).n_cohorts_done for d in (d0, d1, d2)] == [0, 1, 2]
        assert fresh.latest_for(0, "m").digest() == d2

    def test_bit_flip_in_an_acknowledged_frame(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        path = _object_path(store, digest)
        offset, size, sha = self._frames(store, digest)[2][:3]  # cohort 1's frame
        with open(path, "r+b") as fh:
            fh.seek(offset + size - 1)
            byte = fh.read(1)
            fh.seek(offset + size - 1)
            fh.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(CheckpointCorrupted, match="digest mismatch") as exc_info:
            DurableCheckpointStore(tmp_path).get(digest)
        assert exc_info.value.path == path
        assert exc_info.value.expected == sha

    def test_slot_shorter_than_a_journaled_extent(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        path = _object_path(store, digest)
        offset, size = self._frames(store, digest)[2][:2]
        os.truncate(path, offset + size - 1)
        with pytest.raises(CheckpointCorrupted, match="truncated") as exc_info:
            DurableCheckpointStore(tmp_path).latest_for(0, "m")
        assert exc_info.value.path == path

    def test_bytes_outside_the_journaled_extents_are_invisible(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        path = _object_path(store, digest)
        (_, meta_size, *_), (first, *_) = self._frames(store, digest)[:2]
        with open(path, "r+b") as fh:
            fh.seek(meta_size)
            fh.write(b"\xAA" * (first - meta_size))  # the gap up to the next block
            fh.seek(0, os.SEEK_END)
            fh.write(b"stale frames of a retired round" * 100)
        assert DurableCheckpointStore(tmp_path).get(digest).digest() == digest

    def test_orphan_slot_is_invisible_and_reusable(self, tmp_path):
        store = DurableCheckpointStore(tmp_path)
        digest = store.put(_ckpt())
        orphan = os.path.join(store.root, "objects", "slot-007.bin")
        with open(orphan, "wb") as fh:
            fh.write(b"a slot written by a process that died before its journal record")
        fresh = DurableCheckpointStore(tmp_path)
        assert len(fresh) == 1 and fresh.get(digest) is not None
        other = fresh.put(_ckpt(round_index=1))
        assert _object_path(fresh, other) == orphan  # overwritten in place
        assert DurableCheckpointStore(tmp_path).get(other).digest() == other
