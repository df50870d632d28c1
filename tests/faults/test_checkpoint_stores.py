"""One behavioural contract, two stores: in-memory and durable.

Every test here runs against both ``CheckpointStore()`` and a
``DurableCheckpointStore`` on a fresh tmpdir — the durable plane's whole
point is that the engine cannot tell the difference until the process
dies.  ``test_stores_move_in_lock_step`` drives both with one drawn op
sequence and compares them after every op.
"""

import copy
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CheckpointStore, DurableCheckpointStore, FaultPlan, RoundCheckpoint


@pytest.fixture(params=["memory", "durable"])
def store_factory(request, tmp_path):
    """A zero-arg factory; the durable flavour reuses one directory, so
    calling it twice models a process restart over the same state dir."""
    if request.param == "memory":
        store = CheckpointStore()
        return lambda: store
    return lambda: DurableCheckpointStore(tmp_path / "state")


def _ckpt(round_index=0, model_digest="m", value=1.0, positions=(0,)):
    ckpt = RoundCheckpoint(
        round_index=round_index,
        model_digest=model_digest,
        selected=("a", "b"),
        contributors=("a", "b"),
        stragglers=(),
        counts={"n_dropouts": 0},
    )
    for pos in positions:
        ckpt.record_cohort(pos, [pos], np.full((1, 3), value), np.ones(1), np.ones(1))
    return ckpt


class TestStoreContract:
    def test_empty_store(self, store_factory):
        store = store_factory()
        assert len(store) == 0
        assert store.latest_for(0, "m") is None
        assert store.get("0" * 64) is None
        assert store.latest_commit() is None
        store.clear_round(0)  # clearing an empty round is a no-op, not an error

    def test_put_get_round_trip(self, store_factory):
        store = store_factory()
        ckpt = _ckpt()
        digest = store.put(ckpt)
        restored = store.get(digest)
        assert restored.digest() == digest
        assert restored.n_cohorts_done == 1
        np.testing.assert_array_equal(
            restored.cohorts[0]["deltas"], ckpt.cohorts[0]["deltas"]
        )

    def test_put_is_idempotent_and_content_addressed(self, store_factory):
        store = store_factory()
        d1 = store.put(_ckpt(value=1.0))
        d2 = store.put(_ckpt(value=1.0))
        d3 = store.put(_ckpt(value=2.0))
        assert d1 == d2 != d3
        assert len(store) == 2

    def test_multiple_checkpoints_per_round_latest_wins(self, store_factory):
        store = store_factory()
        store.put(_ckpt(positions=(0,)))
        later = _ckpt(positions=(0, 1))
        digest = store.put(later)
        found = store.latest_for(0, "m")
        assert found.digest() == digest
        assert found.n_cohorts_done == 2

    def test_latest_for_is_keyed_on_round_and_model(self, store_factory):
        store = store_factory()
        store.put(_ckpt(round_index=1, model_digest="m1"))
        assert store.latest_for(1, "m2") is None
        assert store.latest_for(2, "m1") is None
        assert store.latest_for(1, "m1") is not None

    def test_clear_round_drops_pointer_keeps_archive(self, store_factory):
        store = store_factory()
        digest = store.put(_ckpt(round_index=3))
        store.clear_round(3)
        assert store.latest_for(3, "m") is None
        # Archive retention: the object itself outlives the pointer.
        assert store.get(digest) is not None

    def test_clear_then_resume_round_restarts_clean(self, store_factory):
        store = store_factory()
        store.put(_ckpt(round_index=0, positions=(0,)))
        store.clear_round(0)
        # A new attempt at the round sees no stale progress and re-puts.
        assert store.latest_for(0, "m") is None
        fresh = store.put(_ckpt(round_index=0, positions=()))
        assert store.latest_for(0, "m").digest() == fresh

    def test_snapshots_are_isolated_from_live_mutation(self, store_factory):
        store = store_factory()
        ckpt = _ckpt()
        digest = store.put(ckpt)
        ckpt.record_cohort(5, [5], np.zeros((1, 3)), np.zeros(1), np.zeros(1))
        assert store.get(digest).n_cohorts_done == 1

    def test_commit_records_round_trip(self, store_factory):
        store = store_factory()
        weights = np.linspace(-1.0, 1.0, 7)
        result = {"round_index": 2, "global_accuracy": 0.5, "participants": ["a"]}
        sched = {"bit_generator": "PCG64", "state": {"state": 123, "inc": 5}}
        store.record_commit(2, weights, result, sched)
        commit = store.latest_commit()
        assert commit["round_index"] == 2
        assert commit["weights"].tobytes() == weights.tobytes()
        assert commit["result"] == result
        assert commit["scheduler_state"] == sched

    def test_latest_commit_is_highest_round(self, store_factory):
        store = store_factory()
        for r in (0, 2, 1):
            store.record_commit(r, np.full(3, float(r)), {"round_index": r})
        assert store.latest_commit()["round_index"] == 2

    def test_commit_result_comes_back_as_json(self, store_factory):
        """A tuple comes back a list and a NumPy scalar a float, on both flavours."""
        store = store_factory()
        store.record_commit(0, np.zeros(3), {"participants": ("a", "b"), "accuracy": np.float64(0.5)})
        result = store_factory().latest_commit()["result"]
        assert result == {"participants": ["a", "b"], "accuracy": 0.5}
        assert type(result["accuracy"]) is float

    def test_restored_cohort_arrays_are_read_only(self, store_factory):
        store = store_factory()
        digest = store.put(_ckpt(positions=(0, 1)))
        restored = store_factory().get(digest)
        for arrays in restored.cohorts.values():
            assert not any(array.flags.writeable for array in arrays.values())

    def test_plans_and_records_round_trip(self, store_factory):
        store = store_factory()
        plan = FaultPlan(seed=3, interrupts=((1, 0),))
        digest = store.put_plan(plan)
        store.put_record("note", "b", {"n": 2})
        store.put_record("note", "a", {"n": 1})
        reopened = store_factory()
        assert reopened.load_plan().digest() == reopened.load_plan(digest).digest() == digest
        assert reopened.record_names("note") == ["b", "a"]
        assert reopened.get_record("note", "a") == {"n": 1}
        assert reopened.get_record("note", "c") is None


class TestArchiveRetention:
    """``record_commit`` retires the archive of committed rounds older than
    the newest two — one rule, both stores."""

    def test_committed_rounds_older_than_the_last_two_are_retired(self, store_factory):
        store = store_factory()
        digests = []
        for r in range(5):
            digests.append(store.put(_ckpt(round_index=r, value=float(r))))
            store.record_commit(r, np.full(3, float(r)), {"round_index": r})
            store.clear_round(r)
            assert len(store) <= 2
        assert [store.get(d) for d in digests[:3]] == [None, None, None]
        for r in (3, 4):
            assert store.get(digests[r]).round_index == r
        assert len(store) == 2
        assert len(store_factory()) == 2  # and it stays retired across a restart

    def test_commit_drops_the_rounds_resume_pointers(self, store_factory):
        store = store_factory()
        store.put(_ckpt(round_index=0))
        store.record_commit(0, np.zeros(3), {"round_index": 0})
        assert store.latest_for(0, "m") is None
        store.clear_round(0)  # the pointers went with the commit: nothing left to drop

    def test_an_uncommitted_rounds_checkpoints_are_never_retired(self, store_factory):
        store = store_factory()
        in_flight = store.put(_ckpt(round_index=1, positions=(0, 1)))
        for r in (0, 2, 3, 4, 5):  # round 1 never commits
            store.put(_ckpt(round_index=r))
            store.record_commit(r, np.zeros(3), {"round_index": r})
        assert store.get(in_flight).n_cohorts_done == 2
        assert store_factory().latest_for(1, "m").digest() == in_flight

    def test_non_extension_put_on_one_key_round_trips_both(self, store_factory):
        store = store_factory()
        first = store.put(_ckpt(value=1.0))
        second = store.put(_ckpt(value=2.0))  # same (round, model), different cohort 0
        shrunk = store.put(_ckpt(value=2.0, positions=()))  # fewer cohorts than the head
        for current in (store, store_factory()):
            assert current.get(first).cohorts[0]["deltas"][0, 0] == 1.0
            assert current.get(second).cohorts[0]["deltas"][0, 0] == 2.0
            assert current.get(shrunk).n_cohorts_done == 0
            assert current.latest_for(0, "m").digest() == shrunk
            assert len(current) == 3


class TestDurableRestart:
    """Cross-instance behaviour only the durable flavour can exhibit."""

    def test_fresh_instance_sees_committed_state(self, tmp_path):
        first = DurableCheckpointStore(tmp_path / "s")
        digest = first.put(_ckpt(round_index=1, positions=(0, 1)))
        first.record_commit(0, np.arange(4.0), {"round_index": 0})

        second = DurableCheckpointStore(tmp_path / "s")
        assert len(second) == 1
        assert second.latest_for(1, "m").digest() == digest
        assert second.latest_commit()["round_index"] == 0

    def test_clear_round_survives_restart(self, tmp_path):
        first = DurableCheckpointStore(tmp_path / "s")
        first.put(_ckpt(round_index=0))
        first.clear_round(0)
        second = DurableCheckpointStore(tmp_path / "s")
        assert second.latest_for(0, "m") is None


# (op, round, model digest, value): put a checkpoint that extends the key's
# head by one cohort, one that does not, or re-put a held one; clear or
# commit a round; write a record.
_OPS = st.lists(st.tuples(
    st.sampled_from(["extend", "fresh", "reput", "clear", "commit", "record"]),
    st.integers(0, 3), st.sampled_from("mn"), st.integers(0, 2),
), max_size=14)


def _observe(store, digests):
    """What the contract lets a caller see of a store."""
    commit = store.latest_commit()
    if commit is not None:
        commit = dict(commit, weights=commit["weights"].tobytes())
    return (
        len(store),
        {(r, m): getattr(store.latest_for(r, m), "digest", lambda: None)() for r in range(4) for m in "mn"},
        {d for d in digests if store.get(d) is None},
        commit,
        [store.record_names(f"k{v}") for v in range(3)],
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(ops=_OPS)
def test_stores_move_in_lock_step(ops):
    with tempfile.TemporaryDirectory() as tmp:
        stores = CheckpointStore(), DurableCheckpointStore(tmp)
        heads, held, digests = {}, [], set()
        for op, r, m, v in ops:
            if op in ("extend", "fresh", "reput"):
                if op == "extend":
                    ckpt = heads.setdefault((r, m), _ckpt(r, m, positions=()))
                    position = ckpt.n_cohorts_done
                    ckpt.record_cohort(position, [position], np.full((1, 3), float(v)), np.ones(1), np.ones(1))
                elif op == "fresh":
                    ckpt = heads[r, m] = _ckpt(r, m, value=10.0 + v, positions=range(v))
                elif not held:
                    continue
                else:
                    ckpt = held[v % len(held)]
                held.append(copy.deepcopy(ckpt))
                digests.update(store.put(ckpt) for store in stores)
            elif op == "clear":
                for store in stores:
                    store.clear_round(r)
            elif op == "commit":
                result = {"round_index": r, "participants": ("a", m), "accuracy": np.float64(v) / 4}
                for store in stores:
                    store.record_commit(r, np.full(3, float(v)), result, {"state": v})
            else:
                for store in stores:
                    store.put_record(f"k{v}", f"{m}{r}", {"round": r})
            memory, durable = (_observe(store, digests) for store in stores)
            assert memory == durable, f"after {op} {r} {m} {v}"
        assert _observe(DurableCheckpointStore(tmp), digests) == _observe(stores[0], digests)
