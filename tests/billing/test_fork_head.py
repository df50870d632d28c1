"""Contract of ``UsageLedger.fork_head()``: a sharded worker meters on the
chain *head* and the parent re-chains what comes back, byte-for-byte as if
the worker had held (a deep copy of) the whole ledger."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billing import LedgerHead, QuotaGrant, UsageLedger

KEY = b"device-key"
MODELS = ("vision", "audio")

# (model, quota) per grant; (model, batch size) per metering call.  Small
# quotas against batches up to 12 give partial grants, multi-grant spill and
# exhausted quota; an empty history exercises GENESIS.
grant_sets = st.lists(st.tuples(st.sampled_from(MODELS), st.integers(0, 9)), max_size=5)
batches = st.lists(st.tuples(st.sampled_from(MODELS), st.integers(0, 12)), max_size=6)


def _ledger(grants, history) -> UsageLedger:
    ledger = UsageLedger("dev-1", KEY)
    for i, (model, quota) in enumerate(grants):
        ledger.add_grant(QuotaGrant.sign(f"g{i}", "dev-1", model, quota, b"backend"))
    for model, n in history:
        ledger.record_batch(model, n)
    return ledger


def _meter(ledger, window):
    return [ledger.record_batch(model, n) for model, n in window]


def _fields(entries):
    return [(e.index, e.prev_mac, e.mac, e.count, e.timestamp, e.grant_id, e.model_name) for e in entries]


@settings(max_examples=150, deadline=None)
@given(grants=grant_sets, history=batches, window=batches)
def test_head_meters_like_a_deep_copy_and_merges_like_in_process(grants, history, window):
    parent = _ledger(grants, history)
    in_process = _ledger(grants, history)
    full_copy = copy.deepcopy(parent)
    base = len(parent.entries)

    head = pickle.loads(pickle.dumps(parent.fork_head()))  # as a worker receives it
    assert head.entries == [] and head.head_mac() == parent.head_mac()
    if not history:
        assert head.head_mac() == UsageLedger.GENESIS

    granted = _meter(head, window)
    assert granted == _meter(full_copy, window) == _meter(in_process, window)
    segment = head.export_segment(0)
    assert _fields(segment) == _fields(full_copy.export_segment(base))
    assert head.remaining() == full_copy.remaining()
    assert len(parent.entries) == base  # metering on the head never touched the parent

    assert parent.append_segment(segment) == len(segment)
    assert _fields(parent.entries) == _fields(in_process.entries)
    assert parent.__dict__ == in_process.__dict__  # grants, usage counters and clock too
    assert parent.verify_chain()


def test_tampered_head_made_segment_is_rejected():
    parent = _ledger([("vision", 50)], [("vision", 3)])
    head = parent.fork_head()
    head.record_batch("vision", 4)
    head.record_batch("vision", 2)
    segment = head.export_segment(0)
    before = copy.deepcopy(parent.__dict__)
    for tampered in (
        [dataclasses.replace(segment[0], count=1), segment[1]],  # under-reported batch
        [segment[1]],  # dropped entry
        [dataclasses.replace(segment[0], grant_id="g9"), segment[1]],
    ):
        with pytest.raises(ValueError):
            parent.append_segment(tampered)
        assert parent.__dict__ == before  # whole segment checked before the first append
    assert parent.append_segment(segment) == 2


def test_head_cannot_pass_for_a_ledger():
    head = _ledger([("vision", 5)], [("vision", 2)]).fork_head()
    assert isinstance(head, LedgerHead)
    for audit in (head.verify_chain, head.export, head.used):
        with pytest.raises(TypeError, match="holds no chain history"):
            audit()


def test_head_rechains_the_segment_of_its_own_fork():
    """A sandbox that holds heads (the lifecycle canary) serves sharded
    windows too: its workers meter on a head of the head, and the head takes
    their segment back exactly as the ledger would."""
    ledger = _ledger([("vision", 9), ("vision", 9)], [("vision", 5)])
    in_process = _ledger([("vision", 9), ("vision", 9)], [("vision", 5)])
    head = ledger.fork_head()
    worker = pickle.loads(pickle.dumps(head.fork_head()))
    assert _meter(worker, [("vision", 3), ("vision", 7)]) == _meter(in_process, [("vision", 3), ("vision", 7)])
    assert head.append_segment(worker.export_segment(0)) == 3
    with pytest.raises(ValueError):
        head.append_segment(worker.export_segment(0))  # already chained
    assert ledger.append_segment(head.export_segment(0)) == 3
    assert _fields(ledger.entries) == _fields(in_process.entries)
    assert ledger.__dict__ == in_process.__dict__


def test_head_size_does_not_grow_with_history():
    ledger = _ledger([("vision", 10**6)], [])
    small = len(pickle.dumps(ledger.fork_head()))
    before = len(pickle.dumps(ledger))
    for _ in range(500):
        ledger.record_batch("vision", 3)
    assert len(pickle.dumps(ledger.fork_head())) <= small + 16  # wider ints, nothing else
    assert len(pickle.dumps(ledger)) - before >= 500 * 32  # the ledger ships at least every MAC row
