"""A ledger's chain lives in columns; ``ledger.entries`` is a view of them.

The storage it replaced — one :class:`LedgerEntry` object per chain entry
in a list — lives on here as the oracle (``ListLedger``).  The columnar
ledger must hand out the same entries, exports, segments and MACs for any
sequence of ``record_query`` / ``record_batch`` / ``append_segment`` calls,
and must hold each entry in a fraction of the bytes.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import hmac
import json
import pickle
import tracemalloc
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billing import BillingBackend, LedgerEntry, QuotaExceededError, QuotaGrant, UsageLedger
from repro.billing.metering import entry_payload
from repro.faults import CheckpointStore

KEY = b"device-key"
MODELS = ("vision", "audio")


class ListLedger(UsageLedger):
    """The retired storage: a list of ``LedgerEntry`` objects (the oracle).

    Grants, quota selection and ``record_batch``'s spill across grants are
    the ledger's own; everything that touches the chain is the list code
    the columns replaced."""

    entries = None  # shadows the columnar view with the instance's list

    def __init__(self, device_id, device_key):
        super().__init__(device_id, device_key)
        self.entries = []

    def _mac(self, key, entry, prev_mac):
        payload = entry_payload(entry.index, entry.grant_id, entry.model_name, entry.timestamp, prev_mac, entry.count)
        return hmac.new(key, payload, hashlib.sha256).hexdigest()

    def _append_entry(self, grant_id, model_name, timestamp, count):
        self._clock += float(count)
        ts = timestamp if timestamp is not None else self._clock
        prev_mac = self.head_mac()
        index = len(self.entries)
        mac = hmac.new(self._key, entry_payload(index, grant_id, model_name, ts, prev_mac, count),
                       hashlib.sha256).hexdigest()
        self.entries.append(LedgerEntry(index, grant_id, model_name, ts, prev_mac, mac, count))
        self._used_per_grant[grant_id] += count

    def used(self, model_name=None):
        return sum(e.count for e in self.entries if model_name is None or e.model_name == model_name)

    def head_mac(self):
        return self.entries[-1].mac if self.entries else self.GENESIS

    def export_segment(self, start):
        if not 0 <= start <= len(self.entries):
            raise ValueError(f"segment start {start} outside chain of length {len(self.entries)}")
        return list(self.entries[start:])

    def append_segment(self, entries):
        entries = list(entries)
        prev_mac, index = self.head_mac(), len(self.entries)
        for entry in entries:
            if entry.index != index or entry.prev_mac != prev_mac:
                raise ValueError(f"segment entry {entry.index} does not extend the chain")
            if not hmac.compare_digest(self._mac(self._key, entry, prev_mac), entry.mac):
                raise ValueError(f"segment entry {entry.index} has an invalid MAC")
            if entry.grant_id not in self.grants:
                raise ValueError(f"segment entry {entry.index} consumes unknown grant")
            prev_mac, index = entry.mac, index + 1
        for entry in entries:
            self.entries.append(entry)
            self._used_per_grant[entry.grant_id] += entry.count
            self._clock += float(entry.count)
        return len(entries)

    def verify_chain(self, key=None):
        key = key if key is not None else self._key
        prev_mac = self.GENESIS
        for i, entry in enumerate(self.entries):
            if entry.index != i or entry.prev_mac != prev_mac:
                return False
            if not hmac.compare_digest(self._mac(key, entry, prev_mac), entry.mac):
                return False
            prev_mac = entry.mac
        return True

    def export(self):
        return {
            "device_id": self.device_id,
            "entries": [e.to_dict() for e in self.entries],
            "grants": {gid: dict(vars(g)) for gid, g in self.grants.items()},
        }


def _install(ledger, grants):
    for i, (model, quota) in enumerate(grants):
        ledger.add_grant(QuotaGrant.sign(f"g{i}", "dev-1", model, quota, b"backend"))
    return ledger


def _twins(grants):
    return _install(UsageLedger("dev-1", KEY), grants), _install(ListLedger("dev-1", KEY), grants)


def _call(fn, *args, **kwargs):
    """``("ok", repr(result))`` or ``("denied", None)``: comparable across twins."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except QuotaExceededError:
        return "denied", None


def assert_same_chain(ledger, oracle):
    # repr, not ==: it tells 5 from 5.0 and -0.0 from 0.0, and a NaN equals itself
    assert len(ledger.entries) == len(oracle.entries)
    assert repr(list(ledger.entries)) == repr(oracle.entries)
    assert json.dumps(ledger.export()) == json.dumps(oracle.export())  # key order too
    assert ledger.head_mac() == oracle.head_mac()
    for model in (None,) + MODELS:
        assert ledger.used(model) == oracle.used(model)
        assert ledger.remaining(model) == oracle.remaining(model)
    assert ledger._used_per_grant == oracle._used_per_grant and ledger._clock == oracle._clock
    assert ledger.verify_chain() and oracle.verify_chain()


models = st.sampled_from(MODELS)
timestamps = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**53), 2**53),
)
ops = st.one_of(
    st.tuples(st.just("query"), models, timestamps),
    st.tuples(st.just("batch"), models, st.integers(0, 14), timestamps, st.booleans()),
    st.tuples(st.just("merge"), st.lists(st.tuples(models, st.integers(0, 14)), max_size=4)),
)


@settings(max_examples=150, deadline=None)
@given(grants=st.lists(st.tuples(models, st.integers(0, 12)), min_size=1, max_size=4),
       script=st.lists(ops, max_size=10))
def test_columnar_ledger_matches_the_list_oracle(grants, script):
    ledger, oracle = _twins(grants)
    for op in script:
        if op[0] == "query":
            _, model, ts = op
            assert _call(ledger.record_query, model, timestamp=ts) == _call(oracle.record_query, model, timestamp=ts)
        elif op[0] == "batch":
            _, model, n, ts, partial = op
            assert _call(ledger.record_batch, model, n, ts, partial) == _call(oracle.record_batch, model, n, ts, partial)
        else:  # a window metered on a worker's head and merged back, as the sharded engine does
            head = ledger.fork_head()
            for model, n in op[1]:
                head.record_batch(model, n)
            segment = pickle.loads(pickle.dumps(head.export_segment(0)))
            assert all(type(entry) is LedgerEntry for entry in segment)
            assert ledger.append_segment(segment) == oracle.append_segment(segment) == len(segment)
        assert_same_chain(ledger, oracle)
    for start in range(len(oracle.entries) + 1):
        assert repr(ledger.export_segment(start)) == repr(oracle.export_segment(start))

    # persisted as to_dict records and restored through append_segment
    records = json.loads(json.dumps([entry.to_dict() for entry in ledger.export_segment(0)]))
    restored, restored_oracle = _twins(grants)
    segment = [LedgerEntry.from_dict(record) for record in records]
    assert restored.append_segment(segment) == restored_oracle.append_segment(segment)
    assert json.dumps(restored.export()) == json.dumps(ledger.export())
    assert_same_chain(restored, restored_oracle)


def _remac(segment):
    """``segment`` re-chained with the device key from its first ``prev_mac``:
    what a key-holding device can forge for any fields it likes."""
    forged, head = [], segment[0].prev_mac
    for entry in segment:
        payload = entry_payload(entry.index, entry.grant_id, entry.model_name, entry.timestamp, head, entry.count)
        forged.append(dataclasses.replace(entry, prev_mac=head, mac=hmac.new(KEY, payload, hashlib.sha256).hexdigest()))
        head = forged[-1].mac
    return forged


tampers = st.one_of(
    st.tuples(st.just("honest")),
    st.tuples(st.just("rewrite count"), st.integers(0, 99), st.integers(1, 5)),
    st.tuples(st.just("re-MAC count"), st.integers(0, 99), st.integers(-3, 15)),  # zero, negative, over quota
    st.tuples(st.just("reorder"), st.integers(0, 99)),
    st.tuples(st.just("truncate"), st.integers(0, 99), st.booleans()),
    st.tuples(st.just("non-ASCII MAC"), st.integers(0, 99)),
)


def _tamper(segment, move):
    """``segment`` after one tamper move, at the entry a drawn number picks."""
    if not segment or move[0] == "honest":
        return segment
    i = move[1] % len(segment)
    if move[0] == "rewrite count":
        return segment[:i] + [dataclasses.replace(segment[i], count=segment[i].count + move[2])] + segment[i + 1:]
    if move[0] == "re-MAC count":
        return _remac(segment[:i] + [dataclasses.replace(segment[i], count=move[2])] + segment[i + 1:])
    if move[0] == "reorder":  # a rotation: the identity on a one-entry segment
        return segment[i + 1:] + segment[:i + 1]
    if move[0] == "truncate":  # a dropped tail leaves an honest prefix; a dropped head breaks the chain
        return segment[:i] if move[2] else segment[i + 1:]
    return segment[:i] + [dataclasses.replace(segment[i], mac="\u00e9" * 64)] + segment[i + 1:]


@settings(max_examples=200, deadline=None)
@given(grants=st.lists(st.tuples(models, st.integers(1, 12)), min_size=1, max_size=4),
       script=st.lists(ops, max_size=5),
       window=st.lists(st.tuples(models, st.integers(1, 14)), min_size=1, max_size=4),
       move=tampers)
def test_merge_accepts_exactly_what_a_fresh_backend_accepts(grants, script, window, move):
    ledger = _install(UsageLedger("dev-1", KEY), grants)
    for op in script:  # the oracle suite's scripts, metered honestly
        if op[0] == "query":
            _call(ledger.record_query, op[1], timestamp=op[2])
        elif op[0] == "batch":
            _call(ledger.record_batch, *op[1:])
        else:
            head = ledger.fork_head()
            for model, n in op[1]:
                head.record_batch(model, n)
            ledger.append_segment(head.export_segment(0))
    head = ledger.fork_head()
    for model, n in window:
        head.record_batch(model, n)
    segment = _tamper(head.export_segment(0), move)

    backend = BillingBackend()
    backend.device_keys["dev-1"] = KEY
    backend.issued_grants.update(ledger.grants)
    merged = ledger.export()
    merged["entries"] += [entry.to_dict() for entry in segment]
    verdict = backend.reconcile(merged)

    before = pickle.dumps(ledger)
    try:
        ledger.append_segment(segment)
    except ValueError:
        assert not verdict.accepted, verdict
        assert pickle.dumps(ledger) == before  # refused whole
    else:
        assert verdict.accepted, verdict.issues
        assert json.dumps(ledger.export()) == json.dumps(merged) and ledger.verify_chain()


def test_int_timestamp_survives_persistence():
    # An int timestamp used to be MACed as `"timestamp": 5`, and from_dict
    # hands it back as 5.0: the persisted segment could never be restored.
    ledger = _install(UsageLedger("dev-1", KEY), [("vision", 50)])
    ledger.record_query("vision", timestamp=5)
    ledger.record_batch("vision", 3, timestamp=7)
    store = CheckpointStore()
    store.put_ledger_segments("round-0", {"dev-1": ledger.export_segment(0)})
    (_, segments), = store.iter_ledger_segments()
    restored = _install(UsageLedger("dev-1", KEY), [("vision", 50)])
    assert restored.append_segment(segments["dev-1"]) == 2
    assert restored.verify_chain() and restored.export() == ledger.export()
    assert [type(entry.timestamp) for entry in ledger.entries] == [float, float]


def test_entries_is_a_read_only_view_built_on_access():
    ledger = _install(UsageLedger("dev-1", KEY), [("vision", 5), ("audio", 9), ("vision", 50)])
    entries = ledger.entries
    assert isinstance(entries, Sequence) and len(entries) == 0 and entries == []
    ledger.record_query("vision")
    ledger.record_batch("vision", 4)
    ledger.record_batch("audio", 2, timestamp=0.5)
    assert len(entries) == 3  # live: the view reads the columns it was made over
    listed = list(entries)
    assert [e.index for e in listed] == [0, 1, 2] and [e.count for e in listed] == [1, 4, 2]
    assert listed[0].prev_mac == UsageLedger.GENESIS
    assert [e.prev_mac for e in listed[1:]] == [e.mac for e in listed[:-1]]
    assert listed[-1].mac == ledger.head_mac()
    assert entries[-1] == entries[2] == listed[2] and entries[-3] == listed[0]
    assert entries[1:] == listed[1:] and entries[::-2] == listed[::-2] and entries[5:1] == []
    assert entries == listed and entries == ledger.entries and entries != listed[:2]
    assert entries.index(listed[1]) == 1 and listed[2] in entries
    for bad in (3, -4):
        with pytest.raises(IndexError):
            entries[bad]
    with pytest.raises(TypeError):
        entries[0] = listed[1]
    with pytest.raises(TypeError):
        del entries[0]
    with pytest.raises(AttributeError):
        ledger.entries = []


def test_metering_retains_at_most_64_bytes_per_entry():
    # A count, not a timing: 32 B of MAC row + 8 + 8 + 4 B of cells, plus the
    # arrays' over-allocation.  The list of LedgerEntry objects held ~233.
    ledgers = [_install(UsageLedger("dev-1", KEY), [("vision", 10**9)]) for _ in range(50)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(400):
            for ledger in ledgers:
                ledger.record_batch("vision", 3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(len(ledger.entries) for ledger in ledgers) == 20_000
    assert retained / 20_000 <= 64
