"""``entry_payload`` is ``json.dumps(body, sort_keys=True)`` byte-for-byte.

Every ledger MAC — ``record_batch`` / ``record_query``, ``verify_chain``,
``append_segment`` and ``BillingBackend.reconcile`` — covers these bytes, so
the template that builds them for the common argument types must never
differ from the ``json.dumps`` body it replaced.  That body lives on here as
the oracle (``json_payload``; bench_e5's payload guardrail imports it).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billing import LedgerEntry, LedgerHead, QuotaGrant, UsageLedger, metering
from repro.billing.metering import entry_payload


def json_payload(index, grant_id, model_name, timestamp, prev_mac, count=1) -> bytes:
    """The retired ``entry_payload`` body: the spec the template must match."""
    body = {
        "index": index,
        "grant_id": grant_id,
        "model_name": model_name,
        "timestamp": timestamp,
        "prev_mac": prev_mac,
    }
    if count != 1:
        body["count"] = count
    return json.dumps(body, sort_keys=True).encode()


class _Str(str):
    pass


indices = st.one_of(
    st.integers(),
    st.integers(max_value=-1),
    st.integers(min_value=2**63, max_value=2**200),
    st.sampled_from([0, 1, -1, 2**63 - 1, 2**63, -(2**63)]),
)
_chars = st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x08\x1f\x7f\x80 é\U0001f600'),
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
)
texts = st.text(_chars, max_size=12)
ids = st.one_of(texts, texts.map(_Str), st.integers(), st.none())
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1e22, 0.1, 2.0**53 + 1,
                     float("nan"), float("inf"), float("-inf")]),
)
timestamps = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(),
    st.booleans(),
    texts,
)
counts = st.one_of(st.sampled_from([1, 0, -1, 2**70, True, False]), st.integers())


@settings(max_examples=300, deadline=None)
@given(index=indices, grant_id=ids, model_name=ids, timestamp=timestamps, prev_mac=ids, count=counts)
def test_payload_is_json_dumps_byte_for_byte(index, grant_id, model_name, timestamp, prev_mac, count):
    args = (index, grant_id, model_name, timestamp, prev_mac, count)
    assert entry_payload(*args) == json_payload(*args)


@settings(max_examples=200, deadline=None)
@given(index=indices, grant_id=texts, model_name=texts, timestamp=floats, prev_mac=texts, count=counts)
def test_template_types_match_json_dumps(index, grant_id, model_name, timestamp, prev_mac, count):
    assert entry_payload(index, grant_id, model_name, timestamp, prev_mac) == json_payload(
        index, grant_id, model_name, timestamp, prev_mac
    )
    assert entry_payload(index, grant_id, model_name, timestamp, prev_mac, count) == json_payload(
        index, grant_id, model_name, timestamp, prev_mac, count
    )


def test_numpy_ints_fall_back_and_fail_like_json_dumps():
    for args in ((np.int64(3), "g", "m", 1.0, "p", 2), (3, "g", "m", 1.0, "p", np.int64(2))):
        with pytest.raises(TypeError):
            json_payload(*args)
        with pytest.raises(TypeError):
            entry_payload(*args)


def test_template_serves_the_common_types_and_json_dumps_the_rest(monkeypatch):
    fallback = [
        (1, "g", "m", 2.5, "p", True),  # bool count
        (True, "g", "m", 2.5, "p", 2),  # bool index
        (1, "g", "m", 3, "p", 2),  # int timestamp
        (1, "g", "m", "3", "p", 2),  # str timestamp
        (1, "g", "m", np.float64(2.5), "p", 2),
        (1, "g", "m", float("nan"), "p", 2),
        (1, "g", "m", float("-inf"), "p", 2),
        (1, _Str("g"), "m", 2.5, "p", 2),
        (1, "g", None, 2.5, "p", 2),
    ]
    expected = [json_payload(*args) for args in fallback]
    common = (7, "grant-000001", "vision", 12.0, "0" * 64, 5)
    expected_common = json_payload(*common)

    def json_is_off(*args, **kwargs):
        raise AssertionError("json.dumps on the template path")

    monkeypatch.setattr(metering, "json", SimpleNamespace(dumps=json_is_off))
    assert entry_payload(*common) == expected_common
    assert entry_payload(*common[:5]) == json_payload(*common[:5])
    for args in fallback:
        with pytest.raises(AssertionError, match="json.dumps on the template path"):
            entry_payload(*args)
    monkeypatch.undo()
    assert [entry_payload(*args) for args in fallback] == expected


def _metered_ledger() -> UsageLedger:
    ledger = UsageLedger("dev-1", b"device-key")
    ledger.add_grant(QuotaGrant.sign("g0", "dev-1", "vision", 5, b"backend"))
    ledger.add_grant(QuotaGrant.sign("g1", "dev-1", "vision", 50, b"backend"))
    ledger.record_query("vision")
    ledger.record_batch("vision", 7)
    return ledger


def test_slotted_entry_survives_pickle_and_deepcopy():
    entry = _metered_ledger().entries[1]
    assert not hasattr(entry, "__dict__")
    clones = [pickle.loads(pickle.dumps(entry, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.deepcopy(entry), copy.copy(entry)]:
        assert type(clone) is LedgerEntry and clone == entry
        assert dataclasses.astuple(clone) == dataclasses.astuple(entry)
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.count = 1
    assert LedgerEntry.from_dict(entry.to_dict()) == entry


def test_metered_head_survives_pickle_and_deepcopy():
    ledger = _metered_ledger()
    head = ledger.fork_head()
    head.record_batch("vision", 3)
    head.record_batch("vision", 40)
    segment = head.export_segment(0)
    assert len(segment) == 2
    for clone in (pickle.loads(pickle.dumps(head)), copy.deepcopy(head)):
        assert type(clone) is LedgerHead
        assert clone.export_segment(0) == segment and clone.head_mac() == head.head_mac()
        assert clone.remaining() == head.remaining()
        target = copy.deepcopy(ledger)
        assert target.append_segment(clone.export_segment(0)) == 2
        assert target.verify_chain() and target.head_mac() == head.head_mac()
    shipped = pickle.loads(pickle.dumps(segment))  # what a sharded worker returns
    assert ledger.append_segment(shipped) == 2 and ledger.verify_chain()
