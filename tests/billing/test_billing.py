"""Tests for quota grants, the tamper-evident usage ledger and reconciliation."""

from __future__ import annotations

import dataclasses
import hashlib
import hmac

import numpy as np
import pytest

from repro.billing import (
    BillingBackend,
    LedgerEntry,
    PricingPlan,
    QuotaExceededError,
    QuotaGrant,
    UsageLedger,
)
from repro.billing import backend as billing_backend
from repro.billing import metering
from repro.billing.metering import entry_payload
from repro.persist import canonical_json


def _forge_mac(key, index, grant_id, model_name, timestamp, prev_mac, count=1):
    """The MAC a key-holding device would write for an entry of its choice."""
    return hmac.new(key, entry_payload(index, grant_id, model_name, timestamp, prev_mac, count), hashlib.sha256).hexdigest()


@pytest.fixture()
def backend_and_ledger():
    backend = BillingBackend()
    backend.register_plan(PricingPlan("vision", price_per_query=0.0015))
    key = backend.enroll_device("dev-1")
    ledger = UsageLedger("dev-1", key)
    grant = backend.sell_package("dev-1", "vision", 50)
    ledger.add_grant(grant, backend_key=backend.signing_key())
    return backend, ledger


class TestPricingAndGrants:
    def test_package_price_matches_example(self):
        plan = PricingPlan("vision", price_per_query=0.0015)
        assert plan.package_price(1000) == pytest.approx(1.5)

    def test_grant_signature_verifies(self):
        backend = BillingBackend()
        backend.register_plan(PricingPlan("vision"))
        backend.enroll_device("dev-1")
        grant = backend.sell_package("dev-1", "vision", 10)
        assert grant.verify(backend.signing_key())
        forged = QuotaGrant(grant.grant_id, grant.device_id, grant.model_name, 10**6, grant.signature)
        assert not forged.verify(backend.signing_key())

    def test_signing_key_is_derived_once_from_the_master_key(self, monkeypatch):
        # The grant-signing key is HMAC(master, "grant-signing"), derived when
        # the backend is built: selling grants runs no further derivation.
        master = b"a-test-master-key"
        backend = BillingBackend(master_key=master)
        assert backend.signing_key() == hmac.new(master, b"grant-signing", hashlib.sha256).digest()
        assert BillingBackend().signing_key() == hmac.new(
            b"tinymlops-billing-master", b"grant-signing", hashlib.sha256
        ).digest()
        backend.register_plan(PricingPlan("vision"))
        backend.enroll_device("dev-1")
        messages = []
        real_new = hmac.new

        def new(key, msg=None, digestmod=""):
            messages.append(msg)
            return real_new(key, msg, digestmod)

        monkeypatch.setattr(hmac, "new", new)
        grants = [backend.sell_package("dev-1", "vision", 10) for _ in range(3)]
        assert len(messages) == 3 and b"grant-signing" not in messages  # one grant MAC each
        assert all(g.verify(backend.signing_key()) for g in grants)

    def test_selling_requires_enrollment_and_plan(self):
        backend = BillingBackend()
        backend.register_plan(PricingPlan("vision"))
        with pytest.raises(KeyError):
            backend.sell_package("ghost", "vision", 10)
        backend.enroll_device("dev-1")
        with pytest.raises(KeyError):
            backend.sell_package("dev-1", "unknown-model", 10)

    def test_grant_for_other_device_rejected(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        backend.enroll_device("dev-2")
        foreign = backend.sell_package("dev-2", "vision", 10)
        with pytest.raises(ValueError):
            ledger.add_grant(foreign)


class TestUsageLedger:
    def test_quota_enforced_offline(self, backend_and_ledger):
        _, ledger = backend_and_ledger
        for _ in range(50):
            ledger.record_query("vision")
        with pytest.raises(QuotaExceededError):
            ledger.record_query("vision")
        assert ledger.used("vision") == 50
        assert ledger.remaining("vision") == 0

    def test_chain_verifies_when_untouched(self, backend_and_ledger):
        _, ledger = backend_and_ledger
        for _ in range(20):
            ledger.record_query("vision")
        assert ledger.verify_chain()

    def test_editing_an_entry_breaks_chain(self, backend_and_ledger):
        _, ledger = backend_and_ledger
        for _ in range(20):
            ledger.record_query("vision")
        grant_id = ledger.entries[5].grant_id
        ledger._pair_ids[5] = ledger._intern(grant_id, "other-model")  # the stored model of entry 5
        assert not ledger.verify_chain()

    def test_deleting_an_entry_breaks_chain(self, backend_and_ledger):
        _, ledger = backend_and_ledger
        for _ in range(20):
            ledger.record_query("vision")
        row = slice(3 * 32, 4 * 32)  # entry 3's raw MAC row
        del ledger._macs[row], ledger._timestamps[3], ledger._counts[3], ledger._pair_ids[3]
        assert not ledger.verify_chain()

    def test_flipped_mac_byte_breaks_chain_and_reconcile(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        for _ in range(20):
            ledger.record_query("vision")
        ledger.record_batch("vision", 5)
        ledger._macs[7 * 32 + 11] ^= 0x01  # one byte of entry 7's stored MAC
        assert not ledger.verify_chain()
        result = backend.reconcile(ledger.export())
        assert not result.accepted and any("MAC chain broken at entry 7" in i for i in result.issues)

    def test_wrong_key_fails_verification(self, backend_and_ledger):
        _, ledger = backend_and_ledger
        ledger.record_query("vision")
        assert not ledger.verify_chain(key=b"wrong-key")

    def test_multiple_grants_consumed_in_order(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        second = backend.sell_package("dev-1", "vision", 10)
        ledger.add_grant(second, backend_key=backend.signing_key())
        for _ in range(55):
            ledger.record_query("vision")
        assert ledger.remaining("vision") == 5


class TestReconciliation:
    def test_honest_ledger_accepted_and_billed(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        for _ in range(30):
            ledger.record_query("vision")
        result = backend.reconcile(ledger.export())
        assert result.accepted
        assert result.billed_amount == pytest.approx(30 * 0.0015)
        report = backend.usage_report()
        assert report["total_synced_queries"] == 30 and report["n_rejected"] == 0

    def test_incremental_sync_only_bills_new_entries(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        for _ in range(10):
            ledger.record_query("vision")
        backend.reconcile(ledger.export())
        for _ in range(5):
            ledger.record_query("vision")
        second = backend.reconcile(ledger.export())
        assert second.n_new_entries == 5
        assert second.billed_amount == pytest.approx(5 * 0.0015)

    def test_tampered_mac_rejected(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        for _ in range(10):
            ledger.record_query("vision")
        export = ledger.export()
        export["entries"][4]["model_name"] = "free-model"
        result = backend.reconcile(export)
        assert not result.accepted and any("MAC" in i for i in result.issues)

    def test_rollback_detected(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        for _ in range(20):
            ledger.record_query("vision")
        backend.reconcile(ledger.export())
        truncated = ledger.export()
        truncated["entries"] = truncated["entries"][:5]
        result = backend.reconcile(truncated)
        assert not result.accepted and any("rollback" in i for i in result.issues)

    def test_unenrolled_device_rejected(self):
        backend = BillingBackend()
        result = backend.reconcile({"device_id": "stranger", "entries": []})
        assert not result.accepted

    def test_foreign_grant_flagged(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        ledger.record_query("vision")
        export = ledger.export()
        export["entries"][0]["grant_id"] = "grant-999999"
        # Recompute a fresh, internally consistent chain with the forged grant
        # using the device key (simulating a malicious but key-holding device).
        mac = _forge_mac(backend.device_keys["dev-1"], 0, "grant-999999", "vision", 1.0, UsageLedger.GENESIS)
        export["entries"] = [
            {"index": 0, "grant_id": "grant-999999", "model_name": "vision", "timestamp": 1.0, "prev_mac": UsageLedger.GENESIS, "mac": mac}
        ]
        result = backend.reconcile(export)
        assert not result.accepted and any("unknown or foreign grant" in i for i in result.issues)

    def test_overuse_flagged(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        # Rebuild a ledger that claims more queries than granted by writing
        # entries directly with the device key.
        key = backend.device_keys["dev-1"]
        grant_id = next(iter(ledger.grants))
        entries = []
        prev = UsageLedger.GENESIS
        for i in range(60):  # grant only covers 50
            mac = _forge_mac(key, i, grant_id, "vision", float(i), prev)
            entries.append({"index": i, "grant_id": grant_id, "model_name": "vision", "timestamp": float(i), "prev_mac": prev, "mac": mac})
            prev = mac
        result = backend.reconcile({"device_id": "dev-1", "entries": entries, "grants": {}})
        assert not result.accepted and any("over-used" in i for i in result.issues)


class TestBatchMetering:
    def test_batch_spans_grants_with_aggregated_entries(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        ledger.add_grant(backend.sell_package("dev-1", "vision", 10), backend_key=backend.signing_key())
        granted = ledger.record_batch("vision", 55)
        assert granted == 55
        # One aggregated entry per consumed grant, not one per query.
        assert len(ledger.entries) == 2
        assert [e.count for e in ledger.entries] == [50, 5]
        assert ledger.used("vision") == 55 and ledger.remaining("vision") == 5
        assert ledger.verify_chain()

    def test_partial_batch_truncates_to_quota(self, backend_and_ledger):
        _, ledger = backend_and_ledger
        assert ledger.record_batch("vision", 80) == 50
        assert ledger.record_batch("vision", 10) == 0
        with pytest.raises(QuotaExceededError):
            ledger.record_query("vision")

    def test_strict_batch_raises_without_consuming(self, backend_and_ledger):
        _, ledger = backend_and_ledger
        with pytest.raises(QuotaExceededError):
            ledger.record_batch("vision", 80, partial=False)
        assert ledger.used("vision") == 0 and ledger.remaining("vision") == 50

    def test_batch_equivalent_to_query_loop(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        twin_key = backend.enroll_device("dev-2")
        backend.register_plan(PricingPlan("vision", price_per_query=0.0015))
        twin = UsageLedger("dev-2", twin_key)
        twin.add_grant(backend.sell_package("dev-2", "vision", 50), backend_key=backend.signing_key())
        assert ledger.record_batch("vision", 30) == 30
        for _ in range(30):
            twin.record_query("vision")
        assert ledger.used("vision") == twin.used("vision")
        assert ledger.remaining("vision") == twin.remaining("vision")
        batch_bill = backend.reconcile(ledger.export())
        loop_bill = backend.reconcile(twin.export())
        assert batch_bill.accepted and loop_bill.accepted
        assert batch_bill.billed_amount == loop_bill.billed_amount == pytest.approx(30 * 0.0015)
        assert batch_bill.n_new_queries == loop_bill.n_new_queries == 30

    def test_mixed_single_and_batch_entries_chain_and_reconcile(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        ledger.record_query("vision")
        ledger.record_batch("vision", 20)
        ledger.record_query("vision")
        assert ledger.used("vision") == 22
        assert ledger.verify_chain()
        result = backend.reconcile(ledger.export())
        assert result.accepted
        assert result.billed_amount == pytest.approx(22 * 0.0015)
        report = backend.usage_report()
        assert report["total_synced_queries"] == 22

    def test_tampered_count_breaks_chain(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        ledger.record_batch("vision", 25)
        export = ledger.export()
        export["entries"][0]["count"] = 1  # claim fewer queries than metered
        result = backend.reconcile(export)
        assert not result.accepted and any("MAC" in i for i in result.issues)

    def test_forged_batch_overuse_flagged(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        # A key-holding device forges one batch entry claiming more queries
        # than the grant covers: the chain verifies but over-use is flagged.
        grant_id = next(iter(ledger.grants))
        mac = _forge_mac(backend.device_keys["dev-1"], 0, grant_id, "vision", 1.0, UsageLedger.GENESIS, count=500)
        entries = [{"index": 0, "grant_id": grant_id, "model_name": "vision", "timestamp": 1.0, "prev_mac": UsageLedger.GENESIS, "mac": mac, "count": 500}]
        result = backend.reconcile({"device_id": "dev-1", "entries": entries, "grants": {}})
        assert not result.accepted and any("over-used" in i for i in result.issues)

    def test_nonpositive_count_rejected_even_with_valid_mac(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        grant_id = next(iter(ledger.grants))
        mac = _forge_mac(backend.device_keys["dev-1"], 0, grant_id, "vision", 1.0, UsageLedger.GENESIS, count=0)
        entries = [{"index": 0, "grant_id": grant_id, "model_name": "vision", "timestamp": 1.0, "prev_mac": UsageLedger.GENESIS, "mac": mac, "count": 0}]
        result = backend.reconcile({"device_id": "dev-1", "entries": entries, "grants": {}})
        assert not result.accepted

    def test_invalid_batch_sizes(self, backend_and_ledger):
        _, ledger = backend_and_ledger
        with pytest.raises(ValueError):
            ledger.record_batch("vision", -1)
        assert ledger.record_batch("vision", 0) == 0
        assert ledger.used("vision") == 0

    def test_rewritten_synced_count_cannot_dodge_billing(self, backend_and_ledger):
        # A key-holding device syncs a batch entry, then re-MACs its history
        # to inflate the already-billed entry's count while appending little:
        # billing works on per-model query-count deltas, so the smuggled
        # queries are billed anyway.
        backend, ledger = backend_and_ledger
        ledger.record_batch("vision", 10)
        first = backend.reconcile(ledger.export())
        assert first.accepted and first.n_new_queries == 10
        key = backend.device_keys["dev-1"]
        grant_id = next(iter(ledger.grants))
        mac0 = _forge_mac(key, 0, grant_id, "vision", 1.0, UsageLedger.GENESIS, count=40)
        mac1 = _forge_mac(key, 1, grant_id, "vision", 2.0, mac0, count=1)
        entries = [
            {"index": 0, "grant_id": grant_id, "model_name": "vision", "timestamp": 1.0, "prev_mac": UsageLedger.GENESIS, "mac": mac0, "count": 40},
            {"index": 1, "grant_id": grant_id, "model_name": "vision", "timestamp": 2.0, "prev_mac": mac0, "mac": mac1, "count": 1},
        ]
        second = backend.reconcile({"device_id": "dev-1", "entries": entries, "grants": {}})
        assert second.accepted
        assert second.n_new_queries == 31  # 41 total - 10 previously synced
        assert second.billed_amount == pytest.approx(31 * 0.0015)

    def test_shrunken_query_total_detected_as_rollback(self, backend_and_ledger):
        # Shrinking an already-synced entry's count (re-MACed with the
        # device key, entry count unchanged) is caught by the per-model
        # query-total monotonicity check.
        backend, ledger = backend_and_ledger
        ledger.record_batch("vision", 30)
        assert backend.reconcile(ledger.export()).accepted
        key = backend.device_keys["dev-1"]
        grant_id = next(iter(ledger.grants))
        mac0 = _forge_mac(key, 0, grant_id, "vision", 1.0, UsageLedger.GENESIS, count=5)
        entries = [{"index": 0, "grant_id": grant_id, "model_name": "vision", "timestamp": 1.0, "prev_mac": UsageLedger.GENESIS, "mac": mac0, "count": 5}]
        result = backend.reconcile({"device_id": "dev-1", "entries": entries, "grants": {}})
        assert not result.accepted and any("rollback" in i for i in result.issues)

    def test_export_is_a_copy_of_the_ledger(self, backend_and_ledger):
        # An export is an upload payload: editing one (as every tamper test
        # here does) must never reach the device's own chain or quota.
        backend, ledger = backend_and_ledger
        ledger.record_query("vision")
        ledger.record_batch("vision", 4)
        ledger.record_query("vision", timestamp=0.1)
        entries = [dataclasses.astuple(e) for e in ledger.entries]
        grants = [dataclasses.astuple(g) for g in ledger.grants.values()]
        head, remaining = ledger.head_mac(), ledger.remaining()
        export = ledger.export()
        # Recorded before export() stopped handing out the entries' own dicts.
        assert hashlib.sha256(canonical_json(export)).hexdigest() == (
            "0684b2cb1e871b09aaaa2e0085544d86491585f6b4b457b5440f5351e0922ebc"
        )
        for raw in list(export["entries"]) + list(export["grants"].values()):
            for key in raw:
                raw[key] = 999_999 if isinstance(raw[key], int) else "tampered"
        assert [dataclasses.astuple(e) for e in ledger.entries] == entries
        assert [dataclasses.astuple(g) for g in ledger.grants.values()] == grants
        assert ledger.verify_chain()
        assert ledger.remaining() == remaining == 44
        assert ledger.head_mac() == head
        assert backend.reconcile(ledger.export()).accepted


def _state(ledger):
    """All a merge may change: the chain columns, quota, head MAC and clock."""
    return (bytes(ledger._macs), ledger._timestamps.tobytes(), ledger._counts.tobytes(), ledger._pair_ids.tobytes(),
            dict(ledger._used_per_grant), ledger.remaining(), ledger.head_mac(), ledger._clock)


def _metered(quota, used):
    backend = BillingBackend()
    backend.register_plan(PricingPlan("vision"))
    ledger = UsageLedger("dev-1", backend.enroll_device("dev-1"))
    ledger.add_grant(backend.sell_package("dev-1", "vision", quota), backend_key=backend.signing_key())
    ledger.record_batch("vision", used)
    return backend, ledger


class TestSegmentMerge:
    """``append_segment`` refuses what ``reconcile`` refuses, and stores nothing when it does."""

    @pytest.mark.parametrize(
        "quota, used, count, issue",
        [
            (50, 50, -5, "MAC chain broken at entry 1"),  # would refund 5 queries
            (50, 10, 0, "MAC chain broken at entry 1"),
            (5, 0, 500, "grant grant-000001 over-used: 500 > 5"),
        ],
        ids=["negative-count", "zero-count", "over-use"],
    )
    def test_key_holder_forged_count_is_refused(self, quota, used, count, issue):
        backend, ledger = _metered(quota, used)
        index, head, grant_id = len(ledger.entries), ledger.head_mac(), next(iter(ledger.grants))
        mac = _forge_mac(ledger._key, index, grant_id, "vision", 9.0, head, count)
        forged = LedgerEntry(index, grant_id, "vision", 9.0, head, mac, count)
        before = _state(ledger)
        with pytest.raises(ValueError, match=f"segment entry {index}"):
            ledger.append_segment([forged])
        assert _state(ledger) == before and ledger.remaining() == quota - used
        assert ledger.verify_chain()
        merged = ledger.export()
        merged["entries"].append(forged.to_dict())
        result = backend.reconcile(merged)
        assert not result.accepted and result.issues == [issue]

    @pytest.mark.parametrize(
        "field, value",
        [("mac", "\u00e9" * 64), ("mac", b"0" * 64), ("mac", None), ("grant_id", object()),
         ("count", 2**70), ("count", 2.0), ("timestamp", "x")],
        ids=["non-ascii-mac", "bytes-mac", "none-mac", "unencodable-grant",
             "int64-overflow-count", "float-count", "str-timestamp"],
    )
    def test_malformed_entry_is_refused_not_raised(self, field, value):
        _, ledger = _metered(50, 4)
        head = ledger.fork_head()
        head.record_batch("vision", 2)
        head.record_query("vision")
        segment = head.export_segment(0)
        segment[1] = dataclasses.replace(segment[1], **{field: value})
        before = _state(ledger)
        with pytest.raises(ValueError, match="segment entry 2"):
            ledger.append_segment(segment)
        assert _state(ledger) == before


def _drop(field):
    return lambda entries: entries[3].pop(field)


def _set(field, value):
    return lambda entries: entries[3].__setitem__(field, value)


class TestMalformedUpload:
    @pytest.mark.parametrize(
        "tamper",
        [_drop(field) for field in ("index", "grant_id", "model_name", "timestamp", "prev_mac", "mac")]
        + [_set("mac", "\u00e9" * 64), _set("count", None), _set("timestamp", object()),
           lambda entries: entries.__setitem__(3, None)],
        ids=["no-index", "no-grant_id", "no-model_name", "no-timestamp", "no-prev_mac", "no-mac",
             "non-ascii-mac", "none-count", "unencodable-timestamp", "not-a-record"],
    )
    def test_malformed_entry_breaks_the_chain_there(self, backend_and_ledger, tamper):
        backend, ledger = backend_and_ledger
        for _ in range(3):
            ledger.record_query("vision")
        ledger.record_batch("vision", 4)
        ledger.record_query("vision")
        export = ledger.export()
        tamper(export["entries"])
        result = backend.reconcile(export)
        assert not result.accepted and result.issues == ["MAC chain broken at entry 3"]
        assert result.n_entries == 5 and backend.synced_counts == {}


class TestChainKernel:
    """The chain rules have one implementation: ``verify_chain``,
    ``append_segment`` and ``reconcile`` each make one ``verify_rows`` call,
    which builds one ``entry_payload`` per entry — the guard against a
    verifier growing its own loop (and its own rules) back."""

    def test_every_verifier_runs_the_one_kernel(self, backend_and_ledger, counted):
        backend, ledger = backend_and_ledger
        for _ in range(4):
            ledger.record_query("vision")
        ledger.record_batch("vision", 7)
        head = ledger.fork_head()
        head.record_batch("vision", 3)
        head.record_query("vision")
        segment = head.export_segment(0)
        count, calls = counted
        count(metering, "verify_rows")
        count(billing_backend, "verify_rows")  # bound there by name at import
        count(metering, "entry_payload")
        for verify, n_entries in (
            (ledger.verify_chain, 5),
            (lambda: ledger.append_segment(segment), 2),
            (lambda: backend.reconcile(ledger.export()).accepted, 7),
        ):
            calls.update(dict.fromkeys(calls, 0))
            assert verify()
            assert calls == {"verify_rows": 1, "entry_payload": n_entries}
