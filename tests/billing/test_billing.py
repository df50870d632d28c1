"""Tests for quota grants, the tamper-evident usage ledger and reconciliation."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.billing import (
    BillingBackend,
    PricingPlan,
    QuotaExceededError,
    QuotaGrant,
    UsageLedger,
)
from repro.persist import canonical_json


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
        entry = ledger.entries[5]
        ledger.entries[5] = type(entry)(
            index=entry.index,
            grant_id=entry.grant_id,
            model_name="other-model",
            timestamp=entry.timestamp,
            prev_mac=entry.prev_mac,
            mac=entry.mac,
        )
        assert not ledger.verify_chain()

    def test_deleting_an_entry_breaks_chain(self, backend_and_ledger):
        _, ledger = backend_and_ledger
        for _ in range(20):
            ledger.record_query("vision")
        del ledger.entries[3]
        assert not ledger.verify_chain()

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
        forged = UsageLedger("dev-1", backend.device_keys["dev-1"])
        mac = forged._next_mac(0, "grant-999999", "vision", 1.0, UsageLedger.GENESIS)
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
        cheat = UsageLedger("dev-1", key)
        cheat.grants = dict(ledger.grants)
        cheat._used_per_grant = {grant_id: 0}
        entries = []
        prev = UsageLedger.GENESIS
        for i in range(60):  # grant only covers 50
            mac = cheat._next_mac(i, grant_id, "vision", float(i), prev)
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
        cheat = UsageLedger("dev-1", backend.device_keys["dev-1"])
        mac = cheat._next_mac(0, grant_id, "vision", 1.0, UsageLedger.GENESIS, count=500)
        entries = [{"index": 0, "grant_id": grant_id, "model_name": "vision", "timestamp": 1.0, "prev_mac": UsageLedger.GENESIS, "mac": mac, "count": 500}]
        result = backend.reconcile({"device_id": "dev-1", "entries": entries, "grants": {}})
        assert not result.accepted and any("over-used" in i for i in result.issues)

    def test_nonpositive_count_rejected_even_with_valid_mac(self, backend_and_ledger):
        backend, ledger = backend_and_ledger
        cheat = UsageLedger("dev-1", backend.device_keys["dev-1"])
        grant_id = next(iter(ledger.grants))
        mac = cheat._next_mac(0, grant_id, "vision", 1.0, UsageLedger.GENESIS, count=0)
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
        cheat = UsageLedger("dev-1", key)
        mac0 = cheat._next_mac(0, grant_id, "vision", 1.0, UsageLedger.GENESIS, count=40)
        mac1 = cheat._next_mac(1, grant_id, "vision", 2.0, mac0, count=1)
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
        cheat = UsageLedger("dev-1", key)
        mac0 = cheat._next_mac(0, grant_id, "vision", 1.0, UsageLedger.GENESIS, count=5)
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
