"""Backend side of the pay-per-query system: grants, reconciliation, revenue.

The :class:`BillingBackend` is the cloud counterpart of the on-device
:class:`~repro.billing.metering.UsageLedger`: it provisions per-device keys,
sells prepaid packages (issuing signed grants), and at sync time verifies the
uploaded ledger — detecting tampering (broken MAC chain), over-use (more
entries than granted), rollback/replay (fewer entries than previously seen)
— and accumulates revenue and usage reports.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Dict, List

from .metering import PricingPlan, QuotaGrant, UsageLedger, verify_rows

__all__ = ["ReconciliationResult", "BillingBackend"]


@dataclass
class ReconciliationResult:
    """Outcome of verifying one device's uploaded usage ledger."""

    device_id: str
    accepted: bool
    n_entries: int
    n_new_entries: int
    issues: List[str] = field(default_factory=list)
    billed_amount: float = 0.0
    n_new_queries: int = 0


class BillingBackend:
    """Issues quota grants and reconciles device usage ledgers."""

    def __init__(self, master_key: bytes = b"tinymlops-billing-master") -> None:
        self._master_key = bytes(master_key)
        self._signing_key = hmac.new(self._master_key, b"grant-signing", hashlib.sha256).digest()
        self.plans: Dict[str, PricingPlan] = {}
        self.device_keys: Dict[str, bytes] = {}
        self.issued_grants: Dict[str, QuotaGrant] = {}
        self.synced_counts: Dict[str, int] = {}
        # Per-device, per-model cumulative query totals at the last accepted
        # sync.  Billing works on deltas of these totals (not on entry
        # slices), so rewriting the count of an already-synced batch entry
        # cannot smuggle queries past metering.
        self.synced_queries: Dict[str, Dict[str, int]] = {}
        self.revenue: float = 0.0
        self.reconciliations: List[ReconciliationResult] = []
        self._grant_counter = 0

    # -- provisioning ------------------------------------------------------
    def register_plan(self, plan: PricingPlan) -> None:
        """Register the pricing plan of a model."""
        self.plans[plan.model_name] = plan

    def enroll_device(self, device_id: str) -> bytes:
        """Provision (derive) the per-device metering key."""
        key = hmac.new(self._master_key, f"device:{device_id}".encode(), hashlib.sha256).digest()
        self.device_keys[device_id] = key
        return key

    def signing_key(self) -> bytes:
        """Key used to sign quota grants (shared with devices for verification)."""
        return self._signing_key

    # -- sales --------------------------------------------------------------
    def sell_package(self, device_id: str, model_name: str, n_queries: int) -> QuotaGrant:
        """Sell a prepaid package: records revenue and returns the signed grant."""
        if device_id not in self.device_keys:
            raise KeyError(f"device {device_id!r} is not enrolled")
        plan = self.plans.get(model_name)
        if plan is None:
            raise KeyError(f"no pricing plan registered for model {model_name!r}")
        self._grant_counter += 1
        grant_id = f"grant-{self._grant_counter:06d}"
        grant = QuotaGrant.sign(grant_id, device_id, model_name, n_queries, self.signing_key())
        self.issued_grants[grant_id] = grant
        self.revenue += plan.package_price(n_queries)
        return grant

    # -- reconciliation ------------------------------------------------------
    def reconcile(self, ledger_export: Dict[str, object]) -> ReconciliationResult:
        """Verify an uploaded ledger export and account the usage.

        Checks performed:

        1. the chain verifies under the device's provisioned key by
           :func:`~repro.billing.metering.verify_rows` (an unreadable entry breaks it);
        2. every referenced grant was actually issued to this device;
        3. per-grant usage does not exceed the granted quota;
        4. neither the entry count nor any model's cumulative query count is
           lower than at the previous sync (rollback).

        New usage is billed on per-model query-count deltas relative to the
        previous accepted sync, so batch-entry counts cannot be rewritten to
        dodge metering.
        """
        device_id = str(ledger_export["device_id"])
        issues: List[str] = []
        entries_raw: List[Dict[str, object]] = list(ledger_export.get("entries", []))  # type: ignore[arg-type]
        key = self.device_keys.get(device_id)
        if key is None:
            issues.append("device not enrolled")
            result = ReconciliationResult(device_id, False, len(entries_raw), 0, issues)
            self.reconciliations.append(result)
            return result

        # 1. The chain rules.  Each entry is read once, into a row: classic
        # single-query records carry no "count" key.
        rows = []
        for raw in entries_raw:
            try:
                rows.append((raw["index"], str(raw["grant_id"]), str(raw["model_name"]), raw["timestamp"],
                             raw["prev_mac"], str(raw["mac"]), int(raw.get("count", 1))))
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
                break  # the chain breaks at the first entry that cannot be read
        broken = verify_rows(key, 0, UsageLedger.GENESIS, rows)
        if broken is None and len(rows) < len(entries_raw):
            broken = len(rows)
        if broken is not None:
            issues.append(f"MAC chain broken at entry {broken}")
            result = ReconciliationResult(device_id, False, len(entries_raw), 0, issues)
            self.reconciliations.append(result)
            return result

        # 2 & 3. Grant validity and per-grant limits (batch entries count
        # for their full aggregated query count); per-model totals for 4.
        per_grant: Dict[str, int] = {}
        per_model: Dict[str, int] = {}
        for _, grant_id, model_name, _, _, _, count in rows:
            per_grant[grant_id] = per_grant.get(grant_id, 0) + count
            per_model[model_name] = per_model.get(model_name, 0) + count
        for grant_id, used in per_grant.items():
            grant = self.issued_grants.get(grant_id)
            if grant is None or grant.device_id != device_id:
                issues.append(f"unknown or foreign grant {grant_id}")
            elif used > grant.n_queries:
                issues.append(f"grant {grant_id} over-used: {used} > {grant.n_queries}")

        # 4. Rollback detection.  The ledger is append-only, so both the
        # entry count and every model's cumulative query count must be
        # monotone across syncs.  A key-holding device *can* re-MAC its own
        # history, so shrinking (or silently growing) an already-synced
        # entry's count is only caught by comparing totals against the
        # previous sync — which is also what billing is computed from.
        previous = self.synced_counts.get(device_id, 0)
        if len(entries_raw) < previous:
            issues.append(f"ledger rollback: {len(entries_raw)} entries < previously synced {previous}")
        previous_queries = self.synced_queries.get(device_id, {})
        for model_name, prev_total in previous_queries.items():
            if per_model.get(model_name, 0) < prev_total:
                issues.append(
                    f"ledger rollback: model {model_name!r} total {per_model.get(model_name, 0)}"
                    f" queries < previously synced {prev_total}"
                )

        accepted = not issues
        n_new = max(0, len(entries_raw) - previous)
        billed = 0.0
        n_new_queries = 0
        if accepted:
            self.synced_counts[device_id] = len(entries_raw)
            for model_name, total in per_model.items():
                delta = total - previous_queries.get(model_name, 0)
                n_new_queries += delta
                plan = self.plans.get(model_name)
                if plan is not None:
                    billed += plan.price_per_query * delta
            self.synced_queries[device_id] = per_model
        result = ReconciliationResult(
            device_id,
            accepted,
            len(entries_raw),
            n_new,
            issues,
            billed_amount=round(billed, 6),
            n_new_queries=n_new_queries,
        )
        self.reconciliations.append(result)
        return result

    # -- reports ---------------------------------------------------------------
    def usage_report(self) -> Dict[str, object]:
        """Aggregate statistics over all reconciliations."""
        accepted = [r for r in self.reconciliations if r.accepted]
        rejected = [r for r in self.reconciliations if not r.accepted]
        return {
            "n_reconciliations": len(self.reconciliations),
            "n_accepted": len(accepted),
            "n_rejected": len(rejected),
            "total_synced_queries": sum(sum(m.values()) for m in self.synced_queries.values()),
            "prepaid_revenue": round(self.revenue, 6),
            "metered_value": round(sum(r.billed_amount for r in accepted), 6),
            "tamper_devices": sorted({r.device_id for r in rejected}),
        }
