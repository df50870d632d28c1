"""Pay-per-query billing: prepaid quotas, tamper-evident offline metering, reconciliation."""

from .backend import BillingBackend, ReconciliationResult
from .metering import LedgerEntry, LedgerHead, PricingPlan, QuotaExceededError, QuotaGrant, UsageLedger

__all__ = [
    "PricingPlan",
    "QuotaGrant",
    "LedgerEntry",
    "UsageLedger",
    "LedgerHead",
    "QuotaExceededError",
    "BillingBackend",
    "ReconciliationResult",
]
