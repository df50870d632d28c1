"""E5 (Section III-C): offline pay-per-query metering overhead and tamper detection.

Expected shape: metering adds microsecond-scale overhead per query (tiny
compared to model inference), quotas are enforced while fully offline, and
every tampered ledger (edited, truncated, over-used, rolled back) is rejected
at reconciliation while honest ledgers are accepted and billed exactly.
Batched metering (``record_batch``) amortizes the per-query HMAC into one
aggregated chain entry per grant, turning a 10k-query window into O(#grants)
work — the large-batch case measures that speedup.  The payload case holds
the template behind every chain MAC to its ``json.dumps`` oracle
(``tests/billing/test_entry_payload.py``): same bytes, ≥ 3x cheaper.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.billing import BillingBackend, PricingPlan, QuotaExceededError, UsageLedger
from repro.billing.metering import entry_payload

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "billing"))
from test_entry_payload import json_payload  # noqa: E402


@pytest.fixture()
def enrolled():
    backend = BillingBackend()
    backend.register_plan(PricingPlan("vision", price_per_query=0.0015))
    key = backend.enroll_device("dev-1")
    ledger = UsageLedger("dev-1", key)
    # Large prepaid package so benchmark calibration never exhausts the quota.
    ledger.add_grant(backend.sell_package("dev-1", "vision", 50_000_000), backend_key=backend.signing_key())
    return backend, ledger


def test_e5_metering_overhead_per_query(benchmark, enrolled):
    _, ledger = enrolled

    def meter_queries():
        for _ in range(1000):
            ledger.record_query("vision")

    benchmark(meter_queries)
    benchmark.extra_info["queries_per_call"] = 1000


def test_e5_reconciliation_throughput(benchmark, enrolled):
    backend, ledger = enrolled
    for _ in range(5000):
        ledger.record_query("vision")
    export = ledger.export()

    result = benchmark(lambda: backend.reconcile(export))
    assert result.accepted
    benchmark.extra_info.update({"entries": result.n_entries, "billed": result.billed_amount})


def test_e5_batch_metering_speedup(benchmark, smoke_mode):
    """``record_batch`` vs. a ``record_query`` loop on a 10k-query window.

    Both paths must leave identical quota state and bill identically at
    reconciliation; the batched path appends one aggregated entry per grant
    and must be ≥10x faster.
    """
    n_queries = 2_000 if smoke_mode else 10_000

    def fresh_ledger():
        backend = BillingBackend()
        backend.register_plan(PricingPlan("vision", price_per_query=0.0015))
        key = backend.enroll_device("dev-1")
        ledger = UsageLedger("dev-1", key)
        # Several grants so the batch path exercises multi-grant consumption.
        for size in (n_queries // 2, n_queries // 2, n_queries):
            ledger.add_grant(backend.sell_package("dev-1", "vision", size), backend_key=backend.signing_key())
        return backend, ledger

    def scenario():
        backend_b, ledger_b = fresh_ledger()
        backend_l, ledger_l = fresh_ledger()
        t0 = time.perf_counter()
        granted = ledger_b.record_batch("vision", n_queries)
        t_batch = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n_queries):
            ledger_l.record_query("vision")
        t_loop = time.perf_counter() - t0
        bill_b = backend_b.reconcile(ledger_b.export())
        bill_l = backend_l.reconcile(ledger_l.export())
        return {
            "n_queries": n_queries,
            "granted": granted,
            "batch_s": t_batch,
            "loop_s": t_loop,
            "speedup": t_loop / max(t_batch, 1e-12),
            "batch_entries": len(ledger_b.entries),
            "loop_entries": len(ledger_l.entries),
            "identical_usage": ledger_b.used("vision") == ledger_l.used("vision"),
            "identical_billing": (bill_b.accepted, bill_b.billed_amount) == (bill_l.accepted, bill_l.billed_amount),
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert result["granted"] == n_queries
    assert result["batch_entries"] == 2 and result["loop_entries"] == n_queries
    assert result["identical_usage"] and result["identical_billing"]
    assert result["speedup"] >= 10.0, f"batched metering only {result['speedup']:.1f}x faster"
    benchmark.extra_info.update(result)


def test_e5_chain_payload_speedup(benchmark, smoke_mode):
    """``entry_payload``'s template vs the ``json.dumps`` body it replaced.

    Every chain MAC covers this payload; the template must produce the
    oracle's bytes for every payload and be ≥ 3x cheaper (≈ 7x measured).
    """
    n_payloads = 5_000 if smoke_mode else 100_000
    rng = np.random.default_rng(5)
    # A metered chain's payloads: batch counts, the metering clock (their
    # running sum) as timestamp, a few grants, 64-hex previous MACs.
    counts = rng.integers(1, 40, n_payloads)
    clock = np.cumsum(counts).astype(np.float64)
    args = [
        (i, f"grant-{i % 3:06d}", "vision", float(t), f"{rng.integers(2**62):064x}", int(c))
        for i, (t, c) in enumerate(zip(clock, counts))
    ]

    def timed(kernel):
        t0 = time.perf_counter()
        payloads = [kernel(*a) for a in args]
        return time.perf_counter() - t0, payloads

    def scenario():
        # Alternating repeats, best of three: a noisy host slows both sides.
        runs = [(timed(entry_payload), timed(json_payload)) for _ in range(3)]
        t_template, template = min((run[0] for run in runs), key=lambda timing: timing[0])
        t_oracle, oracle = min((run[1] for run in runs), key=lambda timing: timing[0])
        return {
            "n_payloads": n_payloads,
            "template_us": t_template / n_payloads * 1e6,
            "json_dumps_us": t_oracle / n_payloads * 1e6,
            "speedup": t_oracle / max(t_template, 1e-12),
            "identical": template == oracle,
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert result["identical"]
    assert result["speedup"] >= 3.0, f"payload template only {result['speedup']:.1f}x faster than json.dumps"
    benchmark.extra_info.update(result)


def test_e5_offline_quota_enforced_and_tampering_detected(benchmark):
    def scenario():
        backend = BillingBackend()
        backend.register_plan(PricingPlan("vision", price_per_query=0.0015))
        key = backend.enroll_device("dev-1")
        ledger = UsageLedger("dev-1", key)
        ledger.add_grant(backend.sell_package("dev-1", "vision", 500), backend_key=backend.signing_key())
        denied = 0
        for _ in range(600):
            try:
                ledger.record_query("vision")
            except QuotaExceededError:
                denied += 1
        honest = backend.reconcile(ledger.export())
        # Tamper 1: rewrite an entry's model name.
        edited = ledger.export()
        edited["entries"][10]["model_name"] = "free"
        tampered_edit = backend.reconcile(edited)
        # Tamper 2: truncate the ledger after a successful sync (rollback).
        truncated = ledger.export()
        truncated["entries"] = truncated["entries"][:100]
        tampered_rollback = backend.reconcile(truncated)
        return {
            "denied": denied,
            "honest_accepted": honest.accepted,
            "honest_billed": honest.billed_amount,
            "edit_detected": not tampered_edit.accepted,
            "rollback_detected": not tampered_rollback.accepted,
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert result["denied"] == 100
    assert result["honest_accepted"] and result["honest_billed"] == pytest.approx(0.75)
    assert result["edit_detected"] and result["rollback_detected"]
    benchmark.extra_info.update(result)
