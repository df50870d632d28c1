"""E1 (Figure 1): full platform cycle — release, deploy, serve, sync, federate.

Reproduces Figure 1 *structurally*: every functionality block of the paper's
TinyMLOps overview is exercised in one end-to-end run on a 40-device fleet,
and the benchmark reports how long a complete platform cycle takes.

Also measures the fleet-scale serving path: the batched
:class:`~repro.core.serving.ServingEngine` against the paper's per-query
loop on a 10k-query window (target ≥10x), and scenario-diverse fleet
traffic (steady / bursty / diurnal / overload).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.billing import BillingBackend, PricingPlan, UsageLedger
from repro.core import PlatformConfig, TinyMLOpsPlatform, make_scenario
from repro.core.serving import ServingEngine
from repro.data import make_gaussian_blobs, partition_dirichlet
from repro.devices import Battery, EdgeDevice, ExecutionCost, Fleet, get_profile
from repro.nn import make_mlp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "core"))
from test_deploy_by_class import (  # noqa: E402
    _deploy_per_device,
    _reselect_per_device,
    assert_summaries_equal,
    assert_twins_equal,
    build_platform,
    count_calls,
)


def _full_cycle(seed: int = 0) -> dict:
    ds = make_gaussian_blobs(1200, 12, 4, seed=seed)
    train, test = ds.split(0.3, seed=seed)
    fleet = Fleet.random(40, seed=seed)
    platform = TinyMLOpsPlatform(fleet, PlatformConfig(bit_widths=(8, 4), sparsities=(0.5,), seed=seed))
    model = make_mlp(12, 4, hidden=(32, 16), seed=seed, name="e1-model")
    model.fit(train.x, train.y, epochs=5, lr=0.01, seed=seed)
    release = platform.release(model, test.x, test.y, watermark_owner="bench")
    deploy = platform.deploy(
        "e1-model",
        reference_x=train.x[:200],
        reference_predictions=model.predict_classes(train.x[:200]),
        num_classes=4,
        prepaid_queries=200,
    )
    rng = np.random.default_rng(seed)
    for device in fleet:
        idx = rng.integers(0, len(test.x), size=20)
        platform.serve(device.device_id, "e1-model", test.x[idx])
    synced = sum(1 for d in fleet if platform.sync_device(d.device_id).get("synced"))
    parts = partition_dirichlet(train, 8, alpha=1.0, seed=seed)
    ids = list(fleet.devices)
    for i, p in enumerate(parts):
        p.client_id = ids[i]
    fed = platform.federated_update("e1-model", parts, rounds=2, eval_data=(test.x, test.y))
    verify = platform.verify_inference("e1-model", test.x[:16])
    return {
        "variants": len(release["variants"]),
        "deployed": deploy["deployed"],
        "deploy_failures": deploy["failed"],
        "synced_devices": synced,
        "federated_final_acc": fed["rounds"][-1]["global_accuracy"] if fed["rounds"] else 0.0,
        "verification_valid": verify["valid"],
        "registry_versions": platform.registry.stats()["n_versions"],
        "billing_revenue": platform.billing.usage_report()["prepaid_revenue"],
    }


def test_e1_full_platform_cycle(benchmark):
    """One full Figure-1 cycle on a 40-device fleet."""
    result = benchmark.pedantic(_full_cycle, rounds=1, iterations=1)
    assert result["deployed"] == 40 and result["deploy_failures"] == 0
    assert result["verification_valid"]
    assert result["registry_versions"] >= 5
    benchmark.extra_info.update(result)


def _serving_setup(n_queries: int, quota: int, seed: int = 0):
    """One mains-powered device with a deployed model, ledger and quota."""
    device = EdgeDevice("dev-0", get_profile("phone-mid"), battery=Battery(plugged_in=True), seed=seed)
    fleet = Fleet([device])
    backend = BillingBackend()
    backend.register_plan(PricingPlan("serve-model", price_per_query=0.0015))
    key = backend.enroll_device("dev-0")
    ledger = UsageLedger("dev-0", key)
    ledger.add_grant(backend.sell_package("dev-0", "serve-model", quota), backend_key=backend.signing_key())
    model = make_mlp(12, 4, hidden=(32, 16), seed=seed, name="serve-model")
    engine = ServingEngine(fleet, models={"serve-model": model}, ledgers={"dev-0": ledger})
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_queries, 12))
    return engine, ledger, backend, x


def test_e1_batched_serving_speedup(benchmark, smoke_mode):
    """Batched vs. per-query serving on a 10k-query window (≥10x target).

    Two identical single-device worlds serve the same window, one through
    ``ServingEngine.serve_batch`` and one through the legacy per-query loop;
    results, ledger state and billed revenue must agree exactly while the
    batched path is at least an order of magnitude faster.
    """
    n_queries = 2_000 if smoke_mode else 10_000
    quota = int(n_queries * 0.8)  # exercise the quota-denial path too

    def scenario():
        eng_b, led_b, back_b, x = _serving_setup(n_queries, quota)
        eng_l, led_l, back_l, _ = _serving_setup(n_queries, quota)
        t0 = time.perf_counter()
        batched = eng_b.serve_batch("dev-0", "serve-model", x)
        t_batched = time.perf_counter() - t0
        t0 = time.perf_counter()
        legacy = eng_l.serve_batch_legacy("dev-0", "serve-model", x)
        t_legacy = time.perf_counter() - t0
        bill_b = back_b.reconcile(led_b.export())
        bill_l = back_l.reconcile(led_l.export())
        return {
            "n_queries": n_queries,
            "batched_s": t_batched,
            "legacy_s": t_legacy,
            "speedup": t_legacy / max(t_batched, 1e-12),
            "identical_results": batched.as_dict() == legacy.as_dict(),
            "identical_usage": led_b.used("serve-model") == led_l.used("serve-model"),
            "identical_billing": (bill_b.accepted, bill_b.billed_amount) == (bill_l.accepted, bill_l.billed_amount),
            "served": batched.served,
            "denied_quota": batched.denied_quota,
            "queries_per_s_batched": n_queries / max(t_batched, 1e-12),
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert result["identical_results"] and result["identical_usage"] and result["identical_billing"]
    assert result["served"] == quota and result["denied_quota"] == n_queries - quota
    assert result["speedup"] >= 10.0, f"batched serving only {result['speedup']:.1f}x faster"
    benchmark.extra_info.update(result)


def test_e1_fleet_state_admission_speedup(benchmark, smoke_mode):
    """Columnar fleet-context + admission sweep vs the object loop (≥10x).

    Two identical fleets run one scheduling-plus-admission cycle: federated
    eligibility, the full scheduling context, a battery-admission draw for a
    traffic window and a simulated-time advance.  One fleet goes through the
    :class:`~repro.devices.FleetState` vectorized queries
    (``training_eligible_mask`` / ``context_table`` / ``draw_batch_all`` /
    ``advance_all``), the other through the per-device object API the store
    redesign preserved as the oracle.  Eligibility sets, every context row,
    admitted counts, battery planes and query counters must match exactly
    while the columnar sweep is at least an order of magnitude faster.
    """
    n_devices = 2_000 if smoke_mode else 10_000
    seed = 7

    def scenario():
        fleet_v = Fleet.random(n_devices, seed=seed)
        fleet_o = Fleet.random(n_devices, seed=seed)
        rng = np.random.default_rng(seed)
        energies = rng.uniform(0.01, 0.2, n_devices)
        counts = rng.integers(0, 50, n_devices).astype(np.int64)
        # The object API held device objects permanently; materialize the
        # views up front so the timed loop measures the per-device work, not
        # one-time view construction.
        ids = fleet_o.state.device_ids
        devices = [fleet_o.get(device_id) for device_id in ids]
        costs = [
            ExecutionCost(latency_s=0.01, energy_j=float(e), peak_memory_bytes=0.0, flops=0.0, bytes_moved=0.0)
            for e in energies
        ]
        # Materialized context rows, snapshotted before the draws mutate state.
        contexts_v = fleet_v.state.context_rows()

        t0 = time.perf_counter()
        mask = fleet_v.training_eligible_mask()
        table = fleet_v.context_table()
        served_v = fleet_v.draw_batch_all(energies, counts)
        fleet_v.state.query_count += served_v
        fleet_v.advance_all(60.0)
        t_vec = time.perf_counter() - t0

        t0 = time.perf_counter()
        eligible_o = [d.is_eligible_for_training() for d in devices]
        contexts_o = [d.context() for d in devices]
        served_o = [d.execute_batch(costs[i], int(counts[i]), record=False) for i, d in enumerate(devices)]
        for d in devices:
            d.battery.advance(60.0)
        t_obj = time.perf_counter() - t0

        return {
            "n_devices": n_devices,
            "columnar_s": t_vec,
            "object_loop_s": t_obj,
            "speedup": t_obj / max(t_vec, 1e-12),
            "identical_eligibility": mask.tolist() == eligible_o
            and [i for i, m in enumerate(mask) if m] == [i for i, e in enumerate(eligible_o) if e],
            "identical_contexts": contexts_v == contexts_o
            and all(
                table[key][i] == ctx[key]
                for i, ctx in enumerate(contexts_o)
                for key in ctx
            ),
            "identical_admission": served_v.tolist() == served_o,
            "identical_batteries": fleet_v.state.level_j.tolist() == fleet_o.state.level_j.tolist(),
            "identical_query_counts": fleet_v.state.query_count.tolist() == fleet_o.state.query_count.tolist(),
            "eligible_devices": int(mask.sum()),
            "admitted_queries": int(served_v.sum()),
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert result["identical_eligibility"], "columnar eligibility diverged from the object loop"
    assert result["identical_contexts"], "columnar context diverged from EdgeDevice.context()"
    assert result["identical_admission"], "columnar admission diverged from execute_batch"
    assert result["identical_batteries"] and result["identical_query_counts"]
    assert result["speedup"] >= 10.0, f"columnar fleet sweep only {result['speedup']:.1f}x faster"
    benchmark.extra_info.update(result)


def test_e1_fleet_scenario_traffic(benchmark, smoke_mode):
    """Scenario-diverse fleet serving: steady, bursty, diurnal, overload."""
    seed = 0
    n_windows = 2 if smoke_mode else 6
    ds = make_gaussian_blobs(600, 12, 4, seed=seed)
    train, test = ds.split(0.3, seed=seed)
    fleet = Fleet.random(20, seed=seed)
    platform = TinyMLOpsPlatform(fleet, PlatformConfig(bit_widths=(8,), sparsities=(0.5,), seed=seed))
    model = make_mlp(12, 4, hidden=(32, 16), seed=seed, name="e1-traffic")
    model.fit(train.x, train.y, epochs=3, lr=0.01, seed=seed)
    platform.release(model, test.x, test.y)
    platform.deploy("e1-traffic", prepaid_queries=5_000)
    device_ids = list(fleet.devices)

    def scenario():
        reports = {}
        for name in ("steady", "bursty", "diurnal", "overload"):
            windows = make_scenario(name, device_ids, n_windows, test.x, seed=seed)
            report = platform.serve_fleet("e1-traffic", windows)
            reports[name] = report.as_dict()
        return reports

    reports = benchmark.pedantic(scenario, rounds=1, iterations=1)
    for name, report in reports.items():
        assert report["requested"] > 0, name
        assert report["served"] + report["denied_quota"] + report["battery_failures"] == report["requested"]
    benchmark.extra_info.update(
        {name: {k: report[k] for k in ("requested", "served", "denied_quota", "battery_failures")} for name, report in reports.items()}
    )


def test_e1_deploy_by_class(benchmark, smoke_mode, bench_model, bench_task):
    """``platform.deploy`` vs the per-device loop it replaced (≥3x target).

    Twin platforms over a 400-device fleet (60 in smoke mode) roll the same
    release out, one through ``platform.deploy`` — select once per distinct
    (profile, link, policy) from the fleet's columns, lower + compile and
    place once per distinct (variant, profile) — and one through the parent
    commit's per-device loop, kept as the oracle in
    ``tests/core/test_deploy_by_class.py``.  Summary, grants, registry and
    every other byte a deploy writes must be identical; compile and place run
    at most once per (variant, profile).  ``promote_model``'s re-selection
    (``_select_by_class``) is timed the same way against the per-device
    ``_reselect_per_device``, and both twins are then promoted and compared
    again.  The ≥3x guardrail is asserted on deploy outside smoke mode (a
    60-device fleet has ~25 classes: too few devices per class for the ratio
    to mean anything), best of three fresh twins.
    """
    n_devices = 60 if smoke_mode else 400
    _, test = bench_task
    name = bench_model.name

    def scenario():
        t_class, t_device, r_class, r_device = [], [], [], []
        for _ in range(3):
            by_class, per_device = (
                build_platform(Fleet.random(n_devices, seed=0), bench_model, test.x, test.y) for _ in range(2)
            )
            compiles = count_calls(by_class.compiler, "compile")
            places = count_calls(by_class.orchestrator, "place")
            t0 = time.perf_counter()
            summary = by_class.deploy(name, prepaid_queries=500)
            t_class.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            oracle_summary = _deploy_per_device(per_device, name, prepaid_queries=500)
            t_device.append(time.perf_counter() - t0)
            assert_summaries_equal(summary, oracle_summary)
            assert_twins_equal(by_class, per_device)

            ids = list(by_class.fleet.devices)
            t0 = time.perf_counter()
            chosen = by_class._select_by_class(by_class.variants[name], by_class.fleet.rows_for(ids))
            r_class.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            oracle_reselect = _reselect_per_device(per_device, name, ids)
            r_device.append(time.perf_counter() - t0)
            reselect = {}
            for variant in filter(None, chosen):
                reselect[variant.name] = reselect.get(variant.name, 0) + 1
            assert list(reselect.items()) == list(oracle_reselect.items())
            audits = []
            for platform in (by_class, per_device):
                version = platform.registry.latest(name, kind="base").version_id
                audits.append(platform.promote_model(name, platform.deployed_models[name], version))
            assert audits[0] == audits[1] and audits[0]["per_variant"] == oracle_reselect
            assert_twins_equal(by_class, per_device)
        targets = {(d.installed[name].version, d.profile) for d in by_class.fleet}
        return {
            "n_devices": n_devices,
            "deployed": summary["deployed"],
            "compile_calls": len(compiles),
            "place_calls": len(places),
            "variant_profile_pairs": len(targets),
            "by_class_s": min(t_class),
            "per_device_s": min(t_device),
            "speedup": min(t_device) / max(min(t_class), 1e-12),
            "devices_per_s_by_class": n_devices / max(min(t_class), 1e-12),
            "reselect_by_class_s": min(r_class),
            "reselect_per_device_s": min(r_device),
            "reselect_speedup": min(r_device) / max(min(r_class), 1e-12),
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert result["deployed"] == n_devices
    assert result["compile_calls"] <= result["variant_profile_pairs"]
    assert result["place_calls"] <= result["variant_profile_pairs"]
    if not smoke_mode:
        assert result["speedup"] >= 3.0, f"deploy by class only {result['speedup']:.1f}x the per-device loop"
    benchmark.extra_info.update(result)


def _sharded_serving_world(n_devices: int, seed: int = 0):
    """A fleet-scale serving world: ledgers everywhere, sparse monitors,
    compiled plan, and one window of queries for every device."""
    from repro.observability import EdgeMonitor

    fleet = Fleet.random(n_devices, seed=seed)
    model = make_mlp(12, 4, hidden=(32, 16), seed=seed, name="e1-sharded")
    backend = BillingBackend()
    backend.register_plan(PricingPlan("e1-sharded", price_per_query=0.0015))
    rng = np.random.default_rng(seed + 1)
    reference = rng.normal(size=(60, 12))
    ledgers, monitors = {}, {}
    for i, device in enumerate(fleet):
        ledger = UsageLedger(device.device_id, backend.enroll_device(device.device_id))
        ledger.add_grant(
            backend.sell_package(device.device_id, "e1-sharded", 16),
            backend_key=backend.signing_key(),
        )
        ledgers[device.device_id] = ledger
        if i % 25 == 0:
            monitors[device.device_id] = EdgeMonitor(device.device_id, reference_inputs=reference)
    engine = ServingEngine(fleet, models={"e1-sharded": model}, ledgers=ledgers, monitors=monitors)
    engine.compile_model("e1-sharded")
    window = {device_id: rng.normal(size=(4, 12)) for device_id in fleet.devices}
    return engine, window


def test_e1_sharded_serving_scaling(benchmark, smoke_mode):
    """Sharded multi-process serving vs the in-process batched sweep.

    The 10k-device window (400 in smoke mode) is served once by the batched
    engine and once by the sharded backend on 4 workers; the merged result
    must be byte-identical (reports, ledger MAC heads, battery/counter
    planes) in every environment.  The near-linear scaling guardrail
    (≥2.5x on 4 workers, linear target 4x) is asserted only on machines
    that actually have ≥4 cores and outside smoke mode — but the measured
    numbers are always exported so CI trends them.
    """
    import os

    from repro.runtime.sharded import ShardedFleetRunner

    n_devices = 400 if smoke_mode else 10_000
    n_workers = 4

    def scenario():
        eng_b, window = _sharded_serving_world(n_devices)
        t0 = time.perf_counter()
        report_b = eng_b.serve_fleet("e1-sharded", window)
        t_batched = time.perf_counter() - t0

        eng_s, window_s = _sharded_serving_world(n_devices)
        with ShardedFleetRunner(workers=n_workers, backend="pickle") as eng_s.shard_runner:
            t0 = time.perf_counter()
            report_s = eng_s.serve_fleet("e1-sharded", window_s, engine="sharded")
            t_sharded = time.perf_counter() - t0

        macs_b = {d: ledger.head_mac() for d, ledger in eng_b.ledgers.items()}
        macs_s = {d: ledger.head_mac() for d, ledger in eng_s.ledgers.items()}
        return {
            "n_devices": n_devices,
            "workers": n_workers,
            "host_cores": os.cpu_count() or 1,
            "batched_s": t_batched,
            "sharded_s": t_sharded,
            "sharded_speedup_4w": t_batched / max(t_sharded, 1e-12),
            "identical_reports": report_s.as_dict() == report_b.as_dict(),
            "identical_ledger_macs": macs_s == macs_b,
            "identical_planes": (
                eng_s.fleet.state.level_j.tobytes() == eng_b.fleet.state.level_j.tobytes()
                and eng_s.fleet.state.query_count.tobytes() == eng_b.fleet.state.query_count.tobytes()
            ),
            "shard_recoveries": report_s.shard_recoveries,
            "served": report_s.served,
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert result["identical_reports"], "sharded report diverged from batched"
    assert result["identical_ledger_macs"], "sharded ledger MAC chains diverged"
    assert result["identical_planes"], "sharded battery/counter planes diverged"
    assert result["shard_recoveries"] == 0
    if not smoke_mode and result["host_cores"] >= n_workers:
        assert result["sharded_speedup_4w"] >= 2.5, (
            f"sharded serving only {result['sharded_speedup_4w']:.2f}x on {n_workers} workers"
        )
    benchmark.extra_info.update(result)
