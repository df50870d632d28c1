"""Tests for the batched ServingEngine, traffic generators and the
batched-vs-legacy equivalence guarantees (quota, battery, mixed denial)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.billing import BillingBackend, PricingPlan, UsageLedger
from repro.core import (
    SCENARIOS,
    FleetServeReport,
    PlatformConfig,
    ServingEngine,
    TinyMLOpsPlatform,
    TrafficGenerator,
    make_scenario,
)
from repro.data import make_gaussian_blobs
from repro.devices import Battery, CostModel, EdgeDevice, ExecutionCost, Fleet, get_profile
from repro.nn import make_mlp
from repro.observability import EdgeMonitor


class FixedCostModel(CostModel):
    """Cost model returning one fixed cost, for exact battery arithmetic."""

    def __init__(self, cost: ExecutionCost) -> None:
        super().__init__()
        self.cost = cost

    def model_inference_cost(self, profile, model, bits: int = 32) -> ExecutionCost:
        return self.cost


# Binary-exact energy so repeated subtraction and one multiply-subtract are
# bit-identical: the equivalence assertions below compare battery levels
# exactly.
EXACT_COST = ExecutionCost(latency_s=0.001, energy_j=0.5, peak_memory_bytes=1024.0, flops=1e3, bytes_moved=1e3)


def make_world(
    quota: int = 100,
    battery_j: float = 1e9,
    plugged: bool = False,
    with_monitor: bool = False,
    seed: int = 0,
):
    """A single-device serving world with controllable quota and battery."""
    device = EdgeDevice(
        "dev-0",
        get_profile("phone-mid"),
        battery=Battery(capacity_j=1e9, level_j=battery_j, plugged_in=plugged),
        seed=seed,
    )
    fleet = Fleet([device])
    backend = BillingBackend()
    backend.register_plan(PricingPlan("m", price_per_query=0.0015))
    key = backend.enroll_device("dev-0")
    ledger = UsageLedger("dev-0", key)
    ledger.add_grant(backend.sell_package("dev-0", "m", quota), backend_key=backend.signing_key())
    model = make_mlp(8, 3, hidden=(16,), seed=seed, name="m")
    monitors = {}
    if with_monitor:
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=(100, 8))
        monitors["dev-0"] = EdgeMonitor("dev-0", ref, reference_predictions=model.predict_classes(ref), num_classes=3)
    engine = ServingEngine(
        fleet,
        cost_model=FixedCostModel(EXACT_COST),
        models={"m": model},
        ledgers={"dev-0": ledger},
        monitors=monitors,
    )
    return engine, ledger, device, backend


def queries(n: int, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 8))


def assert_equivalent(kwargs: dict, n: int) -> tuple:
    """Serve the same window batched and legacy; assert identical outcomes."""
    x = queries(n)
    eng_b, led_b, dev_b, back_b = make_world(**kwargs)
    eng_l, led_l, dev_l, back_l = make_world(**kwargs)
    rb = eng_b.serve_batch("dev-0", "m", x)
    rl = eng_l.serve_batch_legacy("dev-0", "m", x)
    assert rb == rl
    assert led_b.used("m") == led_l.used("m")
    assert led_b.remaining("m") == led_l.remaining("m")
    assert dev_b.battery.level_j == dev_l.battery.level_j
    assert dev_b.query_count == dev_l.query_count
    bill_b = back_b.reconcile(led_b.export())
    bill_l = back_l.reconcile(led_l.export())
    assert bill_b.accepted and bill_l.accepted
    assert bill_b.billed_amount == bill_l.billed_amount
    return rb, rl


class TestServeBatchEquivalence:
    def test_all_served_when_resources_suffice(self):
        rb, _ = assert_equivalent(dict(quota=100, battery_j=1e9), n=50)
        assert rb.served == 50 and rb.denied_quota == 0 and rb.battery_failures == 0

    def test_quota_exhaustion_denies_suffix(self):
        rb, _ = assert_equivalent(dict(quota=30, battery_j=1e9), n=50)
        assert rb.served == 30 and rb.denied_quota == 20 and rb.battery_failures == 0

    def test_battery_exhaustion_fails_suffix(self):
        # 0.5 J per query, 10.0 J charge -> exactly 20 of 50 run.
        rb, _ = assert_equivalent(dict(quota=100, battery_j=10.0), n=50)
        assert rb.served == 20 and rb.battery_failures == 30 and rb.denied_quota == 0

    def test_mixed_quota_then_battery_denial(self):
        # Quota admits 40 of 50; battery covers 12 of those 40.
        rb, _ = assert_equivalent(dict(quota=40, battery_j=6.0), n=50)
        assert rb.served == 12 and rb.battery_failures == 28 and rb.denied_quota == 10

    def test_quota_consumed_even_for_battery_failures(self):
        x = queries(50)
        engine, ledger, device, _ = make_world(quota=40, battery_j=6.0)
        engine.serve_batch("dev-0", "m", x)
        # All 40 admitted queries consumed quota, though only 12 executed.
        assert ledger.used("m") == 40 and ledger.remaining("m") == 0
        assert device.query_count == 12
        assert device.battery.level_j == 0.0

    def test_repeated_windows_deplete_quota_like_legacy(self):
        kwargs = dict(quota=75, battery_j=1e9)
        eng_b, led_b, _, _ = make_world(**kwargs)
        eng_l, led_l, _, _ = make_world(**kwargs)
        x = queries(30)
        for _ in range(4):
            rb = eng_b.serve_batch("dev-0", "m", x)
            rl = eng_l.serve_batch_legacy("dev-0", "m", x)
            assert rb == rl
        assert led_b.used("m") == led_l.used("m") == 75
        assert led_b.verify_chain() and led_l.verify_chain()

    def test_monitor_sees_only_served_slice(self):
        x = queries(50)
        engine, _, _, _ = make_world(quota=30, with_monitor=True)
        result = engine.serve_batch("dev-0", "m", x)
        monitor = engine.monitors["dev-0"]
        # The historical bug paired the full window with served-sized
        # telemetry arrays; now both are exactly `served` long.
        assert monitor.telemetry.n_queries == result.served == 30

    def test_monitor_windows_identical_batched_and_legacy(self):
        x = queries(60)
        eng_b, _, _, _ = make_world(quota=45, with_monitor=True)
        eng_l, _, _, _ = make_world(quota=45, with_monitor=True)
        eng_b.serve_batch("dev-0", "m", x)
        eng_l.serve_batch_legacy("dev-0", "m", x)
        mon_b, mon_l = eng_b.monitors["dev-0"], eng_l.monitors["dev-0"]
        assert mon_b.telemetry.n_queries == mon_l.telemetry.n_queries == 45
        assert mon_b.any_drift() == mon_l.any_drift()

    def test_unknown_model_raises(self):
        engine, _, _, _ = make_world()
        with pytest.raises(KeyError):
            engine.serve_batch("dev-0", "ghost", queries(5))

    def test_empty_window(self):
        engine, ledger, _, _ = make_world()
        result = engine.serve_batch("dev-0", "m", queries(0))
        assert result.served == 0 and result.denied_quota == 0
        assert ledger.used("m") == 0


class TestServeFleet:
    def test_single_window_mapping(self):
        engine, _, _, _ = make_world(quota=100)
        report = engine.serve_fleet("m", {"dev-0": queries(40)})
        assert isinstance(report, FleetServeReport)
        assert report.requested == 40 and report.served == 40
        assert report.per_device["dev-0"]["served"] == 40
        assert report.n_windows == 1

    def test_multi_window_iterable_aggregates(self):
        engine, ledger, _, _ = make_world(quota=50)
        windows = [{"dev-0": queries(30)}, {"dev-0": queries(30)}]
        report = engine.serve_fleet("m", windows)
        assert report.n_windows == 2 and report.requested == 60
        assert report.served == 50 and report.denied_quota == 10
        assert ledger.remaining("m") == 0

    def test_platform_serve_fleet_end_to_end(self):
        ds = make_gaussian_blobs(400, 12, 4, seed=3)
        train, test = ds.split(0.3, seed=3)
        fleet = Fleet.random(8, seed=3)
        platform = TinyMLOpsPlatform(fleet, PlatformConfig(bit_widths=(8,), sparsities=(0.5,), seed=3))
        model = make_mlp(12, 4, hidden=(16,), seed=3, name="fleetmodel")
        model.fit(train.x, train.y, epochs=2, lr=0.01, seed=3)
        platform.release(model, test.x, test.y)
        platform.deploy("fleetmodel", prepaid_queries=200)
        # Only devices that deployed successfully carry a ledger.
        windows = make_scenario("steady", list(platform.ledgers), 3, test.x, seed=3, rate=10.0)
        report = platform.serve_fleet("fleetmodel", windows)
        assert report.requested > 0
        assert report.served + report.denied_quota + report.battery_failures == report.requested
        total_used = sum(lg.used("fleetmodel") for lg in platform.ledgers.values())
        assert total_used == report.served + report.battery_failures

    def test_platform_serve_delegates_to_engine(self):
        ds = make_gaussian_blobs(300, 12, 4, seed=5)
        train, test = ds.split(0.3, seed=5)
        fleet = Fleet.random(4, seed=5)
        platform = TinyMLOpsPlatform(fleet, PlatformConfig(bit_widths=(8,), sparsities=(0.5,), seed=5))
        model = make_mlp(12, 4, hidden=(16,), seed=5, name="srv")
        model.fit(train.x, train.y, epochs=2, lr=0.01, seed=5)
        platform.release(model, test.x, test.y)
        platform.deploy("srv", reference_x=train.x[:50], reference_predictions=model.predict_classes(train.x[:50]), num_classes=4, prepaid_queries=100)
        device_id = next(iter(fleet)).device_id
        result = platform.serve(device_id, "srv", test.x[:30])
        assert set(result) == {"served", "denied_quota", "battery_failures", "drift_detected"}
        assert result["served"] + result["denied_quota"] + result["battery_failures"] == 30
        # Engine and facade share state by reference.
        assert platform.serving.ledgers is platform.ledgers
        assert platform.serving.monitors is platform.monitors
        assert platform.serving.models is platform.deployed_models


class TestTrafficGenerators:
    ids = [f"d{i}" for i in range(6)]

    def test_all_scenarios_produce_valid_schedules(self):
        gen = TrafficGenerator(self.ids, seed=0)
        for name in SCENARIOS:
            schedule = getattr(gen, name)(10)
            assert schedule.shape == (10, 6)
            assert schedule.dtype == np.int64
            assert (schedule >= 0).all()

    def test_seeded_schedules_are_reproducible(self):
        a = TrafficGenerator(self.ids, seed=42).bursty(20)
        b = TrafficGenerator(self.ids, seed=42).bursty(20)
        np.testing.assert_array_equal(a, b)

    def test_overload_spike_dominates(self):
        schedule = TrafficGenerator(self.ids, seed=1).overload(9, rate=10.0, overload_factor=20.0)
        per_window = schedule.sum(axis=1)
        assert per_window[4] == per_window.max()
        assert per_window[4] > 3 * np.delete(per_window, 4).mean()

    def test_diurnal_peak_exceeds_trough(self):
        schedule = TrafficGenerator(self.ids, seed=2).diurnal(24, peak_rate=40.0, trough_rate=2.0, period=24)
        per_window = schedule.sum(axis=1)
        assert per_window[6] > per_window[18]  # sin peak at t=6, trough at t=18

    def test_windows_materialize_schedule_counts(self):
        gen = TrafficGenerator(self.ids, seed=0)
        schedule = gen.steady(4, rate=7.0)
        pool = np.zeros((50, 3))
        windows = list(gen.windows(schedule, pool))
        assert len(windows) == 4
        for row, window in zip(schedule, windows):
            assert set(window) == set(self.ids)
            for device_id, n in zip(self.ids, row):
                assert window[device_id].shape == (int(n), 3)

    def test_make_scenario_rejects_unknown_name(self):
        with pytest.raises(KeyError):
            next(make_scenario("tsunami", self.ids, 2, np.zeros((10, 3))))

    def test_empty_device_list_rejected(self):
        with pytest.raises(ValueError):
            TrafficGenerator([])


class TestCompiledServing:
    """serve_batch through a compiled plan must match the model path exactly."""

    def test_compile_model_registers_plan_and_matches_model_path(self):
        x = queries(60)
        eng_plan, led_p, dev_p, _ = make_world(with_monitor=True)
        eng_model, led_m, dev_m, _ = make_world(with_monitor=True)
        plan = eng_plan.compile_model("m")
        assert eng_plan.plans["m"] is plan
        rp = eng_plan.serve_batch("dev-0", "m", x)
        rm = eng_model.serve_batch("dev-0", "m", x)
        assert rp == rm
        assert led_p.used("m") == led_m.used("m")
        assert dev_p.battery.level_j == dev_m.battery.level_j
        # the two paths fed their monitors the same served slice and preds
        mon_p, mon_m = eng_plan.monitors["dev-0"], eng_model.monitors["dev-0"]
        assert mon_p.any_drift() == mon_m.any_drift()

    def test_plan_predictions_equal_model_predictions(self):
        engine, _, _, _ = make_world()
        engine.compile_model("m")
        x = queries(200, seed=5)
        np.testing.assert_array_equal(
            engine._predict_classes("m", x), engine.models["m"].predict_classes(x)
        )

    def test_serve_fleet_uses_compiled_plan(self):
        engine, _, _, _ = make_world(quota=10_000, with_monitor=True)
        engine.compile_model("m")
        report = engine.serve_fleet("m", {"dev-0": queries(40)})
        assert report.served == 40 and report.requested == 40

    def test_federated_update_recompiles_serving_plan(self):
        """Weight updates must not leave the serving plan predicting with
        stale folded weights."""
        from repro.core import PlatformConfig, TinyMLOpsPlatform
        from repro.data import make_gaussian_blobs, partition_dirichlet
        from repro.devices import Fleet

        ds = make_gaussian_blobs(400, 12, 4, seed=3)
        train, test = ds.split(0.3, seed=3)
        fleet = Fleet.random(6, seed=3)
        platform = TinyMLOpsPlatform(fleet, PlatformConfig(bit_widths=(8,), sparsities=(0.5,), seed=3))
        model = make_mlp(12, 4, hidden=(16,), seed=3, name="fed-m")
        model.fit(train.x, train.y, epochs=2, lr=0.01, seed=3)
        platform.release(model, test.x, test.y)
        platform.deploy("fed-m", prepaid_queries=100)
        parts = partition_dirichlet(train, 4, alpha=1.0, seed=3)
        platform.federated_update("fed-m", parts, rounds=1)
        plan = platform.serving.plans["fed-m"]
        np.testing.assert_array_equal(
            plan.run(test.x[:32]).argmax(-1), model.predict_classes(test.x[:32])
        )

    def test_recompile_preserves_custom_plan_options(self):
        """A rebuild after weight updates must keep a custom lowering."""
        from repro.exchange import PassPipeline, annotate_quantization

        engine, _, _, _ = make_world()
        custom = PassPipeline.standard_inference().add(lambda g: annotate_quantization(g, bits=8))
        plan = engine.compile_model("m", pipeline=custom)
        assert plan.graph.metadata.get("bits") == 8
        rebuilt = engine.compile_model("m")  # no args: reuse stored options
        assert rebuilt.graph.metadata.get("bits") == 8


def make_fleet_world(n_devices: int = 6, quota: int = 1000, with_plan: bool = True, seed: int = 0):
    """A multi-device serving world with shared reference monitors."""
    rng = np.random.default_rng(seed)
    devices = [
        EdgeDevice(
            f"dev-{i}",
            get_profile("phone-mid"),
            battery=Battery(capacity_j=1e9, level_j=1e9),
            seed=seed + i,
        )
        for i in range(n_devices)
    ]
    fleet = Fleet(devices)
    backend = BillingBackend()
    backend.register_plan(PricingPlan("m", price_per_query=0.0015))
    model = make_mlp(8, 3, hidden=(16,), seed=seed, name="m")
    ref = rng.normal(size=(120, 8))
    ref_preds = model.predict_classes(ref)
    ledgers, monitors = {}, {}
    for i in range(n_devices):
        key = backend.enroll_device(f"dev-{i}")
        ledger = UsageLedger(f"dev-{i}", key)
        ledger.add_grant(backend.sell_package(f"dev-{i}", "m", quota), backend_key=backend.signing_key())
        ledgers[f"dev-{i}"] = ledger
        monitors[f"dev-{i}"] = EdgeMonitor(
            f"dev-{i}", ref, reference_predictions=ref_preds, num_classes=3
        )
    engine = ServingEngine(
        fleet,
        cost_model=FixedCostModel(EXACT_COST),
        models={"m": model},
        ledgers=ledgers,
        monitors=monitors,
    )
    if with_plan:
        engine.compile_model("m")
    return engine, ledgers, devices


def fleet_windows(n_devices: int, n_windows: int = 3, seed: int = 1, widths=(20, 35)):
    rng = np.random.default_rng(seed)
    return [
        {
            f"dev-{i}": rng.normal(loc=0.5 * w, size=(widths[i % len(widths)], 8))
            for i in range(n_devices)
        }
        for w in range(n_windows)
    ]


class TestFleetSweep:
    """serve_fleet's one-sweep-per-window path vs the per-device oracle."""

    def assert_fleet_equivalent(
        self, with_plan: bool, quota: int = 1000, battery_j: float = 1e9, as_lists: bool = False
    ):
        windows = fleet_windows(6)
        if as_lists:
            windows = [{d: x.tolist() for d, x in w.items()} for w in windows]
        eng_b, led_b, dev_b = make_fleet_world(quota=quota, with_plan=with_plan)
        eng_l, led_l, dev_l = make_fleet_world(quota=quota, with_plan=with_plan)
        for d in dev_b + dev_l:
            d.battery.level_j = battery_j
        rb = eng_b.serve_fleet("m", [dict(w) for w in windows])
        rl = eng_l.serve_fleet("m", [dict(w) for w in windows], engine="oracle")
        assert rb.as_dict() == rl.as_dict()
        assert rb.per_device == rl.per_device
        for i in range(6):
            did = f"dev-{i}"
            assert led_b[did].used("m") == led_l[did].used("m")
            assert dev_b[i].battery.level_j == dev_l[i].battery.level_j
            mon_b, mon_l = eng_b.monitors[did], eng_l.monitors[did]
            assert mon_b.drift_events == mon_l.drift_events
            for name in mon_b.detectors:
                assert [r.statistic for r in mon_b.detectors[name].history] == [
                    r.statistic for r in mon_l.detectors[name].history
                ]
            assert mon_b.build_report().as_dict() == mon_l.build_report().as_dict()

    def test_sweep_equals_per_device_loop_with_plan(self):
        self.assert_fleet_equivalent(with_plan=True)

    def test_sweep_equals_per_device_loop_without_plan(self):
        self.assert_fleet_equivalent(with_plan=False)

    def test_sweep_equals_per_device_loop_under_quota_pressure(self):
        # 6 devices x 3 windows x 20-35 queries vs 50 quota: denial tails.
        self.assert_fleet_equivalent(with_plan=True, quota=50)

    def test_sweep_equals_per_device_loop_under_battery_pressure(self):
        self.assert_fleet_equivalent(with_plan=True, battery_j=EXACT_COST.energy_j * 40)

    def test_sweep_equals_per_device_loop_on_list_valued_windows(self):
        # {device_id: list of rows}: every engine coerces, none reads .shape raw.
        self.assert_fleet_equivalent(with_plan=True, as_lists=True)

    def test_one_compiled_sweep_per_window(self):
        """The instrumentation check: one run_many (and one underlying plan
        execution) per (model, window), instead of one plan.run per device."""
        windows = fleet_windows(6)
        engine, _, _ = make_fleet_world()
        plan = engine.plans["m"]
        calls = {"run": 0, "run_many": 0}
        orig_run, orig_many = plan.run, plan.run_many

        def counting_run(*args, **kwargs):
            calls["run"] += 1
            return orig_run(*args, **kwargs)

        def counting_many(*args, **kwargs):
            calls["run_many"] += 1
            return orig_many(*args, **kwargs)

        plan.run, plan.run_many = counting_run, counting_many
        engine.serve_fleet("m", windows)
        assert calls["run_many"] == len(windows)
        assert calls["run"] == len(windows)  # run_many -> one stacked execution

    def test_legacy_path_runs_plan_per_device(self):
        windows = fleet_windows(6)
        engine, _, _ = make_fleet_world()
        plan = engine.plans["m"]
        calls = {"run": 0}
        orig_run = plan.run

        def counting_run(*args, **kwargs):
            calls["run"] += 1
            return orig_run(*args, **kwargs)

        plan.run = counting_run
        engine.serve_fleet("m", windows, engine="oracle")
        assert calls["run"] == len(windows) * 6

    def test_fleet_monitor_cache_invalidated_on_redeploy(self):
        engine, _, _ = make_fleet_world(n_devices=2)
        engine.serve_fleet("m", fleet_windows(2, n_windows=1))
        fm_first = engine._fleet_monitor()
        rng = np.random.default_rng(9)
        engine.monitors["dev-0"] = EdgeMonitor("dev-0", rng.normal(size=(50, 8)))
        assert engine._fleet_monitor() is not fm_first

    def test_unmonitored_devices_still_served(self):
        engine, _, _ = make_fleet_world(n_devices=3)
        del engine.monitors["dev-1"]
        report = engine.serve_fleet("m", fleet_windows(3, n_windows=1))
        assert report.per_device["dev-1"]["served"] > 0
