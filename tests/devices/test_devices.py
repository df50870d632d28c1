"""Tests for device profiles, cost models, battery, network and fleet."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import (
    Battery,
    ConnectivityTrace,
    CostModel,
    DeviceClass,
    EdgeDevice,
    Fleet,
    InstalledArtifact,
    NetworkCondition,
    NetworkType,
    PowerState,
    get_profile,
    list_profiles,
    model_flops_and_bytes,
    random_fleet_profiles,
)
from repro.nn import make_mlp


class TestProfiles:
    def test_catalog_lookup(self):
        assert get_profile("mcu-m0").device_class == DeviceClass.MCU
        assert "phone-flagship" in list_profiles()
        with pytest.raises(KeyError):
            get_profile("quantum-pc")

    def test_capability_queries(self):
        mcu = get_profile("mcu-m0")
        server = get_profile("edge-server")
        assert not mcu.supports_op("conv2d")
        assert server.supports_op("conv2d")
        assert mcu.supports_bitwidth(8) and not mcu.supports_bitwidth(32)

    def test_random_fleet_mix(self):
        profiles = random_fleet_profiles(200, seed=0)
        names = {p.name for p in profiles}
        assert len(profiles) == 200
        assert len(names) >= 3


class TestCostModel:
    def test_latency_monotonic_in_device_speed(self, trained_mlp):
        cm = CostModel()
        slow = cm.model_inference_cost(get_profile("mcu-m0"), trained_mlp).latency_s
        fast = cm.model_inference_cost(get_profile("edge-server"), trained_mlp).latency_s
        assert slow > fast

    def test_native_low_precision_is_faster(self, trained_mlp):
        cm = CostModel()
        phone = get_profile("phone-mid")  # supports 8-bit natively
        fp32 = cm.model_inference_cost(phone, trained_mlp, bits=32).latency_s
        int8 = cm.model_inference_cost(phone, trained_mlp, bits=8).latency_s
        assert int8 < fp32

    def test_unsupported_precision_pays_penalty(self, trained_mlp):
        cm = CostModel()
        mcu = get_profile("mcu-m4")  # no 2-bit support
        int8 = cm.model_inference_cost(mcu, trained_mlp, bits=8)
        int2 = cm.model_inference_cost(mcu, trained_mlp, bits=2)
        assert int2.latency_s >= int8.latency_s

    def test_flops_estimator_positive(self, trained_cnn):
        flops, bytes_moved, peak = model_flops_and_bytes(trained_cnn)
        assert flops > 0 and bytes_moved > 0 and peak > 0

    def test_transmission_cost_offline(self):
        cm = CostModel()
        cost = cm.transmission_cost(get_profile("mcu-m4"), 1e6, 0.0)
        assert cost.latency_s == float("inf")

    def test_shape_products_bit_equal_to_numpy_prod(self, trained_mlp, trained_cnn, blobs, digits, monkeypatch):
        # ``model_flops_and_bytes`` multiplies 1-3-element shape tuples with
        # ``math.prod``; the ``np.prod`` formulation it replaced must give the
        # same ExecutionCost to the bit, for every variant x profile x bits.
        import types

        from repro.devices import cost as cost_module
        from repro.optimize import VariantGenerator

        profiles = [get_profile(name) for name in list_profiles()]
        cases = []
        for model, (_, test) in ((trained_mlp, blobs), (trained_cnn, digits)):
            variants = VariantGenerator().generate(model, test.x[:40], test.y[:40], profiles[:1], bit_widths=(8, 4, 2), sparsities=(0.5,))
            cases += [(v.model, bits) for v in variants for bits in (32, 8, 4, 2)]
        cm = CostModel()

        def sweep():
            walks = [model_flops_and_bytes(model, bits=bits) for model, bits in cases]
            costs = [cm.model_inference_cost(profile, model, bits=bits) for profile in profiles for model, bits in cases]
            return walks, costs

        walks, costs = sweep()
        monkeypatch.setattr(cost_module, "math", types.SimpleNamespace(prod=np.prod))
        reference_walks, reference_costs = sweep()
        assert len(costs) == len(profiles) * len(cases) and len(cases) >= 32
        assert walks == reference_walks and costs == reference_costs


class TestBattery:
    def test_draw_and_deplete(self):
        b = Battery(capacity_j=10.0)
        assert b.draw(4.0) and b.level_j == 6.0
        assert not b.draw(100.0)
        assert b.state == PowerState.DEPLETED

    def test_plugged_in_never_depletes(self):
        b = Battery(capacity_j=10.0, plugged_in=True)
        assert b.draw(1e9)
        assert b.state == PowerState.PLUGGED_IN

    def test_low_power_state(self):
        b = Battery(capacity_j=100.0, level_j=10.0)
        assert b.state == PowerState.LOW_POWER

    def test_advance_charges_when_plugged(self):
        b = Battery(capacity_j=100.0, level_j=10.0, plugged_in=True, charge_rate_w=10.0)
        b.advance(5.0)
        assert b.level_j == 60.0

    def test_advance_idle_drain(self):
        b = Battery(capacity_j=100.0, level_j=50.0, idle_draw_w=1.0)
        b.advance(10.0)
        assert b.level_j == 40.0

    def test_infinite_capacity(self):
        b = Battery(capacity_j=float("inf"))
        assert b.state_of_charge == 1.0 and b.draw(1e12)

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            Battery().draw(-1.0)


class TestBatteryBatch:
    def test_full_fit_matches_repeated_draws_exactly(self):
        # Binary-exact energy: repeated subtraction and one multiply-subtract
        # are bit-identical.
        loop = Battery(capacity_j=64.0)
        batch = Battery(capacity_j=64.0)
        assert all(loop.draw(0.5) for _ in range(100))
        assert batch.draw_batch(0.5, 100) == 100
        assert batch.level_j == loop.level_j == 14.0

    def test_partial_fit_drains_to_zero(self):
        b = Battery(capacity_j=10.0)
        assert b.draw_batch(3.0, 5) == 3
        assert b.level_j == 0.0
        assert b.state == PowerState.DEPLETED

    def test_partial_fit_count_matches_loop(self):
        loop = Battery(capacity_j=10.0)
        n_ok = sum(1 for _ in range(5) if loop.draw(3.0))
        batch = Battery(capacity_j=10.0)
        assert batch.draw_batch(3.0, 5) == n_ok == 3
        assert batch.level_j == loop.level_j == 0.0

    def test_plugged_and_infinite_always_fit(self):
        assert Battery(capacity_j=10.0, plugged_in=True).draw_batch(1e9, 1000) == 1000
        assert Battery(capacity_j=float("inf")).draw_batch(1e9, 1000) == 1000

    def test_zero_energy_and_zero_batch(self):
        b = Battery(capacity_j=10.0)
        assert b.draw_batch(0.0, 50) == 50
        assert b.draw_batch(1.0, 0) == 0
        assert b.level_j == 10.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            Battery().draw_batch(-1.0, 5)
        with pytest.raises(ValueError):
            Battery().draw_batch(1.0, -5)

    def test_execute_batch_counts_and_aggregated_telemetry(self, trained_mlp):
        device = EdgeDevice("d1", get_profile("phone-mid"))
        device.battery.plugged_in = True
        cost = CostModel().model_inference_cost(device.profile, trained_mlp)
        ran = device.execute_batch(cost, 500)
        assert ran == 500 and device.query_count == 500
        assert len(device.telemetry_log) == 1
        assert device.telemetry_log[0]["count"] == 500.0
        assert device.execute_batch(cost, 10, record=False) == 10
        assert len(device.telemetry_log) == 1

    def test_execute_batch_battery_limited(self, trained_mlp):
        device = EdgeDevice("d1", get_profile("phone-mid"))
        cost = CostModel().model_inference_cost(device.profile, trained_mlp)
        device.battery.capacity_j = device.battery.level_j = cost.energy_j * 8
        ran = device.execute_batch(cost, 20, record=False)
        assert ran == 8 and device.query_count == 8
        assert device.battery.level_j == 0.0


class TestNetwork:
    def test_condition_factory(self):
        wifi = NetworkCondition.of(NetworkType.WIFI)
        offline = NetworkCondition.of(NetworkType.OFFLINE)
        assert wifi.online and not offline.online
        assert offline.transfer_time(100) == float("inf")

    def test_transfer_time_scales_with_payload(self):
        cell = NetworkCondition.of(NetworkType.CELLULAR)
        assert cell.transfer_time(1e6) > cell.transfer_time(1e3)

    def test_metered_flag(self):
        assert NetworkCondition.of(NetworkType.CELLULAR).metered
        assert not NetworkCondition.of(NetworkType.WIFI).metered

    def test_trace_is_deterministic(self):
        a = [c.kind for c in ConnectivityTrace(seed=5).sample(20)]
        b = [c.kind for c in ConnectivityTrace(seed=5).sample(20)]
        assert a == b

    def test_trace_visits_multiple_states(self):
        kinds = {c.kind for c in ConnectivityTrace(seed=1).sample(300)}
        assert len(kinds) >= 2

    def test_trace_invalid_matrix(self):
        with pytest.raises(ValueError):
            ConnectivityTrace(transition=np.zeros((2, 2)), states=("offline", "wifi"))


class TestFleetAndEvents:
    def test_fleet_random_composition(self):
        fleet = Fleet.random(60, seed=0)
        assert len(fleet) == 60
        assert sum(fleet.class_histogram().values()) == 60

    def test_install_and_storage_limits(self):
        device = EdgeDevice("d1", get_profile("mcu-m0"))
        device.install(InstalledArtifact("m", "1", size_bytes=1000))
        assert device.free_flash() == get_profile("mcu-m0").flash_bytes - 1000
        with pytest.raises(MemoryError):
            device.install(InstalledArtifact("big", "1", size_bytes=10**9))

    def test_install_replaces_same_artifact(self):
        device = EdgeDevice("d1", get_profile("mcu-m4"))
        device.install(InstalledArtifact("m", "1", size_bytes=1000))
        device.install(InstalledArtifact("m", "2", size_bytes=2000))
        assert device.installed["m"].version == "2"

    def test_execute_drains_battery_and_logs(self, trained_mlp):
        device = EdgeDevice("d1", get_profile("mcu-m4"))
        cost = CostModel().model_inference_cost(device.profile, trained_mlp)
        ok = device.execute(cost)
        assert ok and device.query_count == 1
        assert len(device.telemetry_log) == 1

    def test_training_eligibility(self):
        device = EdgeDevice("d1", get_profile("phone-mid"))
        device.idle = True
        device.battery.plugged_in = True
        device.network = NetworkCondition.of(NetworkType.WIFI)
        assert device.is_eligible_for_training()
        device.network = NetworkCondition.of(NetworkType.CELLULAR)
        assert not device.is_eligible_for_training()

    def test_fleet_selectors(self):
        fleet = Fleet.random(40, seed=3)
        assert all(d.network.online for d in fleet.online())
        assert set(fleet.summary()) >= {"n_devices", "classes", "online_fraction"}

    def test_rows_for_matches_row_of_in_the_given_order(self):
        fleet = Fleet.random(12, seed=4)
        ids = [d.device_id for d in fleet]
        assert [fleet.row_of(i) for i in ids] == list(range(12))
        picked = [ids[7], ids[2], ids[7], ids[0]]
        rows = fleet.rows_for(picked)
        assert rows.dtype == np.intp and rows.tolist() == [7, 2, 7, 0]
        assert fleet.rows_for([]).tolist() == []
        with pytest.raises(KeyError):
            fleet.row_of("ghost")
        with pytest.raises(KeyError):
            fleet.rows_for([ids[0], "ghost"])
