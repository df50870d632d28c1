"""FleetMonitor: one-sweep fleet drift monitoring vs per-device observation.

The sweep must leave every per-device EdgeMonitor in *exactly* the state a
per-device ``observe_window`` loop would: identical DriftResult statistics
and histories, identical drift events (including window indices) and
byte-equal telemetry payloads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.observability import EdgeMonitor, FleetMonitor


def make_monitors(ref, ref_preds, n_devices=12, detectors=("ks", "psi", "js"), **kwargs):
    return {
        f"dev-{i}": EdgeMonitor(
            f"dev-{i}",
            ref,
            reference_predictions=ref_preds,
            num_classes=5,
            detectors=detectors,
            **kwargs,
        )
        for i in range(n_devices)
    }


def make_traffic(rng, device_ids, n_windows=3, widths=(24,), n_features=8, drift_from=2):
    """Per-window traffic dicts; devices cycle through the window widths."""
    traffic = []
    for w in range(n_windows):
        shift = 2.0 if w >= drift_from else 0.0
        windows, preds, lats = {}, {}, {}
        for i, device_id in enumerate(device_ids):
            n = widths[i % len(widths)]
            windows[device_id] = rng.normal(loc=shift * (i % 2), size=(n, n_features))
            preds[device_id] = rng.integers(0, 5, n)
            lats[device_id] = rng.uniform(0.001, 0.01, n)
        traffic.append((windows, preds, lats))
    return traffic


def _nan_safe(obj):
    """Replace NaN floats (p95 of an empty recorder) so == compares sanely."""
    if isinstance(obj, dict):
        return {k: _nan_safe(v) for k, v in obj.items()}
    if isinstance(obj, float) and np.isnan(obj):
        return "nan"
    return obj


def assert_monitor_states_identical(fleet_monitors, solo_monitors):
    for device_id, a in fleet_monitors.items():
        b = solo_monitors[device_id]
        assert a.drift_events == b.drift_events
        for name in a.detectors:
            ha = [(r.statistic, r.drifted) for r in a.detectors[name].history]
            hb = [(r.statistic, r.drifted) for r in b.detectors[name].history]
            assert ha == hb, (device_id, name)
        if a.prediction_monitor is not None:
            ha = [(r.statistic, r.drifted) for r in a.prediction_monitor.history]
            hb = [(r.statistic, r.drifted) for r in b.prediction_monitor.history]
            assert ha == hb, device_id
        assert _nan_safe(a.build_report().as_dict()) == _nan_safe(b.build_report().as_dict())


class TestFleetSweepEquivalence:
    def test_homogeneous_fleet(self, rng):
        ref = rng.normal(size=(150, 8))
        ref_preds = rng.integers(0, 5, 150)
        fleet_side = make_monitors(ref, ref_preds)
        solo_side = make_monitors(ref, ref_preds)
        fm = FleetMonitor(fleet_side)
        for windows, preds, lats in make_traffic(rng, list(fleet_side)):
            results = fm.observe_fleet(windows, predictions=preds, latencies=lats)
            for device_id, x in windows.items():
                solo = solo_side[device_id].observe_window(
                    x, predictions=preds[device_id], latencies=lats[device_id]
                )
                assert {k: (v.statistic, v.drifted) for k, v in results[device_id].items()} == {
                    k: (v.statistic, v.drifted) for k, v in solo.items()
                }
        assert_monitor_states_identical(fleet_side, solo_side)

    def test_heterogeneous_window_lengths_bucket_separately(self, rng):
        ref = rng.normal(size=(120, 6))
        ref_preds = rng.integers(0, 5, 120)
        fleet_side = make_monitors(ref, ref_preds)
        solo_side = make_monitors(ref, ref_preds)
        fm = FleetMonitor(fleet_side)
        for windows, preds, lats in make_traffic(
            rng, list(fleet_side), widths=(16, 31, 7), n_features=6
        ):
            fm.observe_fleet(windows, predictions=preds, latencies=lats)
            for device_id, x in windows.items():
                solo_side[device_id].observe_window(
                    x, predictions=preds[device_id], latencies=lats[device_id]
                )
        assert_monitor_states_identical(fleet_side, solo_side)

    def test_mmd_detector_runs_per_device(self, rng):
        ref = rng.normal(size=(80, 4))
        fleet_side = make_monitors(ref, None, n_devices=4, detectors=("ks", "mmd"))
        solo_side = make_monitors(ref, None, n_devices=4, detectors=("ks", "mmd"))
        fm = FleetMonitor(fleet_side)
        windows = {d: rng.normal(size=(20, 4)) for d in fleet_side}
        fm.observe_fleet(windows)
        for d, x in windows.items():
            solo_side[d].observe_window(x)
        assert_monitor_states_identical(fleet_side, solo_side)

    def test_oracle_mode_monitors_still_sweep_correctly(self, rng):
        """engine="oracle" monitors fall back per-device inside the sweep."""
        ref = rng.normal(size=(60, 5))
        fleet_side = make_monitors(ref, None, n_devices=3, detectors=("ks",), engine="oracle")
        solo_side = make_monitors(ref, None, n_devices=3, detectors=("ks",), engine="oracle")
        fm = FleetMonitor(fleet_side)
        windows = {d: rng.normal(loc=1.0, size=(15, 5)) for d in fleet_side}
        fm.observe_fleet(windows)
        for d, x in windows.items():
            solo_side[d].observe_window(x)
        assert_monitor_states_identical(fleet_side, solo_side)

    def test_different_references_do_not_stack(self, rng):
        """Monitors with different references must bucket apart (and stay correct)."""
        ref_a = rng.normal(size=(70, 4))
        ref_b = rng.normal(loc=5.0, size=(70, 4))
        fleet_side = {
            "dev-a": EdgeMonitor("dev-a", ref_a, detectors=("ks",)),
            "dev-b": EdgeMonitor("dev-b", ref_b, detectors=("ks",)),
        }
        solo_side = {
            "dev-a": EdgeMonitor("dev-a", ref_a, detectors=("ks",)),
            "dev-b": EdgeMonitor("dev-b", ref_b, detectors=("ks",)),
        }
        fm = FleetMonitor(fleet_side)
        x = rng.normal(size=(25, 4))
        fm.observe_fleet({"dev-a": x, "dev-b": x})
        solo_side["dev-a"].observe_window(x)
        solo_side["dev-b"].observe_window(x)
        assert_monitor_states_identical(fleet_side, solo_side)
        # same live window, different references: statistics must differ
        sa = fleet_side["dev-a"].detectors["ks"].history[0].statistic
        sb = fleet_side["dev-b"].detectors["ks"].history[0].statistic
        assert sa != sb

    def test_empty_windows_skipped(self, rng):
        ref = rng.normal(size=(40, 3))
        monitors = make_monitors(ref, None, n_devices=2, detectors=("ks",))
        fm = FleetMonitor(monitors)
        results = fm.observe_fleet({"dev-0": np.empty((0, 3)), "dev-1": rng.normal(size=(10, 3))})
        assert "dev-0" not in results and "dev-1" in results
        assert len(monitors["dev-0"].detectors["ks"].history) == 0

    def test_missing_predictions_for_some_devices(self, rng):
        ref = rng.normal(size=(60, 4))
        ref_preds = rng.integers(0, 5, 60)
        fleet_side = make_monitors(ref, ref_preds, n_devices=3, detectors=("ks",))
        solo_side = make_monitors(ref, ref_preds, n_devices=3, detectors=("ks",))
        fm = FleetMonitor(fleet_side)
        windows = {d: rng.normal(size=(12, 4)) for d in fleet_side}
        preds = {"dev-0": rng.integers(0, 5, 12)}  # only one device reports preds
        fm.observe_fleet(windows, predictions=preds)
        for d, x in windows.items():
            solo_side[d].observe_window(x, predictions=preds.get(d))
        assert_monitor_states_identical(fleet_side, solo_side)


class TestWindowCounterFix:
    def test_window_index_without_detectors(self, rng):
        """Prediction-only monitors must record the true window index."""
        ref_preds = rng.integers(0, 3, 300)
        monitor = EdgeMonitor("dev-0", rng.normal(size=(50, 4)), reference_predictions=ref_preds,
                              num_classes=3, detectors=())
        monitor.observe_window(rng.normal(size=(20, 4)), predictions=rng.integers(0, 3, 20))
        monitor.observe_window(rng.normal(size=(20, 4)), predictions=rng.integers(0, 3, 20))
        monitor.observe_window(rng.normal(size=(20, 4)), predictions=np.zeros(20, dtype=int))
        assert monitor.any_drift()
        assert monitor.drift_events[-1]["window"] == 2  # was always 0 before the fix
        assert monitor.drift_events[-1]["detectors"] == ["prediction"]

    def test_window_index_matches_detector_history(self, rng):
        monitor = EdgeMonitor("dev-0", rng.normal(size=(50, 4)), detectors=("ks",))
        for i in range(3):
            monitor.observe_window(rng.normal(loc=3.0 * (i == 2), size=(25, 4)))
        assert monitor.drift_events[-1]["window"] == len(monitor.detectors["ks"].history) - 1
