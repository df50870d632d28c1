"""E4 (Section III-B): on-device drift detection and telemetry overhead.

Expected shape: drift detectors fire within a few windows of a covariate
shift with a low false-positive rate before it, and the telemetry payload a
device uploads is constant-size (sketches), orders of magnitude smaller than
shipping the raw window data to the cloud.

Perf guardrail: ``test_e4_batched_monitoring_speedup`` pits the one-sweep
fleet monitoring plane (vectorized column detectors + FleetMonitor) against
the seed-era per-device / per-column path on a 100-device fleet and must
stay >= 10x with identical drift decisions and byte-equal telemetry.
``test_e4_sketch_update_cost`` records the absolute per-observation cost of
the scalar-state P² kernel and the per-device-window cost of
``TelemetryRecorder.record_batch`` against the formulations they replaced
(kept as oracles in ``tests/observability/test_sketch_kernels.py``); P² must
stay >= 3x cheaper than the ndarray oracle, marker for marker.
``test_e4_ks_kernel_cost`` replays an e0-shaped ``ks_statistic_columns``
call mix against the two-search tie-rank kernel it replaced (kept as an
oracle in ``tests/observability/test_ks_kernel.py``): byte-identical
statistics, >= 1.6x cheaper.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.observability.drift as drift_module
from repro.data import DriftingStream, DriftSpec, make_gaussian_blobs
from repro.observability import (
    EdgeMonitor,
    FleetMonitor,
    KSDetector,
    MMDDetector,
    PSIDetector,
    P2Quantile,
    TelemetryRecorder,
    ks_statistic_columns,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "observability"))
from test_sketch_kernels import (  # noqa: E402
    NdarrayP2Quantile,
    assert_p2_equal,
    parent_record_batch,
    parent_recorder,
    recorder_state,
)
from test_ks_kernel import parent_ks_columns, scipy_ks_statistic  # noqa: E402


@pytest.fixture(scope="module")
def drift_setup():
    ds = make_gaussian_blobs(4000, 10, 4, seed=0)
    reference = ds.x[:800]
    stream = DriftingStream(ds, batch_size=128, specs=[DriftSpec(start=15, kind="covariate", magnitude=2.0)], seed=1)
    windows = [x for x, _, _ in stream.batches(30)]
    return reference, windows


@pytest.mark.parametrize("detector_cls", [KSDetector, PSIDetector, MMDDetector])
def test_e4_detection_delay_and_fpr(benchmark, drift_setup, detector_cls):
    reference, windows = drift_setup

    def run():
        detector = detector_cls(reference)
        for window in windows:
            detector.check(window)
        return detector

    detector = benchmark(run)
    delay = detector.detection_delay(15)
    fpr = detector.false_positive_rate(15)
    benchmark.extra_info.update({"detector": detector_cls.name, "detection_delay_windows": delay, "false_positive_rate": fpr})
    assert delay is not None and delay <= 5
    assert fpr <= 0.2


def test_e4_telemetry_payload_is_constant_and_small(benchmark):
    """Telemetry sketch payload stays fixed regardless of query volume."""
    def run():
        recorder = TelemetryRecorder("dev-1", model_version="v1", num_classes=10)
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = 200
            recorder.record_batch(rng.uniform(0.001, 0.02, n), rng.uniform(0, 1e-3, n), np.full(n, 2e4), rng.integers(0, 10, n))
        return recorder

    recorder = benchmark(run)
    payload = recorder.estimated_payload_bytes()
    raw_bytes = recorder.n_queries * 10 * 8  # shipping ten float64 features per query instead
    benchmark.extra_info.update({
        "n_queries": recorder.n_queries,
        "payload_bytes": payload,
        "raw_upload_bytes": raw_bytes,
        "reduction_factor": raw_bytes / payload,
    })
    assert recorder.n_queries == 10000
    assert payload < 1024
    assert raw_bytes / payload > 100


def test_e4_edge_monitor_throughput(benchmark, drift_setup):
    """Per-window monitoring cost of the combined EdgeMonitor (drift + telemetry)."""
    reference, windows = drift_setup
    monitor = EdgeMonitor("dev-1", reference, reference_predictions=np.zeros(len(reference), dtype=int), num_classes=4, detectors=("ks",))

    def observe():
        for window in windows[:10]:
            monitor.observe_window(window, predictions=np.zeros(len(window), dtype=int), latencies=np.full(len(window), 0.01))

    benchmark(observe)
    benchmark.extra_info["windows_per_call"] = 10


def _monitor_fleet(reference, ref_preds, n_devices, engine):
    return {
        f"dev-{i}": EdgeMonitor(
            f"dev-{i}",
            reference,
            reference_predictions=ref_preds,
            num_classes=4,
            detectors=("ks", "psi"),
            engine=engine,
        )
        for i in range(n_devices)
    }


def _fleet_traffic(n_devices, n_windows, window, n_features, seed=0):
    """Per-window fleet traffic with a covariate shift on half the devices."""
    rng = np.random.default_rng(seed)
    traffic = []
    for w in range(n_windows):
        windows, preds, lats = {}, {}, {}
        for i in range(n_devices):
            shift = 2.0 if (w >= n_windows // 2 and i % 2 == 0) else 0.0
            windows[f"dev-{i}"] = rng.normal(loc=shift, size=(window, n_features))
            preds[f"dev-{i}"] = rng.integers(0, 4, window)
            lats[f"dev-{i}"] = rng.uniform(0.001, 0.01, window)
        traffic.append((windows, preds, lats))
    return traffic


def test_e4_batched_monitoring_speedup(benchmark, smoke_mode, monkeypatch):
    """One-sweep fleet monitoring vs per-device/per-column (>=10x guardrail).

    Two identical 100-device fleets observe the same traffic: one through
    FleetMonitor's stacked vectorized sweep, one through the seed-era loop —
    per device, per window, one scipy ks_2samp + two np.histogram calls per
    feature column.  ``src/`` no longer calls scipy, so the seed-era side
    runs the oracle detectors with ``drift.ks_statistic`` swapped for the
    seed-era function (``scipy_ks_statistic``, kept in
    ``tests/observability/test_ks_kernel.py``).  A third fleet runs the
    oracle detectors as they are, with the NumPy ``ks_statistic``; its
    ratio is reported as ``speedup_vs_numpy_oracle`` and not gated.  Drift
    decisions and statistics must agree (allclose; they are bit-identical in
    practice) and telemetry payloads must be byte-equal, while the sweep is
    at least an order of magnitude faster than the seed-era loop.
    """
    n_devices = 100
    n_windows = 2 if smoke_mode else 4
    window = 32 if smoke_mode else 64
    n_features = 10
    rng = np.random.default_rng(3)
    reference = rng.normal(size=(256 if smoke_mode else 512, n_features))
    ref_preds = rng.integers(0, 4, len(reference))
    traffic = _fleet_traffic(n_devices, n_windows, window, n_features)

    def observe_per_device(monitors, windows, preds, lats=None):
        for device_id, x in windows.items():
            monitors[device_id].observe_window(
                x, predictions=preds[device_id], latencies=None if lats is None else lats[device_id]
            )

    def time_per_device(monitors):
        t0 = time.perf_counter()
        for windows, preds, lats in traffic:
            observe_per_device(monitors, windows, preds, lats)
        return time.perf_counter() - t0

    def scenario():
        # Warm every path so one-time costs (reference sorting, imports)
        # don't skew the ratios.
        warm_windows, warm_preds, _ = _fleet_traffic(4, 1, 8, n_features, seed=9)[0]
        FleetMonitor(_monitor_fleet(reference, ref_preds, 4, "batched")).observe_fleet(
            warm_windows, predictions=warm_preds
        )
        observe_per_device(_monitor_fleet(reference, ref_preds, 4, "oracle"), warm_windows, warm_preds)
        with monkeypatch.context() as patch:
            patch.setattr(drift_module, "ks_statistic", scipy_ks_statistic)
            observe_per_device(_monitor_fleet(reference, ref_preds, 4, "oracle"), warm_windows, warm_preds)

        fleet_side = _monitor_fleet(reference, ref_preds, n_devices, engine="batched")
        legacy_side = _monitor_fleet(reference, ref_preds, n_devices, engine="oracle")
        numpy_side = _monitor_fleet(reference, ref_preds, n_devices, engine="oracle")
        fm = FleetMonitor(fleet_side)
        t0 = time.perf_counter()
        for windows, preds, lats in traffic:
            fm.observe_fleet(windows, predictions=preds, latencies=lats)
        t_batched = time.perf_counter() - t0
        with monkeypatch.context() as patch:
            patch.setattr(drift_module, "ks_statistic", scipy_ks_statistic)
            t_legacy = time_per_device(legacy_side)
        t_numpy = time_per_device(numpy_side)

        identical_decisions = True
        stats_close = True
        telemetry_equal = True
        n_drifted = 0
        for device_id in fleet_side:
            a = fleet_side[device_id]
            n_drifted += bool(a.any_drift())
            for b in (legacy_side[device_id], numpy_side[device_id]):
                identical_decisions &= a.drift_events == b.drift_events
                for name in a.detectors:
                    ha = a.detectors[name].history
                    hb = b.detectors[name].history
                    identical_decisions &= [r.drifted for r in ha] == [r.drifted for r in hb]
                    stats_close &= bool(
                        np.allclose([r.statistic for r in ha], [r.statistic for r in hb], atol=1e-12)
                    )
                telemetry_equal &= a.build_report().as_dict() == b.build_report().as_dict()
        return {
            "n_devices": n_devices,
            "n_windows": n_windows,
            "window": window,
            "batched_s": t_batched,
            "legacy_s": t_legacy,
            "numpy_oracle_s": t_numpy,
            "speedup": t_legacy / max(t_batched, 1e-12),
            "speedup_vs_numpy_oracle": t_numpy / max(t_batched, 1e-12),
            "devices_with_drift": n_drifted,
            "identical_decisions": identical_decisions,
            "stats_close": stats_close,
            "telemetry_equal": telemetry_equal,
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["identical_decisions"], "fleet sweep changed a drift decision"
    assert result["stats_close"], "fleet sweep statistics diverged from the oracle"
    assert result["telemetry_equal"], "fleet sweep telemetry payload differs"
    assert result["devices_with_drift"] >= n_devices // 2  # the injected shift is seen
    assert result["speedup"] >= 10.0, f"fleet sweep only {result['speedup']:.1f}x faster"


def test_e4_sketch_update_cost(benchmark, smoke_mode):
    """Absolute sketch-kernel cost on a monitored window (>=3x P² guardrail).

    The shape is e0's ``serve_monitored``: 300 devices, ~40 served queries
    per device-window, latency/energy/memory channels plus predictions.
    Recorded: µs per P² observation and µs per ``record_batch`` device-window
    for the live kernels and for the replaced formulations, which must leave
    identical markers / telemetry state behind.
    """
    n_devices = 60 if smoke_mode else 300
    n_windows = 6 if smoke_mode else 12
    window = 40
    rng = np.random.default_rng(4)
    batches = [
        [
            (rng.uniform(0.001, 0.02, window), np.full(window, 0.01), np.full(window, 1e5), rng.integers(0, 10, window))
            for _ in range(n_devices)
        ]
        for _ in range(n_windows)
    ]

    def p2_pass(cls):
        sketches = [cls(0.95) for _ in range(n_devices)]
        t0 = time.perf_counter()
        for batch in batches:
            for sketch, (latencies, _, _, _) in zip(sketches, batch):
                sketch.update(latencies)
        return sketches, (time.perf_counter() - t0) / (n_devices * n_windows * window) * 1e6

    def record_pass(make, record):
        recorders = [make(f"dev-{i}", num_classes=10) for i in range(n_devices)]
        t0 = time.perf_counter()
        for batch in batches:
            for recorder, channels in zip(recorders, batch):
                record(recorder, *channels)
        return recorders, (time.perf_counter() - t0) / (n_devices * n_windows) * 1e6

    def scenario():
        p2_pass(P2Quantile)  # warm
        new_p2, p2_us = min((p2_pass(P2Quantile) for _ in range(3)), key=lambda r: r[1])
        old_p2, p2_oracle_us = min((p2_pass(NdarrayP2Quantile) for _ in range(2)), key=lambda r: r[1])
        new_rec, rec_us = min(
            (record_pass(TelemetryRecorder, TelemetryRecorder.record_batch) for _ in range(3)), key=lambda r: r[1]
        )
        old_rec, rec_oracle_us = min(
            (record_pass(parent_recorder, parent_record_batch) for _ in range(2)), key=lambda r: r[1]
        )
        for new, old in zip(new_p2, old_p2):
            assert_p2_equal(new, old)
        for new, old in zip(new_rec, old_rec):
            assert recorder_state(new) == recorder_state(old), "block-reduced record_batch diverged"
        return {
            "n_devices": n_devices,
            "observations_per_window": window,
            "p2_us_per_observation": p2_us,
            "p2_oracle_us_per_observation": p2_oracle_us,
            "p2_speedup": p2_oracle_us / max(p2_us, 1e-12),
            "record_batch_us_per_device_window": rec_us,
            "record_batch_oracle_us_per_device_window": rec_oracle_us,
            "record_batch_speedup": rec_oracle_us / max(rec_us, 1e-12),
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["p2_speedup"] >= 3.0, f"P² update only {result['p2_speedup']:.1f}x cheaper than the oracle"
    assert result["record_batch_speedup"] >= 2.0, (
        f"record_batch only {result['record_batch_speedup']:.1f}x cheaper than the per-channel path"
    )


def test_e4_ks_kernel_cost(benchmark, smoke_mode):
    """KS column-kernel cost on e0's call mix (>= 1.6x guardrail).

    The shape is e0's ``serve_monitored`` sweep: one 300x16 reference
    shared by a bucket of g in [1, 20] devices with m in [2, 60] rows each.
    A quarter of the live values repeat a reference value and windows hold
    repeated rows, so the tie paths run.  Every call must return the same
    bytes as the replaced kernel.
    """
    n_calls = 60 if smoke_mode else 300
    rng = np.random.default_rng(5)
    ref_sorted = np.sort(rng.normal(size=(300, 16)), axis=0)
    calls = []
    for _ in range(n_calls):
        g, m = int(rng.integers(1, 21)), int(rng.integers(2, 61))
        live = rng.normal(loc=rng.choice([0.0, 0.0, 0.0, 1.0]), size=(m, g * 16))
        ties = rng.random(live.shape) < 0.25
        live[ties] = ref_sorted[rng.integers(0, 300, ties.sum()), np.nonzero(ties)[1] % 16]
        live[1::3] = live[::3][: len(live[1::3])]
        calls.append(live)

    def sweep(kernel):
        t0 = time.perf_counter()
        out = [kernel(ref_sorted, live) for live in calls]
        return out, time.perf_counter() - t0

    def scenario():
        sweep(ks_statistic_columns)  # warm
        new_times, old_times = [], []
        for _ in range(3):  # alternate, keep the best of each
            new_out, seconds = sweep(ks_statistic_columns)
            new_times.append(seconds)
            old_out, seconds = sweep(parent_ks_columns)
            old_times.append(seconds)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(new_out, old_out)), "KS kernel diverged"
        new_s, old_s = min(new_times), min(old_times)
        return {
            "n_calls": n_calls,
            "ks_us_per_call": new_s / n_calls * 1e6,
            "ks_oracle_us_per_call": old_s / n_calls * 1e6,
            "ks_speedup": old_s / max(new_s, 1e-12),
        }

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["ks_speedup"] >= 1.6, f"KS kernel only {result['ks_speedup']:.2f}x cheaper than the oracle"
