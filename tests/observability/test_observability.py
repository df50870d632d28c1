"""Tests for drift detectors, sketches, telemetry, privacy and alerting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DriftingStream, DriftSpec, make_gaussian_blobs
from repro.observability import (
    AlertEngine,
    AlertRule,
    CountMinSketch,
    EdgeMonitor,
    JSDetector,
    KSDetector,
    MMDDetector,
    P2Quantile,
    PredictionDistributionMonitor,
    PSIDetector,
    QueryRecord,
    ReservoirSample,
    RunningMoments,
    TelemetryAggregator,
    TelemetryRecorder,
    debias_histogram,
    epsilon_for_flip_probability,
    jensen_shannon_divergence,
    ks_statistic,
    laplace_mechanism,
    mmd_rbf,
    population_stability_index,
    privatize_histogram,
    randomized_response,
)


class TestDistances:
    def test_identical_samples_near_zero(self, rng):
        x = rng.normal(size=2000)
        stat, p = ks_statistic(x[:1000], x[1000:])
        assert stat < 0.1 and p > 0.01
        assert population_stability_index(x[:1000], x[1000:]) < 0.1
        assert jensen_shannon_divergence(x[:1000], x[1000:]) < 0.1

    def test_shifted_samples_large_distance(self, rng):
        a = rng.normal(size=1000)
        b = rng.normal(loc=3.0, size=1000)
        assert ks_statistic(a, b)[0] > 0.5
        assert population_stability_index(a, b) > 1.0
        assert jensen_shannon_divergence(a, b) > 0.3

    def test_mmd_detects_multivariate_shift(self, rng):
        a = rng.normal(size=(300, 5))
        b = rng.normal(size=(300, 5))
        c = rng.normal(loc=1.5, size=(300, 5))
        assert mmd_rbf(a, c, seed=0) > mmd_rbf(a, b, seed=0)

    def test_empty_inputs(self):
        stat, p = ks_statistic(np.array([]), np.array([1.0]))
        assert stat == 0.0 and p == 1.0


class TestStreamingDetectors:
    @pytest.mark.parametrize("detector_cls", [KSDetector, PSIDetector, JSDetector, MMDDetector])
    def test_detects_covariate_drift(self, detector_cls):
        ds = make_gaussian_blobs(2000, 8, 3, seed=0)
        detector = detector_cls(ds.x[:500])
        stream = DriftingStream(ds, batch_size=128, specs=[DriftSpec(start=10, magnitude=2.5)], seed=1)
        for x, _, _ in stream.batches(20):
            detector.check(x)
        assert detector.detection_delay(10) is not None
        assert detector.false_positive_rate(10) <= 0.2

    def test_no_drift_no_alarm(self):
        ds = make_gaussian_blobs(2000, 8, 3, seed=0)
        detector = KSDetector(ds.x[:500])
        stream = DriftingStream(ds, batch_size=128, seed=2)
        for x, _, _ in stream.batches(15):
            detector.check(x)
        assert detector.false_positive_rate() <= 0.2

    def test_prediction_distribution_monitor(self, rng):
        ref = rng.integers(0, 4, size=1000)
        monitor = PredictionDistributionMonitor(ref, num_classes=4)
        same = monitor.check(rng.integers(0, 4, size=200))
        skew = monitor.check(np.zeros(200, dtype=int))
        assert not same.drifted and skew.drifted

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            KSDetector(np.array([]))


class TestSketches:
    def test_running_moments_match_numpy(self, rng):
        values = rng.normal(3.0, 2.0, size=5000)
        m = RunningMoments()
        m.update_batch(values)
        assert m.mean == pytest.approx(values.mean())
        assert m.variance == pytest.approx(values.var(), rel=1e-6)

    def test_running_moments_merge_equals_bulk(self, rng):
        values = rng.normal(size=2000)
        a, b, c = RunningMoments(), RunningMoments(), RunningMoments()
        a.update_batch(values[:700])
        b.update_batch(values[700:])
        c.update_batch(values)
        a.merge(b)
        assert a.mean == pytest.approx(c.mean)
        assert a.variance == pytest.approx(c.variance, rel=1e-9)

    def test_running_moments_merge_stats_with_empty_sides(self, rng):
        values = rng.normal(size=50)
        m = RunningMoments()
        m.merge_stats(0, 123.0, 456.0)
        assert m.count == 0
        m.merge_stats(len(values), float(values.mean()), float(((values - values.mean()) ** 2).sum()))
        assert m.count == 50 and m.mean == pytest.approx(values.mean())
        assert m.variance == pytest.approx(values.var(), rel=1e-12)
        before = m.as_dict()
        assert m.merge_stats(0, 99.0, 99.0) is m and m.as_dict() == before

    def test_reservoir_capacity_and_coverage(self, rng):
        r = ReservoirSample(capacity=100, seed=0)
        r.update(np.arange(10000))
        assert len(r) == 100 and r.seen == 10000
        assert r.values().max() > 5000  # late items do get sampled

    def test_count_min_upper_bound(self):
        sketch = CountMinSketch(width=128, depth=4, seed=0)
        for i in range(50):
            sketch.add(f"item-{i % 5}")
        for i in range(5):
            assert sketch.estimate(f"item-{i}") >= 10

    def test_count_min_merge(self):
        a = CountMinSketch(width=64, depth=3, seed=1)
        b = CountMinSketch(width=64, depth=3, seed=1)
        a.add("x", 3)
        b.add("x", 4)
        a.merge(b)
        assert a.estimate("x") >= 7
        with pytest.raises(ValueError):
            a.merge(CountMinSketch(width=32, depth=3, seed=1))

    def test_p2_quantile_accuracy(self, rng):
        values = rng.normal(size=20000)
        q = P2Quantile(0.95)
        q.update(values)
        assert q.value == pytest.approx(np.quantile(values, 0.95), abs=0.08)

    def test_p2_quantile_few_samples(self):
        q = P2Quantile(0.5)
        q.update([1.0, 2.0, 3.0])
        assert q.value == pytest.approx(2.0)


class TestTelemetry:
    def test_recorder_constant_payload(self):
        rec = TelemetryRecorder("dev-1", model_version="v1", num_classes=4)
        size_before = rec.estimated_payload_bytes()
        for i in range(500):
            rec.record(QueryRecord(latency_s=0.01, energy_j=1e-3, memory_bytes=1e4, predicted_class=i % 4))
        assert rec.estimated_payload_bytes() == size_before
        report = rec.build_report()
        assert report.n_queries == 500
        assert sum(report.prediction_histogram.values()) == 500

    def test_aggregator_summary(self):
        agg = TelemetryAggregator()
        fast = TelemetryRecorder("fast", "v1", 2)
        slow = TelemetryRecorder("slow", "v1", 2)
        fast.record_batch(np.full(100, 0.001), np.zeros(100), np.zeros(100), np.zeros(100, dtype=int))
        slow.record_batch(np.full(100, 0.5), np.zeros(100), np.zeros(100), np.ones(100, dtype=int))
        agg.ingest(fast.build_report())
        agg.ingest(slow.build_report())
        summary = agg.fleet_summary()
        assert summary["n_devices"] == 2 and summary["n_queries"] == 200


class TestPrivacy:
    def test_randomized_response_flip_rate(self, rng):
        bits = rng.random(20000) < 0.5
        noisy = randomized_response(bits, epsilon=1.0, seed=0)
        flip_rate = np.mean(noisy != bits)
        expected = 1.0 / (np.exp(1.0) + 1.0)
        assert flip_rate == pytest.approx(expected, abs=0.02)

    def test_histogram_debiasing_recovers_distribution(self, rng):
        labels = rng.choice(4, size=20000, p=[0.5, 0.3, 0.15, 0.05])
        noisy = privatize_histogram(labels, 4, epsilon=1.5, seed=0)
        est = debias_histogram(noisy, 1.5)
        true = np.bincount(labels, minlength=4)
        np.testing.assert_allclose(est / est.sum(), true / true.sum(), atol=0.05)

    def test_epsilon_from_flip_probability(self):
        assert epsilon_for_flip_probability(0.25) == pytest.approx(np.log(3.0))
        with pytest.raises(ValueError):
            epsilon_for_flip_probability(0.6)

    def test_laplace_mechanism_noise_scale(self, rng):
        noisy = laplace_mechanism(np.zeros(20000), sensitivity=1.0, epsilon=2.0, seed=0)
        assert np.mean(np.abs(noisy)) == pytest.approx(0.5, abs=0.05)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            randomized_response(np.array([True]), epsilon=0.0)


class TestMonitorAndAlerts:
    def test_edge_monitor_detects_drift_and_records_telemetry(self):
        ds = make_gaussian_blobs(2000, 8, 3, seed=0)
        monitor = EdgeMonitor("dev-1", ds.x[:400], reference_predictions=ds.y[:400], num_classes=3, detectors=("ks",))
        stream = DriftingStream(ds, batch_size=96, specs=[DriftSpec(start=8, magnitude=2.5)], seed=3)
        for x, y, _ in stream.batches(16):
            monitor.observe_window(x, predictions=y, latencies=np.full(96, 0.01))
        assert monitor.any_drift()
        report = monitor.build_report()
        assert report.n_queries == 16 * 96

    def test_drift_events_since_hands_each_event_out_once(self):
        ds = make_gaussian_blobs(2000, 8, 3, seed=0)
        monitor = EdgeMonitor("dev-1", ds.x[:400], detectors=("ks",))
        stream = DriftingStream(ds, batch_size=96, specs=[DriftSpec(start=4, magnitude=2.5)], seed=3)
        batches = [x for x, _, _ in stream.batches(10)]
        for x in batches[:6]:
            monitor.observe_window(x)
        first, cursor = monitor.drift_events_since()
        assert first and cursor == len(first) == len(monitor.drift_events)
        assert [e["window"] for e in first] == sorted(e["window"] for e in first) and first[0]["window"] >= 4
        assert monitor.drift_events_since(cursor) == ([], cursor)
        for x in batches[6:]:
            monitor.observe_window(x)
        later, new_cursor = monitor.drift_events_since(cursor)
        assert first + later == monitor.drift_events and new_cursor == len(monitor.drift_events)
        assert all(e["window"] >= 6 for e in later)
        assert monitor.drift_events_since(-5)[0] == monitor.drift_events

    def test_edge_monitor_unknown_detector(self):
        with pytest.raises(KeyError):
            EdgeMonitor("d", np.zeros((10, 2)), detectors=("magic",))

    def test_alert_engine_rules(self):
        engine = AlertEngine.default_rules(latency_budget_s=0.05, drift_rate_threshold=0.3)
        ok = engine.evaluate({"latency_mean": 0.01, "drift_fraction": 0.0})
        assert ok == []
        raised = engine.evaluate({"latency_mean": 0.2, "drift_fraction": 0.5})
        assert {a.rule for a in raised} == {"latency_budget", "drift_rate"}
        assert len(engine.alerts) == 2

    def test_custom_alert_rule(self):
        rule = AlertRule("battery", lambda m: m.get("soc", 1.0) < 0.1, severity="critical")
        assert rule.evaluate({"soc": 0.05}) is not None
        assert rule.evaluate({"soc": 0.9}) is None


class TestBatchedSketches:
    """Bulk ingestion paths: CountMinSketch.add_batch, ReservoirSample.offer_batch,
    RunningMoments.update delegating arrays to the O(1) merge."""

    def test_count_min_add_batch_equals_sequential(self, rng):
        items = rng.integers(0, 12, size=4000)
        batch = CountMinSketch(width=64, depth=4, seed=2)
        seq = CountMinSketch(width=64, depth=4, seed=2)
        batch.add_batch(items)
        for item in items:
            seq.add(int(item))
        np.testing.assert_array_equal(batch.table, seq.table)
        assert batch.total == seq.total
        for cls in range(12):
            assert batch.estimate(cls) == seq.estimate(cls)
            assert batch.estimate(cls) >= int(np.count_nonzero(items == cls))

    def test_count_min_add_batch_with_counts(self, rng):
        items = rng.integers(0, 8, size=1000)
        values, counts = np.unique(items, return_counts=True)
        a = CountMinSketch(seed=5)
        b = CountMinSketch(seed=5)
        a.add_batch(items)
        b.add_batch(values, counts)
        np.testing.assert_array_equal(a.table, b.table)
        with pytest.raises(ValueError):
            a.add_batch(values, counts[:-1])

    def test_count_min_add_batch_rejects_non_integer(self):
        with pytest.raises(TypeError):
            CountMinSketch().add_batch(np.array([0.5, 1.5]))
        CountMinSketch().add_batch(np.array([], dtype=int))  # empty is a no-op

    def test_count_min_merge_rejects_any_parameter_mismatch(self):
        base = CountMinSketch(width=64, depth=4, seed=0)
        for other in (
            CountMinSketch(width=32, depth=4, seed=0),
            CountMinSketch(width=64, depth=2, seed=0),
            CountMinSketch(width=64, depth=4, seed=1),
        ):
            with pytest.raises(ValueError):
                base.merge(other)
        # exact-parameter merge still works and sums totals
        twin = CountMinSketch(width=64, depth=4, seed=0)
        twin.add(7, 3)
        base.add(7, 2)
        assert base.merge(twin).estimate(7) >= 5

    def test_reservoir_offer_batch_bookkeeping(self, rng):
        r = ReservoirSample(capacity=64, seed=0)
        for chunk in np.array_split(np.arange(30000, dtype=float), 5):
            r.offer_batch(chunk)
        assert len(r) == 64 and r.seen == 30000
        assert r.values().max() > 15000  # late items do get sampled

    def test_reservoir_offer_batch_small_batches_fill_first(self):
        r = ReservoirSample(capacity=10, seed=0)
        r.offer_batch(np.arange(4, dtype=float))
        assert len(r) == 4 and r.seen == 4
        r.offer_batch(np.arange(3, dtype=float))
        assert len(r) == 7
        np.testing.assert_array_equal(r.values(), [0, 1, 2, 3, 0, 1, 2])

    def test_reservoir_offer_batch_roughly_uniform(self):
        """Algorithm L inclusion probabilities: sampled-index mean ~ stream mean."""
        means = [
            ReservoirSample(capacity=64, seed=s) for s in range(40)
        ]
        for s, r in enumerate(means):
            r.offer_batch(np.arange(20000, dtype=float))
        grand = np.mean([r.values().mean() for r in means])
        assert abs(grand - 10000) < 1500

    def test_reservoir_mixing_scalar_and_batch(self):
        r = ReservoirSample(capacity=16, seed=3)
        r.update(np.arange(10, dtype=float))
        r.offer_batch(np.arange(200, dtype=float))
        r.update([5.0])
        r.offer_batch(np.arange(50, dtype=float))
        assert r.seen == 261 and len(r) == 16

    def test_reservoir_batch_after_scalar_fill_stays_uniform(self):
        """Regression: resuming Algorithm L mid-stream must not let the
        batch evict the earlier (scalar-fed) stream — W re-initializes from
        its position-t distribution, not the fill-time one."""
        fractions = []
        for s in range(60):
            r = ReservoirSample(capacity=32, seed=s)
            r.update(np.arange(5000, dtype=float))
            r.offer_batch(np.arange(5000, 10000, dtype=float))
            fractions.append(np.mean(r.values() >= 5000))
        assert 0.4 < np.mean(fractions) < 0.6

    def test_running_moments_array_update_delegates_to_merge(self, rng):
        values = rng.normal(2.0, 3.0, size=2500)
        via_update = RunningMoments()
        via_batch = RunningMoments()
        via_update.update(values)
        via_batch.update_batch(values)
        assert via_update.count == via_batch.count == 2500
        assert via_update.mean == via_batch.mean
        assert via_update.variance == via_batch.variance
        # scalar updates still use the Welford recurrence
        via_update.update(1.25)
        assert via_update.count == 2501


class TestDetectionMetricEdges:
    """detection_delay / false_positive_rate on empty and boundary histories."""

    def test_empty_history(self, rng):
        detector = KSDetector(rng.normal(size=(50, 2)))
        assert detector.detection_delay(0) is None
        assert detector.false_positive_rate() == 0.0
        assert detector.false_positive_rate(0) == 0.0

    def test_drift_at_index_zero(self, rng):
        detector = KSDetector(rng.normal(size=(200, 2)), threshold=0.2)
        detector.check(rng.normal(loc=5.0, size=(100, 2)))  # drifts immediately
        assert detector.detection_delay(0) == 0
        assert detector.false_positive_rate(0) == 0.0  # no pre-drift windows
        assert detector.false_positive_rate() == 1.0

    def test_missed_drift_returns_none(self, rng):
        detector = KSDetector(rng.normal(size=(200, 2)), threshold=0.99)
        for _ in range(5):
            detector.check(rng.normal(size=(100, 2)))
        assert detector.detection_delay(2) is None

    def test_delay_counts_from_onset(self, rng):
        detector = KSDetector(rng.normal(size=(300, 2)), threshold=0.25)
        for i in range(6):
            loc = 4.0 if i >= 4 else 0.0
            detector.check(rng.normal(loc=loc, size=(80, 2)))
        assert detector.detection_delay(2) == 2  # onset index 2, fires at 4
        assert detector.false_positive_rate(4) == 0.0


class TestAlertRuleEdges:
    def test_default_rules_cover_all_three_signals(self):
        engine = AlertEngine.default_rules(latency_budget_s=0.1, drift_rate_threshold=0.2)
        assert {r.name for r in engine.rules} == {"latency_budget", "drift_rate", "battery_failures"}
        raised = engine.evaluate(
            {"latency_mean": 0.5, "drift_fraction": 0.9, "failed_inference_fraction": 0.5}
        )
        assert {a.rule for a in raised} == {"latency_budget", "drift_rate", "battery_failures"}
        severities = {a.rule: a.severity for a in raised}
        assert severities["drift_rate"] == "critical"
        assert severities["latency_budget"] == "warning"

    def test_default_rules_ignore_missing_metrics(self):
        engine = AlertEngine.default_rules()
        assert engine.evaluate({}) == []  # absent metrics default to healthy
        assert engine.alerts == []

    def test_evaluate_attaches_context_and_message(self):
        rule = AlertRule("soc_low", lambda m: m.get("soc", 1.0) < 0.2, message="battery low")
        alert = rule.evaluate({"soc": 0.1, "n": 3.0})
        assert alert is not None
        assert alert.message == "battery low"
        assert dict(alert.context) == {"soc": 0.1, "n": 3.0}

    def test_evaluate_default_message(self):
        rule = AlertRule("anything", lambda m: True)
        assert rule.evaluate({}).message == "rule anything fired"

    def test_add_rule_and_history_accumulates(self):
        engine = AlertEngine()
        engine.rules.append(AlertRule("always", lambda m: True))
        engine.evaluate({})
        engine.evaluate({})
        assert len(engine.alerts) == 2


class TestTelemetrySketchWiring:
    """TelemetryRecorder's bulk path feeds the batched sketches."""

    def test_latency_reservoir_fed_by_record_batch(self, rng):
        rec = TelemetryRecorder("dev-1", num_classes=4)
        for _ in range(20):
            rec.record_batch(rng.uniform(0.001, 0.02, 500), np.zeros(500), np.zeros(500))
        sample = rec.latency_sample()
        assert len(sample) == TelemetryRecorder.LATENCY_SAMPLE_CAPACITY
        assert rec._latency_sample.seen == 10000
        assert 0.001 <= sample.min() and sample.max() <= 0.02
        # payload accounts for the sample and stays constant + small
        assert rec.estimated_payload_bytes() < 1024
        before = rec.estimated_payload_bytes()
        rec.record_batch(rng.uniform(0.001, 0.02, 500), np.zeros(500), np.zeros(500))
        assert rec.estimated_payload_bytes() == before

    def test_unknown_class_space_uses_count_min_sketch(self, rng):
        rec = TelemetryRecorder("dev-2", num_classes=0)
        preds = rng.integers(0, 6, 2000)
        rec.record_batch(np.full(2000, 0.01), np.zeros(2000), np.zeros(2000), preds)
        report = rec.build_report()
        assert set(report.prediction_histogram) == set(np.unique(preds))
        for cls, est in report.prediction_histogram.items():
            assert est >= int(np.count_nonzero(preds == cls))  # upper-biased
        # scalar path agrees with the sketch
        rec.record(QueryRecord(0.01, 0.0, 0.0, predicted_class=3))
        assert rec.build_report().prediction_histogram[3] >= 1

    def test_known_class_space_histogram_still_exact(self, rng):
        rec = TelemetryRecorder("dev-3", num_classes=5)
        preds = rng.integers(0, 5, 1000)
        rec.record_batch(np.full(1000, 0.01), np.zeros(1000), np.zeros(1000), preds)
        assert rec.build_report().prediction_histogram == {
            int(c): int(n) for c, n in zip(*np.unique(preds, return_counts=True))
        }

    def test_reports_deterministic_per_device(self, rng):
        """Same device id + same traffic => byte-equal reports (seeded sketches)."""
        lat = rng.uniform(0.001, 0.02, 3000)
        a, b = TelemetryRecorder("dev-9"), TelemetryRecorder("dev-9")
        a.record_batch(lat, np.zeros(3000), np.zeros(3000))
        b.record_batch(lat, np.zeros(3000), np.zeros(3000))
        assert a.build_report().as_dict() == b.build_report().as_dict()
        np.testing.assert_array_equal(a.latency_sample(), b.latency_sample())


class TestSketchReviewRegressions:
    def test_count_min_huge_int_uses_object_path(self):
        sketch = CountMinSketch(seed=0)
        sketch.add(2 ** 70)  # outside uint64: must not crash
        assert sketch.estimate(2 ** 70) == 1

    def test_count_min_bool_distinct_from_int(self):
        sketch = CountMinSketch(width=256, depth=4, seed=0)
        sketch.add(True, 5)
        assert sketch.estimate(True) == 5
        # bools hash via repr (pre-fast-path behavior), not as the int 1
        assert not np.array_equal(sketch._indices(True), sketch._indices(1))

    def test_observed_class_cap_holds_within_one_batch(self):
        rec = TelemetryRecorder("dev-cap", num_classes=0)
        rec.record_batch(
            np.full(5000, 0.01), np.zeros(5000), np.zeros(5000), np.arange(5000)
        )
        assert len(rec._observed_classes) == TelemetryRecorder._MAX_OBSERVED_CLASSES
        assert len(rec.build_report().prediction_histogram) == TelemetryRecorder._MAX_OBSERVED_CLASSES
