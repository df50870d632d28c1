"""On-device monitor + fleet-level sweep + backend alerting rules.

Ties the observability pieces together: an :class:`EdgeMonitor` wraps a
deployed model executor with drift detectors, prediction-distribution
monitoring and a telemetry recorder; :class:`FleetMonitor` stacks the
windows of every device sharing a deployment into one vectorized drift
sweep (the fleet observability hot path); :class:`AlertRule` /
:class:`AlertEngine` turn fleet-level aggregates into actionable alerts
(the "detect when the model goes wrong" requirement of paper Section III /
III-B).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dispatch import resolve_engine

from .drift import (
    DriftResult,
    JSDetector,
    KSDetector,
    MMDDetector,
    PredictionDistributionMonitor,
    PSIDetector,
    StreamingDriftDetector,
    jensen_shannon_divergence_columns,
    ks_statistic_columns,
    population_stability_index_columns,
    prediction_js_columns,
)
from .telemetry import QueryRecord, TelemetryRecorder, TelemetryReport

__all__ = ["EdgeMonitor", "FleetMonitor", "Alert", "AlertRule", "AlertEngine"]

_DETECTORS = {
    "ks": KSDetector,
    "psi": PSIDetector,
    "js": JSDetector,
    "mmd": MMDDetector,
}


class EdgeMonitor:
    """Per-device monitor: input drift, output drift and telemetry.

    Parameters
    ----------
    device_id:
        The device this monitor runs on.
    reference_inputs:
        A sample of the model's training/validation inputs (flattened
        internally), shipped with the deployment manifest.
    reference_predictions:
        Predicted classes of the reference inputs (for output-drift checks).
    num_classes:
        Number of classes of the deployed classifier.
    detectors:
        Which input-drift detectors to run (subset of ks/psi/js/mmd).
    engine:
        Detector scoring path (:mod:`repro.dispatch` convention):
        ``"batched"`` (default) is the vectorized all-columns-at-once path,
        ``"oracle"`` the per-column loop the benchmarks use as the
        baseline.
    """

    def __init__(
        self,
        device_id: str,
        reference_inputs: np.ndarray,
        reference_predictions: Optional[np.ndarray] = None,
        num_classes: int = 0,
        detectors: Sequence[str] = ("ks", "psi"),
        model_version: str = "",
        thresholds: Optional[Dict[str, float]] = None,
        engine: Optional[str] = None,
    ) -> None:
        engine = resolve_engine(engine, owner="EdgeMonitor()")
        self.device_id = device_id
        reference_inputs = np.asarray(reference_inputs, dtype=np.float64)
        flat_ref = reference_inputs.reshape(reference_inputs.shape[0], -1)
        self.detectors: Dict[str, StreamingDriftDetector] = {}
        thresholds = thresholds or {}
        for name in detectors:
            if name not in _DETECTORS:
                raise KeyError(f"unknown detector {name!r}; known: {sorted(_DETECTORS)}")
            cls = _DETECTORS[name]
            if name in thresholds:
                self.detectors[name] = cls(flat_ref, threshold=thresholds[name], engine=engine)
            else:
                self.detectors[name] = cls(flat_ref, engine=engine)
        self.prediction_monitor = (
            PredictionDistributionMonitor(reference_predictions, num_classes)
            if reference_predictions is not None and num_classes
            else None
        )
        self.telemetry = TelemetryRecorder(device_id, model_version=model_version, num_classes=num_classes)
        self.drift_events: List[Dict[str, object]] = []
        self._window_index = 0

    # -- per-window processing ------------------------------------------------
    def observe_window(
        self,
        inputs: np.ndarray,
        predictions: Optional[np.ndarray] = None,
        latencies: Optional[np.ndarray] = None,
        energies: Optional[np.ndarray] = None,
        memories: Optional[np.ndarray] = None,
    ) -> Dict[str, DriftResult]:
        """Process one window of on-device traffic; returns per-detector results."""
        inputs = np.asarray(inputs, dtype=np.float64)
        flat = inputs.reshape(inputs.shape[0], -1)
        results: Dict[str, DriftResult] = {}
        for name, detector in self.detectors.items():
            results[name] = detector.check(flat)
        if predictions is not None and self.prediction_monitor is not None:
            results["prediction"] = self.prediction_monitor.check(predictions)
        self._finish_window(results, predictions, latencies, energies, memories)
        return results

    def _finish_window(
        self,
        results: Dict[str, DriftResult],
        predictions: Optional[np.ndarray],
        latencies: Optional[np.ndarray],
        energies: Optional[np.ndarray],
        memories: Optional[np.ndarray],
    ) -> None:
        """Telemetry + drift-event bookkeeping shared with the fleet sweep."""
        if latencies is not None:
            self.telemetry.record_batch(
                latencies,
                energies if energies is not None else np.zeros_like(latencies),
                memories if memories is not None else np.zeros_like(latencies),
                predictions,
            )
        window = self._window_index
        self._window_index += 1
        if any(r.drifted for r in results.values()):
            self.drift_events.append(
                {
                    "window": window,
                    "detectors": [k for k, r in results.items() if r.drifted],
                }
            )

    def any_drift(self) -> bool:
        """Whether any detector has fired so far."""
        return bool(self.drift_events)

    def drift_events_since(self, cursor: int = 0) -> Tuple[List[Dict[str, object]], int]:
        """Drift events appended at or after ``cursor``, plus the new cursor.

        The consumption primitive for closed-loop automation
        (:mod:`repro.lifecycle`): a consumer keeps the returned cursor and
        polls again later, seeing each event exactly once without the
        monitor having to track its consumers.
        """
        cursor = max(0, int(cursor))
        return list(self.drift_events[cursor:]), len(self.drift_events)

    def build_report(self) -> TelemetryReport:
        """Telemetry payload for the next sync opportunity."""
        return self.telemetry.build_report()


class FleetMonitor:
    """One-sweep drift monitoring across devices sharing a deployment.

    Devices deployed from the same manifest carry identical reference
    windows, so their per-window drift checks are the *same* statistic
    evaluated against the same reference — only the live windows differ.
    :meth:`observe_fleet` exploits this: the windows of every compatible
    device are stacked side-by-side into one multi-column matrix and scored
    by the vectorized column detectors in a handful of NumPy calls, then
    each device's :class:`EdgeMonitor` records its own
    :class:`~repro.observability.drift.DriftResult`, telemetry batch and
    drift event exactly as a per-device :meth:`EdgeMonitor.observe_window`
    loop would — histories, statistics and telemetry payloads are
    identical (the differential tests assert it).

    Stacking rules (anything else falls back to the per-device path, so
    correctness never depends on batching):

    * devices batch together only when their monitors share the detector
      configuration, the reference sample (byte-equal), the
      prediction-monitor configuration and the flattened window shape;
    * KS / PSI / JS detectors in batched mode with column-aligned windows
      are swept in one call; MMD, oracle-mode detectors and
      shape-mismatched windows run per-device;
    * empty windows are skipped entirely (the serving engine never monitors
      a window with zero served queries).

    Monitors are treated as **immutable after construction**: compatibility
    signatures (detector set, reference digest) are computed once, so
    mutating a monitor in place afterwards (swapping ``detectors`` entries,
    rewriting ``detector.reference``) desynchronizes the grouping — replace
    the monitor and build a new ``FleetMonitor`` instead
    (:class:`~repro.core.serving.ServingEngine` invalidates its cached
    instance exactly on such replacement).  A detector *added* in place is
    tolerated: it simply scores per-device.
    """

    def __init__(self, monitors: Mapping[str, EdgeMonitor]) -> None:
        self.monitors: Dict[str, EdgeMonitor] = dict(monitors)
        self._signatures: Dict[str, tuple] = {
            device_id: self._monitor_signature(monitor)
            for device_id, monitor in self.monitors.items()
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _digest(array: np.ndarray) -> str:
        return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).hexdigest()

    def _monitor_signature(self, monitor: EdgeMonitor) -> tuple:
        """Compatibility key: monitors with equal signatures may stack."""
        det_sig = tuple(
            (name, type(det).__name__, det.threshold, getattr(det, "bins", None), det.batched)
            for name, det in monitor.detectors.items()
        )
        ref_sig = None
        if monitor.detectors:
            ref = next(iter(monitor.detectors.values())).reference
            ref_sig = (ref.shape, self._digest(ref))
        pm = monitor.prediction_monitor
        pred_sig = (
            (pm.num_classes, pm.threshold, pm.eps, self._digest(pm.reference_dist))
            if pm is not None
            else None
        )
        return (det_sig, ref_sig, pred_sig)

    @staticmethod
    def _column_scorer(detector: StreamingDriftDetector):
        """Vectorized multi-column scorer for a detector, or None."""
        if type(detector) is KSDetector:
            return ks_statistic_columns
        if type(detector) is PSIDetector:
            return lambda rs, lv: population_stability_index_columns(rs, lv, bins=detector.bins)
        if type(detector) is JSDetector:
            return lambda rs, lv: jensen_shannon_divergence_columns(rs, lv, bins=detector.bins)
        return None

    # ------------------------------------------------------------------
    def observe_fleet(
        self,
        windows: Mapping[str, np.ndarray],
        predictions: Optional[Mapping[str, np.ndarray]] = None,
        latencies: Optional[Mapping[str, np.ndarray]] = None,
        energies: Optional[Mapping[str, np.ndarray]] = None,
        memories: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Dict[str, Dict[str, DriftResult]]:
        """Observe one traffic window for many devices in one sweep.

        All mappings are keyed by device id; every device in ``windows``
        must have a registered monitor.  Returns the same
        ``{device_id: {detector: DriftResult}}`` a per-device
        :meth:`EdgeMonitor.observe_window` loop would.
        """
        predictions = predictions or {}
        latencies = latencies or {}
        energies = energies or {}
        memories = memories or {}
        buckets: Dict[tuple, List[Tuple[str, np.ndarray]]] = {}
        for device_id, inputs in windows.items():
            inputs = np.asarray(inputs, dtype=np.float64)
            if inputs.shape[0] == 0:
                continue
            flat = inputs if inputs.ndim == 2 else inputs.reshape(inputs.shape[0], -1)
            key = (self._signatures[device_id], flat.shape)
            buckets.setdefault(key, []).append((device_id, flat))
        results: Dict[str, Dict[str, DriftResult]] = {}
        for group in buckets.values():
            self._observe_group(group, predictions, latencies, energies, memories, results)
        return results

    def _observe_group(
        self,
        group: List[Tuple[str, np.ndarray]],
        predictions: Mapping[str, np.ndarray],
        latencies: Mapping[str, np.ndarray],
        energies: Mapping[str, np.ndarray],
        memories: Mapping[str, np.ndarray],
        results: Dict[str, Dict[str, DriftResult]],
    ) -> None:
        device_ids = [device_id for device_id, _ in group]
        first = self.monitors[device_ids[0]]
        g = len(group)
        n_cols = group[0][1].shape[1]
        # One vectorized sweep per batchable detector over all g windows.
        stats_per_detector: Dict[str, Optional[np.ndarray]] = {}
        stack: Optional[np.ndarray] = None
        for name, det in first.detectors.items():
            scorer = self._column_scorer(det)
            if (
                scorer is None
                or not det.batched
                or det.reference.ndim != 2
                or det.reference.shape[1] != n_cols
            ):
                stats_per_detector[name] = None
                continue
            if stack is None:
                stack = np.hstack([flat for _, flat in group])
            stats_per_detector[name] = scorer(det.reference_sorted, stack).reshape(g, n_cols).max(axis=1)
        pred_stats = self._prediction_stats(device_ids, predictions, first.prediction_monitor)
        for i, (device_id, flat) in enumerate(group):
            monitor = self.monitors[device_id]
            device_results: Dict[str, DriftResult] = {}
            for name, det in monitor.detectors.items():
                # .get(): a detector added in place after construction is
                # absent from the sweep and scores per-device.
                stats = stats_per_detector.get(name)
                device_results[name] = det.check(flat) if stats is None else det.record(float(stats[i]))
            preds = predictions.get(device_id)
            if preds is not None and monitor.prediction_monitor is not None:
                if pred_stats is not None:
                    device_results["prediction"] = monitor.prediction_monitor.record(float(pred_stats[i]))
                else:
                    device_results["prediction"] = monitor.prediction_monitor.check(preds)
            monitor._finish_window(
                device_results,
                preds,
                latencies.get(device_id),
                energies.get(device_id),
                memories.get(device_id),
            )
            results[device_id] = device_results

    @staticmethod
    def _prediction_stats(
        device_ids: List[str],
        predictions: Mapping[str, np.ndarray],
        prediction_monitor: Optional[PredictionDistributionMonitor],
    ) -> Optional[np.ndarray]:
        """Batched prediction-distribution statistics, or None to go per-device."""
        if prediction_monitor is None:
            return None
        preds = [predictions.get(device_id) for device_id in device_ids]
        if any(p is None for p in preds):
            return None
        arrays = [np.asarray(p, dtype=int).ravel() for p in preds]
        num_classes = prediction_monitor.num_classes
        lens = np.array([a.size for a in arrays])
        if lens.sum() == 0:
            return np.zeros(len(device_ids))
        flat = np.concatenate(arrays)
        if flat.min() < 0 or flat.max() >= num_classes:
            return None  # out-of-range classes: keep the oracle's semantics
        offsets = np.repeat(np.arange(len(device_ids)) * num_classes, lens)
        counts = np.bincount(flat + offsets, minlength=len(device_ids) * num_classes).reshape(
            len(device_ids), num_classes
        )
        return prediction_js_columns(prediction_monitor.reference_dist, counts, prediction_monitor.eps)


@dataclass(frozen=True)
class Alert:
    """An alert raised by the backend alerting engine."""

    rule: str
    severity: str
    message: str
    context: Tuple[Tuple[str, object], ...] = ()


@dataclass
class AlertRule:
    """A named predicate over fleet-level summary metrics."""

    name: str
    predicate: Callable[[Dict[str, float]], bool]
    severity: str = "warning"
    message: str = ""

    def evaluate(self, metrics: Dict[str, float]) -> Optional[Alert]:
        """Return an alert when the predicate fires."""
        if self.predicate(metrics):
            return Alert(
                rule=self.name,
                severity=self.severity,
                message=self.message or f"rule {self.name} fired",
                context=tuple(sorted(metrics.items())),
            )
        return None


class AlertEngine:
    """Evaluates alert rules against metric dictionaries and keeps history."""

    def __init__(self, rules: Optional[Sequence[AlertRule]] = None) -> None:
        self.rules: List[AlertRule] = list(rules or [])
        self.alerts: List[Alert] = []

    def add_rule(self, rule: AlertRule) -> None:
        self.rules.append(rule)

    def evaluate(self, metrics: Dict[str, float]) -> List[Alert]:
        """Run all rules; append and return any alerts raised."""
        raised = []
        for rule in self.rules:
            alert = rule.evaluate(metrics)
            if alert is not None:
                raised.append(alert)
        self.alerts.extend(raised)
        return raised

    def alerts_since(self, cursor: int = 0) -> Tuple[List[Alert], int]:
        """Alerts raised at or after ``cursor``, plus the new cursor.

        Cursor-based consumption (see :meth:`EdgeMonitor.drift_events_since`)
        so lifecycle automation can react to each alert exactly once.
        """
        cursor = max(0, int(cursor))
        return list(self.alerts[cursor:]), len(self.alerts)

    @classmethod
    def default_rules(cls, latency_budget_s: float = 0.1, drift_rate_threshold: float = 0.2) -> "AlertEngine":
        """A sensible default rule set for the examples and benchmarks."""
        return cls(
            [
                AlertRule(
                    name="latency_budget",
                    predicate=lambda m: m.get("latency_mean", 0.0) > latency_budget_s,
                    severity="warning",
                    message="fleet mean latency exceeds budget",
                ),
                AlertRule(
                    name="drift_rate",
                    predicate=lambda m: m.get("drift_fraction", 0.0) > drift_rate_threshold,
                    severity="critical",
                    message="too many devices reporting input drift",
                ),
                AlertRule(
                    name="battery_failures",
                    predicate=lambda m: m.get("failed_inference_fraction", 0.0) > 0.05,
                    severity="warning",
                    message="inference failures due to depleted batteries",
                ),
            ]
        )
