"""Telemetry recording, aggregation and store-and-forward syncing.

Paper Section III-B: "we are also interested in monitoring the number of
requests a user has made and the execution time of the model … record the
actual execution time, memory and energy consumption on the end-user's
device … store these statistics locally and transmit them to the cloud when
the device is connected to WiFi."

The :class:`TelemetryRecorder` runs on a (simulated) device with constant
memory (sketches, not raw logs); :class:`TelemetryAggregator` merges reports
from many devices on the backend.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sketches import CountMinSketch, P2Quantile, ReservoirSample, RunningMoments, StreamingHistogram


def _device_seed(device_id: str) -> int:
    """Deterministic per-device RNG seed (stable across processes)."""
    return int.from_bytes(hashlib.blake2b(device_id.encode(), digest_size=4).digest(), "little")

__all__ = ["QueryRecord", "TelemetryRecorder", "TelemetryReport", "TelemetryAggregator"]


@dataclass(frozen=True)
class QueryRecord:
    """Raw measurements of one model execution."""

    latency_s: float
    energy_j: float
    memory_bytes: float
    predicted_class: Optional[int] = None
    model_version: str = ""


@dataclass
class TelemetryReport:
    """A compact, privacy-preserving telemetry payload sent to the backend."""

    device_id: str
    model_version: str
    n_queries: int
    latency: Dict[str, float]
    energy: Dict[str, float]
    memory: Dict[str, float]
    prediction_histogram: Dict[int, int]
    payload_bytes: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "device_id": self.device_id,
            "model_version": self.model_version,
            "n_queries": self.n_queries,
            "latency": self.latency,
            "energy": self.energy,
            "memory": self.memory,
            "prediction_histogram": self.prediction_histogram,
        }


class TelemetryRecorder:
    """On-device telemetry agent with constant memory footprint.

    Besides the moment/quantile summaries, the recorder keeps two mergeable
    sketches fed by the bulk serving path:

    * a :class:`~repro.observability.sketches.ReservoirSample` of raw
      latencies (``offer_batch`` geometric skips, so fleet-scale windows
      cost O(capacity·log) RNG draws) for backend percentile estimation
      beyond the single P² quantile;
    * when ``num_classes`` is unknown (0), predicted classes land in a
      :class:`~repro.observability.sketches.CountMinSketch` via the
      vectorized ``add_batch`` — previously such predictions were dropped —
      with the distinct observed ids tracked up to a constant cap so
      :meth:`build_report` can still emit an (upper-biased) histogram.
    """

    LATENCY_SAMPLE_CAPACITY = 64
    _SKETCH_WIDTH, _SKETCH_DEPTH = 32, 2
    _MAX_OBSERVED_CLASSES = 256

    def __init__(
        self,
        device_id: str,
        model_version: str = "",
        num_classes: int = 0,
        latency_p: float = 0.95,
    ) -> None:
        self.device_id = device_id
        self.model_version = model_version
        self.num_classes = int(num_classes)
        self._latency = RunningMoments()
        self._latency_p = P2Quantile(latency_p)
        self._energy = RunningMoments()
        self._memory = RunningMoments()
        self._pred_counts = np.zeros(max(self.num_classes, 1), dtype=np.int64)
        self._latency_sample = ReservoirSample(
            capacity=self.LATENCY_SAMPLE_CAPACITY, seed=_device_seed(device_id)
        )
        self._pred_sketch = (
            CountMinSketch(width=self._SKETCH_WIDTH, depth=self._SKETCH_DEPTH, seed=_device_seed(device_id))
            if self.num_classes == 0
            else None
        )
        self._observed_classes: set = set()
        self.n_queries = 0

    def _sketch_predictions(self, predictions: np.ndarray) -> None:
        classes = np.asarray(predictions).astype(np.int64).ravel()
        if classes.size == 0:
            return
        self._pred_sketch.add_batch(classes)
        room = self._MAX_OBSERVED_CLASSES - len(self._observed_classes)
        if room > 0:
            fresh = [int(c) for c in np.unique(classes) if int(c) not in self._observed_classes]
            self._observed_classes.update(fresh[:room])

    def record(self, record: QueryRecord) -> None:
        """Record one model execution."""
        self.n_queries += 1
        self._latency.update([record.latency_s])
        self._latency_p.update([record.latency_s])
        self._latency_sample.update([record.latency_s])
        self._energy.update([record.energy_j])
        self._memory.update([record.memory_bytes])
        if record.predicted_class is not None:
            cls = int(record.predicted_class)
            if self.num_classes:
                if 0 <= cls < self.num_classes:
                    self._pred_counts[cls] += 1
            else:
                self._sketch_predictions(np.asarray([cls]))

    def record_batch(self, latencies: np.ndarray, energies: np.ndarray, memories: np.ndarray, predictions: Optional[np.ndarray] = None) -> None:
        """Vectorized bulk recording (used by the fleet serving sweep).

        The three equal-length channels reduce as one ``(3, n)`` block; the
        row-wise reductions are NumPy's pairwise summation per row, so each
        ``(count, mean, m2)`` triple is bit-equal to reducing its channel alone.
        """
        block = np.array([latencies, energies, memories], dtype=np.float64).reshape(3, -1)
        latencies = block[0]
        n = latencies.size
        self.n_queries += n
        if n:
            means = block.sum(axis=1) / n
            m2s = ((block - means[:, None]) ** 2).sum(axis=1).tolist()
            for moments, mean, m2 in zip((self._latency, self._energy, self._memory), means.tolist(), m2s):
                moments.merge_stats(n, mean, m2)
        self._latency_p.update(latencies)
        self._latency_sample.offer_batch(latencies)
        if predictions is not None:
            if self.num_classes:
                # Out-of-range ids are dropped, exactly as record() drops them.
                classes = np.asarray(predictions, dtype=int).ravel()
                classes = classes[(classes >= 0) & (classes < self.num_classes)]
                self._pred_counts += np.bincount(classes, minlength=self.num_classes)
            else:
                self._sketch_predictions(predictions)

    def latency_sample(self) -> np.ndarray:
        """Bounded uniform sample of raw latencies seen so far."""
        return self._latency_sample.values()

    # -- reporting ---------------------------------------------------------
    def estimated_payload_bytes(self) -> int:
        """Approximate size of the sync payload (fixed, independent of #queries)."""
        # 3 moment triplets + quantile + histogram of num_classes int32
        # + the latency reservoir (+ the class sketch when classes are unknown).
        base = 3 * 3 * 8 + 8 + max(self.num_classes, 1) * 4 + 64
        base += self._latency_sample.capacity * 8
        if self._pred_sketch is not None:
            base += self._SKETCH_WIDTH * self._SKETCH_DEPTH * 8
        return base

    def _prediction_histogram(self) -> Dict[int, int]:
        if self._pred_sketch is not None:
            # Upper-biased count-min estimates over the observed class ids.
            return {cls: self._pred_sketch.estimate(cls) for cls in sorted(self._observed_classes)}
        return {i: int(c) for i, c in enumerate(self._pred_counts) if c > 0}

    def build_report(self) -> TelemetryReport:
        """Snapshot the current statistics into a syncable report."""
        return TelemetryReport(
            device_id=self.device_id,
            model_version=self.model_version,
            n_queries=self.n_queries,
            latency={
                "mean": self._latency.mean,
                "std": self._latency.std,
                f"p{int(self._latency_p.q * 100)}": self._latency_p.value,
            },
            energy={"mean": self._energy.mean, "total": self._energy.mean * self.n_queries},
            memory={"mean": self._memory.mean},
            prediction_histogram=self._prediction_histogram(),
            payload_bytes=self.estimated_payload_bytes(),
        )

    def reset(self) -> None:
        """Clear statistics after a successful sync."""
        self.__init__(self.device_id, self.model_version, self.num_classes, self._latency_p.q)


class TelemetryAggregator:
    """Backend-side aggregation of telemetry reports across the fleet."""

    def __init__(self) -> None:
        self.reports: List[TelemetryReport] = []

    def ingest(self, report: TelemetryReport) -> None:
        """Accept a report uploaded by a device."""
        self.reports.append(report)

    def fleet_summary(self, model_version: Optional[str] = None) -> Dict[str, float]:
        """Query-weighted latency/energy statistics across devices."""
        reports = [r for r in self.reports if model_version is None or r.model_version == model_version]
        if not reports:
            return {"n_devices": 0.0, "n_queries": 0.0}
        weights = np.array([max(r.n_queries, 1) for r in reports], dtype=np.float64)
        lat_mean = np.array([r.latency.get("mean", 0.0) for r in reports])
        energy_mean = np.array([r.energy.get("mean", 0.0) for r in reports])
        total_w = weights.sum()
        return {
            "n_devices": float(len({r.device_id for r in reports})),
            "n_queries": float(weights.sum()),
            "latency_mean": float(np.average(lat_mean, weights=weights)),
            "latency_worst_device": float(lat_mean.max()),
            "energy_mean": float(np.average(energy_mean, weights=weights)),
            "total_payload_bytes": float(sum(r.payload_bytes for r in reports)),
        }

    def slow_devices(self, latency_threshold_s: float) -> List[str]:
        """Devices whose mean latency exceeds a threshold (performance issues)."""
        worst: Dict[str, float] = {}
        for r in self.reports:
            worst[r.device_id] = max(worst.get(r.device_id, 0.0), r.latency.get("mean", 0.0))
        return sorted(d for d, v in worst.items() if v > latency_threshold_s)

    def prediction_distribution(self, model_version: Optional[str] = None) -> Dict[int, int]:
        """Fleet-wide predicted-class histogram (merged from device reports)."""
        merged: Dict[int, int] = {}
        for r in self.reports:
            if model_version is not None and r.model_version != model_version:
                continue
            for cls, count in r.prediction_histogram.items():
                merged[cls] = merged.get(cls, 0) + count
        return merged
