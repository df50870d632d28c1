"""Sketch kernels vs the formulations they replaced, kept here as oracles.

``P2Quantile`` holds its markers as Python floats and
``TelemetryRecorder.record_batch`` reduces its three channels as one block;
both promise the *same IEEE-754 results* as the textbook ndarray P² and the
per-channel ``RunningMoments`` reductions they replaced.  Those older
formulations live on below — copied verbatim, test-local — and every kernel
is checked marker-for-marker against them, including on streams with NaN,
±inf, subnormals and overflow.  The sharded and lifecycle planes pickle and
deep-copy monitors mid-stream, so that is pinned here too.

``benchmarks/bench_e4_observability_drift.py`` imports the oracles for its
µs/observation guardrail.
"""

from __future__ import annotations

import copy
import math
import pickle
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    EdgeMonitor,
    P2Quantile,
    ReservoirSample,
    RunningMoments,
    StreamingHistogram,
    TelemetryRecorder,
)
from repro.observability.telemetry import QueryRecord

# The ndarray oracle overflows / subtracts infinities on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# -- oracles: the replaced formulations, verbatim ---------------------------
class NdarrayP2Quantile:
    """The textbook P² on 5-element ndarrays (the pre-scalar-state kernel)."""

    def __init__(self, quantile: float = 0.95) -> None:
        self.q = float(quantile)
        self._initial: List[float] = []
        self._n: Optional[np.ndarray] = None
        self._ns: Optional[np.ndarray] = None
        self._heights: Optional[np.ndarray] = None

    def update(self, values) -> None:
        for x in np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel():
            self._update_one(float(x))

    def _update_one(self, x: float) -> None:
        if self._heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._heights = np.array(sorted(self._initial))
                self._n = np.arange(1.0, 6.0)
                self._ns = np.array([1.0, 1 + 2 * self.q, 1 + 4 * self.q, 3 + 2 * self.q, 5.0])
            return
        h, n, ns = self._heights, self._n, self._ns
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = int(np.searchsorted(h, x, side="right")) - 1
            k = min(max(k, 0), 3)
        n[k + 1 :] += 1.0
        ns += np.array([0.0, self.q / 2, self.q, (1 + self.q) / 2, 1.0])
        for i in (1, 2, 3):
            d = ns[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                sign = 1.0 if d >= 1 else -1.0
                hp = h[i] + sign / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + sign) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - sign) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
                )
                if h[i - 1] < hp < h[i + 1]:
                    h[i] = hp
                else:
                    j = i + int(sign)
                    h[i] = h[i] + sign * (h[j] - h[i]) / (n[j] - n[i])
                n[i] += sign

    @property
    def value(self) -> float:
        if self._heights is not None:
            return float(self._heights[2])
        if not self._initial:
            return float("nan")
        return float(np.quantile(np.array(self._initial), self.q))

    @property
    def count(self) -> int:
        if self._n is None:
            return len(self._initial)
        return int(self._n[4])


class ParentRunningMoments(RunningMoments):
    """Batch update through a temporary object and the object-to-object merge."""

    def update_batch(self, values) -> None:
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        other = ParentRunningMoments()
        other.count = int(arr.size)
        other.mean = float(arr.mean())
        other._m2 = float(((arr - other.mean) ** 2).sum())
        self.merge(other)

    def merge(self, other):
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean, other._m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / total
        self.mean = (self.mean * self.count + other.mean * other.count) / total
        self.count = total
        return self


def parent_recorder(device_id: str, num_classes: int = 0) -> TelemetryRecorder:
    """A recorder whose moments and quantile are the oracle kernels."""
    rec = TelemetryRecorder(device_id, num_classes=num_classes)
    rec._latency, rec._energy, rec._memory = (ParentRunningMoments() for _ in range(3))
    rec._latency_p = NdarrayP2Quantile(rec._latency_p.q)
    return rec


def parent_record_batch(rec: TelemetryRecorder, latencies, energies, memories, predictions=None) -> None:
    """``record_batch`` as it was: six 1-D reductions, three throw-away moments."""
    latencies = np.asarray(latencies, dtype=np.float64).ravel()
    rec.n_queries += latencies.size
    rec._latency.update_batch(latencies)
    rec._latency_p.update(latencies)
    rec._latency_sample.offer_batch(latencies)
    rec._energy.update_batch(np.asarray(energies, dtype=np.float64).ravel())
    rec._memory.update_batch(np.asarray(memories, dtype=np.float64).ravel())
    if predictions is not None:
        counts = np.bincount(np.asarray(predictions, dtype=int), minlength=rec.num_classes)
        rec._pred_counts += counts[: rec.num_classes]


# -- comparison helpers ------------------------------------------------------
def _bits(values) -> list:
    """Exact float identity (-0.0 != 0.0) with all NaNs equal.

    A NaN's sign and payload are not IEEE-754 results: they depend on which
    operand the compiler placed first, so they are not part of the contract.
    """
    return ["nan" if v != v else (float(v), math.copysign(1.0, v)) for v in values]


def assert_p2_equal(new: P2Quantile, oracle: NdarrayP2Quantile) -> None:
    assert new.count == oracle.count
    assert _bits([new.value]) == _bits([oracle.value])
    assert _bits(new._initial) == _bits(oracle._initial)
    if oracle._heights is None:
        assert new._heights is None and new._n is None and new._ns is None
        return
    assert _bits(new._heights) == _bits(oracle._heights)
    assert _bits(new._n) == _bits(oracle._n)
    assert _bits(new._ns) == _bits(oracle._ns)


def recorder_state(rec: TelemetryRecorder) -> tuple:
    report = rec.build_report().as_dict()
    triples = [(m.count, m.mean, m._m2) for m in (rec._latency, rec._energy, rec._memory)]
    flat = [x for t in triples for x in t] + list(report["latency"].values())
    flat += list(report["energy"].values()) + list(report["memory"].values())
    return (_bits(flat), report["prediction_histogram"], rec.n_queries, rec.latency_sample().tobytes())


# -- P² ----------------------------------------------------------------------
_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_tied = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.0, 3.5])
_extreme = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324, 1.7e308, -1.7e308, 1e-310, 0.0, 1.0]
)
_streams = st.one_of(
    st.lists(st.lists(_any_float, max_size=9), max_size=10),
    st.lists(st.lists(_tied, max_size=9), max_size=10),
    st.lists(st.lists(_extreme, max_size=9), max_size=10),
    st.lists(st.lists(st.one_of(st.floats(-1e3, 1e3), _extreme), max_size=9), max_size=10),
    st.tuples(st.floats(-1e6, 1e6), st.integers(0, 60)).map(lambda cn: [[cn[0]] * cn[1]]),
)


@given(chunks=_streams, q=st.one_of(st.sampled_from([0.5, 0.95, 0.01, 0.99]), st.floats(0.001, 0.999)))
@settings(max_examples=300, deadline=None)
def test_p2_scalar_state_matches_ndarray_oracle(chunks, q):
    chunked, single, oracle = P2Quantile(q), P2Quantile(q), NdarrayP2Quantile(q)
    with np.errstate(all="ignore"):
        for chunk in chunks:
            chunked.update(np.array(chunk, dtype=np.float64))
            for x in chunk:
                single.update(x)
            oracle.update(chunk)
            assert_p2_equal(chunked, oracle)
            assert_p2_equal(single, oracle)


def test_p2_long_random_streams_match_oracle(rng):
    for q in (0.5, 0.9, 0.95, 0.99):
        new, oracle = P2Quantile(q), NdarrayP2Quantile(q)
        for scale in (1.0, 1e-3, 1e6):
            for chunk in np.split(rng.lognormal(size=1200) * scale, 30):
                new.update(chunk)
                oracle.update(chunk)
                assert_p2_equal(new, oracle)


def test_p2_state_is_plain_floats_and_pickles_small():
    new, oracle = P2Quantile(0.95), NdarrayP2Quantile(0.95)
    stream = np.random.default_rng(0).uniform(0.001, 0.02, 50)
    new.update(stream)
    oracle.update(stream)
    assert all(type(v) is float for v in new._heights + new._n + new._ns)
    assert type(new.value) is float
    assert len(pickle.dumps(new)) < len(pickle.dumps(oracle))


# -- telemetry ---------------------------------------------------------------
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(0, 90), min_size=1, max_size=6),
    constant=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_record_batch_block_reduction_matches_parent(seed, sizes, constant):
    rng = np.random.default_rng(seed)
    new, parent = TelemetryRecorder("dev", num_classes=6), parent_recorder("dev", num_classes=6)
    for n in sizes:
        if constant:
            channels = [np.full(n, rng.uniform(0, 10.0 ** rng.integers(-4, 8))) for _ in range(3)]
        else:
            channels = [rng.normal(size=n) * 10.0 ** rng.integers(-4, 8) for _ in range(3)]
        predictions = rng.integers(0, 6, n)
        new.record_batch(*channels, predictions)
        parent_record_batch(parent, *channels, predictions)
        assert recorder_state(new) == recorder_state(parent)
        assert_p2_equal(new._latency_p, parent._latency_p)


def test_record_batch_row_reductions_equal_per_channel_reductions(rng):
    """The claim under the block reduction, on its own: row-wise == 1-D."""
    for _ in range(400):
        n = int(rng.integers(1, 200))
        block = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-6, 9, size=(3, 1))
        if rng.random() < 0.3:
            block[:] = rng.uniform(0, 1e6, size=(3, 1))
        means = block.sum(axis=1) / n
        m2s = ((block - means[:, None]) ** 2).sum(axis=1)
        for row, mean, m2 in zip(block, means, m2s):
            assert float(row.mean()) == float(mean)
            assert float(((row - float(row.mean())) ** 2).sum()) == float(m2)


def test_record_batch_drops_out_of_range_predictions_like_record():
    predictions = [0, 3, -1, 2, 7, 3, -5, 4, 3, 100]
    one_by_one, batch = TelemetryRecorder("dev", num_classes=4), TelemetryRecorder("dev", num_classes=4)
    for cls in predictions:
        one_by_one.record(QueryRecord(0.004, 0.01, 1e5, predicted_class=cls))
    n = len(predictions)
    batch.record_batch(np.full(n, 0.004), np.full(n, 0.01), np.full(n, 1e5), np.array(predictions))
    assert batch.n_queries == one_by_one.n_queries == n
    assert batch._pred_counts.tolist() == one_by_one._pred_counts.tolist() == [1, 0, 1, 3]
    assert batch.build_report().prediction_histogram == one_by_one.build_report().prediction_histogram


def test_running_moments_merge_and_batch_share_one_formula(rng):
    chunks = [rng.normal(size=n) * 10.0 ** e for n, e in ((1, 0), (17, 3), (0, 0), (40, -2), (5, 6))]
    new, parent, merged = RunningMoments(), ParentRunningMoments(), RunningMoments()
    for chunk in chunks:
        new.update_batch(chunk)
        parent.update_batch(chunk)
        part = RunningMoments()
        part.update_batch(chunk)
        merged.merge(part)
        for moments in (new, merged):
            assert _bits([moments.count, moments.mean, moments._m2]) == _bits(
                [parent.count, parent.mean, parent._m2]
            )
    assert type(new.mean) is float and type(new._m2) is float


# -- histogram / reservoir ---------------------------------------------------
def test_histogram_bincount_matches_add_at(rng):
    lo, hi, bins = -2.0, 3.0, 16
    hist = StreamingHistogram(lo, hi, bins=bins)
    counts = np.zeros(bins, dtype=np.int64)
    underflow = overflow = 0
    edges = np.array([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)])
    for _ in range(20):
        values = np.concatenate([rng.normal(0.5, 2.0, int(rng.integers(0, 300))), edges])
        hist.update(values)
        # the replaced formula
        underflow += int(np.count_nonzero(values < lo))
        overflow += int(np.count_nonzero(values >= hi))
        inside = values[(values >= lo) & (values < hi)]
        idx = ((inside - lo) / (hi - lo) * bins).astype(int)
        np.add.at(counts, np.clip(idx, 0, bins - 1), 1)
        assert hist.counts.tolist() == counts.tolist()
        assert (hist.underflow, hist.overflow) == (underflow, overflow)
    assert hist.counts.dtype == np.int64
    hist.update(np.array([lo - 1.0, hi + 1.0]))  # nothing inside: counts untouched
    assert hist.counts.tolist() == counts.tolist()


def test_reservoir_fill_path_keeps_sample_and_rng_stream(rng):
    values = rng.normal(size=100)
    filled = ReservoirSample(capacity=64, seed=5)
    filled.offer_batch(values[:40])
    assert filled._buffer == [float(x) for x in values[:40]]
    assert all(type(x) is float for x in filled._buffer)
    # A pure fill draws nothing from the RNG.
    assert filled._rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    # Fill then skip-sampling equals the same stream offered in one call.
    filled.offer_batch(values[40:])
    whole = ReservoirSample(capacity=64, seed=5)
    whole.offer_batch(values)
    assert filled.values().tobytes() == whole.values().tobytes()
    assert filled._rng.bit_generator.state == whole._rng.bit_generator.state


# -- shipping a monitor mid-stream -------------------------------------------
def _monitor_state(monitor: EdgeMonitor) -> tuple:
    histories = {
        name: [(r.statistic, r.drifted) for r in det.history] for name, det in monitor.detectors.items()
    }
    p2 = monitor.telemetry._latency_p
    return (
        histories,
        [(r.statistic, r.drifted) for r in monitor.prediction_monitor.history],
        monitor.drift_events,
        recorder_state(monitor.telemetry),
        _bits(p2._heights + p2._n + p2._ns),
    )


def test_pickled_and_deepcopied_monitor_continue_identically(rng):
    reference = rng.normal(size=(120, 6))
    original = EdgeMonitor(
        "dev-0", reference, reference_predictions=rng.integers(0, 4, 120), num_classes=4, detectors=("ks", "psi")
    )

    def window(shift):
        n = int(rng.integers(8, 40))
        return (
            rng.normal(loc=shift, size=(n, 6)),
            rng.integers(0, 4, n),
            rng.uniform(0.001, 0.02, n),
            np.full(n, 0.01),
            np.full(n, 1e5),
        )

    for _ in range(4):
        x, preds, lat, en, mem = window(0.0)
        original.observe_window(x, predictions=preds, latencies=lat, energies=en, memories=mem)
    shipped = pickle.loads(pickle.dumps(original))
    copied = copy.deepcopy(original)
    assert _monitor_state(shipped) == _monitor_state(copied) == _monitor_state(original)
    for w in range(6):
        x, preds, lat, en, mem = window(0.0 if w < 3 else 2.0)
        for monitor in (original, shipped, copied):
            monitor.observe_window(x, predictions=preds, latencies=lat, energies=en, memories=mem)
        assert _monitor_state(shipped) == _monitor_state(copied) == _monitor_state(original)
    assert original.any_drift()
