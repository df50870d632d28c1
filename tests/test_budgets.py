"""Deterministic budgets: retained bytes and counted calls on fixed seeds.

A timing needs paired runs and still flakes on a loaded host; what a
structure retains (``gc.collect()`` + ``tracemalloc``) and how often a
kernel runs repeat exactly on a fixed seed.  Each row of ``BYTE_BUDGETS``
is ``(structure, scenario, measured, bound)``: the bound is the value
measured when the row was set, × 1.25 and rounded up.  A change that
shrinks a structure tightens its bound; one that grows it states the
growth and the new bound — a bound is a gate.

Work counts that are claims elsewhere stay where they are:
``tests/core/test_serving.py::TestServingKernels`` (serving kernels per
engine), ``tests/billing/test_billing.py::TestChainKernel`` (one chain
verifier), ``tests/faults/test_durable_io_budget.py`` (syncs per round)
and ``tests/billing/test_ledger_columns.py`` (≤ 64 B per ledger entry).
"""

import gc
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "runtime"))

from _sharded_worlds import serving_world  # noqa: E402

from repro.core import TinyMLOpsPlatform  # noqa: E402
from repro.core.serving import ServingEngine  # noqa: E402
from repro.devices import Fleet  # noqa: E402
from repro.nn import make_mlp  # noqa: E402
from repro.observability import EdgeMonitor  # noqa: E402


def _windows(seed: int, n_devices: int, n_windows: int):
    """``serving_world`` plus ``n_windows - 1`` more ragged windows of 0–8 queries."""
    engine, window = serving_world(seed=seed, n_devices=n_devices)
    rng = np.random.default_rng(seed + 99)
    more = [{d: rng.normal(size=(int(rng.integers(0, 9)), 8)) for d in window} for _ in range(n_windows - 1)]
    return engine, [window] + more


def _report_bytes_per_device_window(engine, windows) -> float:
    """Bytes that one ``FleetServeReport`` per window retains (what e0's
    serve loop keeps), per device window served."""
    gc.collect()
    tracemalloc.start()
    try:
        reports = [engine.serve_fleet("m", window) for window in windows]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del reports
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / sum(len(window) for window in windows)


def dense_report_bytes() -> float:
    """Every device of a 400-device fleet in each of 8 windows.  Monitors are
    dropped: they change no report byte, only the run time."""
    engine, windows = _windows(seed=7, n_devices=400, n_windows=8)
    engine.monitors.clear()
    return _report_bytes_per_device_window(engine, windows)


def sparse_report_bytes() -> float:
    """The 10 top-row devices of a 100 000-device fleet in each of 8 windows:
    a report holds the devices it served, not the fleet rows below them."""
    fleet = Fleet.random(100_000, seed=7)
    engine = ServingEngine(fleet, models={"m": make_mlp(8, 4, hidden=(16,), seed=7)})
    rng = np.random.default_rng(8)
    top = fleet.state.device_ids[-10:]
    windows = [{d: rng.normal(size=(int(rng.integers(1, 9)), 8)) for d in top} for _ in range(8)]
    return _report_bytes_per_device_window(engine, windows)


def redeploy_runtime_bytes() -> float:
    """Bytes ``repro/runtime/`` retains per device for each redeploy of one
    model on a 400-device fleet.  tracemalloc runs from before the first of
    four deploys; the row reads the growth from the second deploy to the
    fourth, because the first redeploy, replacing each device's first
    install, releases a one-off 2.6 KB.  Billing's growth per redeploy (the
    grants it sells) is by design and not counted here."""
    rng = np.random.default_rng(7)
    platform = TinyMLOpsPlatform(Fleet.random(400, seed=7))
    platform.release(make_mlp(8, 4, hidden=(16,), seed=7, name="m"), rng.normal(size=(64, 8)),
                     rng.integers(0, 4, size=64))
    runtime_only = [tracemalloc.Filter(True, "*/repro/runtime/*")]
    gc.collect()
    tracemalloc.start()
    try:
        held = []
        for _ in range(2):
            platform.deploy("m")
            platform.deploy("m")
            gc.collect()
            held.append(sum(t.size for t in tracemalloc.take_snapshot().filter_traces(runtime_only).traces))
    finally:
        tracemalloc.stop()
    return (held[1] - held[0]) / (2 * len(platform.fleet))


# The per-device dict of five-key dicts the count block replaced read 199.5
# (dense) and 234.2 (sparse) here; a block keyed by fleet row, padded up to
# the highest row served, read 48.1 dense but 320 067.6 sparse.
BYTE_BUDGETS = [
    ("FleetServeReport-dense", "serving_world(7, 400), 8 one-window reports", 44.9, 57, dense_report_bytes),
    ("FleetServeReport-sparse", "Fleet.random(100 000), top 10 rows, 8 one-window reports", 99.4, 125,
     sparse_report_bytes),
    # The orchestrator's placement log and per-device name lists read ≈ 112
    # here: every redeploy appended a decision and a name per device.
    ("runtime-redeploy", "Fleet.random(400, seed=7), one model deployed 4 times", 0.0, 0,
     redeploy_runtime_bytes),
]


@pytest.mark.parametrize("structure, scenario, measured, bound, measure", BYTE_BUDGETS,
                         ids=[row[0] for row in BYTE_BUDGETS])
def test_retained_bytes_within_budget(structure, scenario, measured, bound, measure):
    assert bound == math.ceil(measured * 1.25)
    value = measure()
    assert value <= bound, f"{structure} on {scenario}: {value:.1f} B > {bound} B"


def test_batched_window_reads_drift_once_per_monitor(counted):
    """Drift is read once per monitor, for ``devices_with_drift``, however
    many windows and window devices a ``serve_fleet`` call serves."""
    count, calls = counted
    count(EdgeMonitor, "any_drift")
    engine, windows = _windows(seed=3, n_devices=30, n_windows=3)
    report = engine.serve_fleet("m", windows)
    assert calls == {"any_drift": len(engine.monitors)}
    assert report.devices_with_drift == sum(m.any_drift() for m in engine.monitors.values())
