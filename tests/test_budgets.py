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

import copy
import gc
import math
import pickle
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

_HERE = Path(__file__).resolve().parent
for _path in (_HERE.parent / "src", _HERE / "runtime"):  # src: for ``python -m tests.test_budgets``
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from _sharded_worlds import serving_world  # noqa: E402

from repro.core import TinyMLOpsPlatform  # noqa: E402
from repro.core.serving import ServingEngine  # noqa: E402
from repro.devices import EdgeDevice, Fleet  # noqa: E402
from repro.exchange import Compiler  # noqa: E402
from repro.nn import make_mlp  # noqa: E402
from repro.observability import EdgeMonitor  # noqa: E402
from repro.runtime import Orchestrator  # noqa: E402


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


_RUNTIME_ONLY = [tracemalloc.Filter(True, "*/repro/runtime/*")]


def _released_on_400():
    """A released 8-input model on ``Fleet.random(400, seed=7)``."""
    rng = np.random.default_rng(7)
    platform = TinyMLOpsPlatform(Fleet.random(400, seed=7))
    platform.release(make_mlp(8, 4, hidden=(16,), seed=7, name="m"), rng.normal(size=(64, 8)),
                     rng.integers(0, 4, size=64))
    return platform


def deploy_runtime_bytes() -> float:
    """Bytes ``repro/runtime/`` retains per device after one deploy on a
    400-device fleet: what the installed artifacts hold."""
    platform = _released_on_400()
    gc.collect()
    tracemalloc.start()
    try:
        platform.deploy("m")
        gc.collect()
        held = sum(t.size for t in tracemalloc.take_snapshot().filter_traces(_RUNTIME_ONLY).traces)
    finally:
        tracemalloc.stop()
    return held / len(platform.fleet)


def redeploy_runtime_bytes() -> float:
    """Bytes ``repro/runtime/`` retains per device for each redeploy of one
    model on a 400-device fleet.  tracemalloc runs from before the first of
    four deploys; the row reads the growth from the second deploy to the
    fourth, because the first redeploy, replacing each device's first
    install, releases the first deploy's artifacts once.  Billing's growth
    per redeploy (the grants it sells) is by design and not counted here."""
    platform = _released_on_400()
    runtime_only = _RUNTIME_ONLY
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


def _held_bytes(build) -> int:
    """Bytes that what ``build()`` returns still holds after a collection."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = build()
        gc.collect()
        value = tracemalloc.get_traced_memory()[0] - before
        del held
    finally:
        tracemalloc.stop()
    return value


def _monitored_world(n_devices: int):
    """A released 16-input model on ``Fleet.random(n_devices, seed=7)`` and
    a 300×16 float32 reference window (float64 inside every detector)."""
    rng = np.random.default_rng(7)
    platform = TinyMLOpsPlatform(Fleet.random(n_devices, seed=7))
    model = make_mlp(16, 4, hidden=(16,), seed=7, name="m")
    platform.release(model, rng.normal(size=(64, 16)), rng.integers(0, 4, size=64))
    reference = rng.normal(size=(300, 16)).astype(np.float32)
    return platform, model, reference


def deploy_monitor_bytes() -> float:
    """Bytes the monitors of one deploy retain per monitored device: the
    bytes freed by dropping every monitor, over how many there were."""
    platform, model, reference = _monitored_world(100)
    predictions = model.predict_classes(reference)
    gc.collect()
    tracemalloc.start()
    try:
        platform.deploy("m", reference_x=reference, reference_predictions=predictions, num_classes=4)
        gc.collect()
        held, n = tracemalloc.get_traced_memory()[0], len(platform.monitors)
        platform.monitors.clear()
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / n


def _monitors(n: int):
    """``n`` KS + PSI monitors with output-drift checks, from one 300×16 reference."""
    rng = np.random.default_rng(7)
    reference, predictions = rng.normal(size=(300, 16)), rng.integers(0, 4, size=300)
    return {f"dev-{i}": EdgeMonitor(f"dev-{i}", reference, reference_predictions=predictions, num_classes=4)
            for i in range(n)}


def monitor_deepcopy_bytes() -> float:
    """Bytes ``copy.deepcopy`` of one monitor holds (the canary's copy)."""
    monitor = _monitors(1)["dev-0"]
    return _held_bytes(lambda: copy.deepcopy(monitor))


def shard_monitor_payload_bytes() -> float:
    """Pickled size of 15 monitors built from one reference: what a sharded
    serving window ships each way per shard for its monitors."""
    return len(pickle.dumps(_monitors(15)))


def sandbox_bytes_per_device(entries: int) -> float:
    """Bytes ``LifecyclePipeline._sandbox`` holds per canary device, over 8
    monitored devices whose ledgers hold ``entries`` entries each."""
    platform, model, reference = _monitored_world(12)
    predictions = model.predict_classes(reference)
    platform.deploy("m", reference_x=reference, reference_predictions=predictions, num_classes=4,
                    prepaid_queries=10**6)
    canary = sorted(platform.monitors)[:8]
    for device_id in canary:
        for _ in range(entries):
            platform.ledgers[device_id].record_batch("m", 1)
    pipeline = platform.lifecycle("m", [], (reference, predictions))
    return _held_bytes(lambda: pipeline._sandbox(canary, model)) / len(canary)


def canary_sandbox_bytes() -> float:
    """The larger of the sandbox's bytes per device over 10- and
    1 000-entry ledgers: one bound holds for both."""
    return max(sandbox_bytes_per_device(10), sandbox_bytes_per_device(1000))


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
    # A fresh artifact and manifest per device read 474.5 here; one shared
    # artifact per placement call leaves the ≤ 12 a deploy builds.
    ("runtime-deploy", "Fleet.random(400, seed=7), one deploy, per device", 13.0, 17, deploy_runtime_bytes),
    # With a private reference and sorted copy per detector these read
    # 80 275.3, 121 336, 1 740 535 and 137 532.4 (86 080.4 on 10 entries).
    ("monitors-after-deploy", "Fleet.random(100, seed=7), 300x16 reference, per monitored device", 3713.3,
     4642, deploy_monitor_bytes),
    ("monitor-deepcopy", "one KS + PSI monitor, 300x16 reference", 5880.0, 7350, monitor_deepcopy_bytes),
    ("shard-monitor-payload", "pickle of 15 KS + PSI monitors, one 300x16 reference", 49619.0, 62024,
     shard_monitor_payload_bytes),
    ("canary-sandbox", "8 canary devices of Fleet.random(12, seed=7), 10- and 1 000-entry ledgers, per device",
     7604.4, 9506, canary_sandbox_bytes),
]


@pytest.mark.parametrize("structure, scenario, measured, bound, measure", BYTE_BUDGETS,
                         ids=[row[0] for row in BYTE_BUDGETS])
def test_retained_bytes_within_budget(structure, scenario, measured, bound, measure):
    assert bound == math.ceil(measured * 1.25)
    value = measure()
    assert value <= bound, f"{structure} on {scenario}: {value:.1f} B > {bound} B"


def test_deploy_places_once_per_pipeline_and_reads_no_device_context(counted):
    """A deploy calls ``Orchestrator.place`` once per compiled pipeline, and
    every device a call places holds that call's one artifact; selection
    reads the fleet's columns, never ``EdgeDevice.context``.  The per-device
    loop this replaced read 400 place and 400 context calls here."""
    count, calls = counted
    platform = _released_on_400()
    for owner, name in ((Orchestrator, "place"), (Compiler, "compile"), (EdgeDevice, "context")):
        count(owner, name)
    summary = platform.deploy("m")
    artifacts = {id(d.installed["m"]) for d in platform.fleet}
    assert summary["deployed"] == 400
    assert calls == {"place": len(artifacts), "compile": len(artifacts), "context": 0}


def test_batched_window_reads_drift_once_per_monitor(counted):
    """Drift is read once per monitor, for ``devices_with_drift``, however
    many windows and window devices a ``serve_fleet`` call serves."""
    count, calls = counted
    count(EdgeMonitor, "any_drift")
    engine, windows = _windows(seed=3, n_devices=30, n_windows=3)
    report = engine.serve_fleet("m", windows)
    assert calls == {"any_drift": len(engine.monitors)}
    assert report.devices_with_drift == sum(m.any_drift() for m in engine.monitors.values())


if __name__ == "__main__":
    # ``python -m tests.test_budgets``: each row measured beside its bound,
    # the number a change that shrinks a structure tightens the bound to.
    print(f"{'structure':<24} {'measured':>12} {'recorded':>12} {'bound':>10}  scenario")
    for structure, scenario, measured, bound, measure in BYTE_BUDGETS:
        value = measure()
        flag = "" if value <= bound else "  OVER"
        print(f"{structure:<24} {value:>12.1f} {measured:>12.1f} {bound:>10}  {scenario}{flag}")
