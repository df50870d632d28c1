"""The six e0 workloads: what runs, at what size, and what is checked.

Load shape: closed loop, one client — the benchmark issues the next window /
round / story step when the previous call returns, which is how a platform
coordinator drives these planes; there is no arrival schedule and no queue.
Every input is generated here from ``--seed``; the platform only ever
receives the generated fleets, models, shards and traffic windows.

A workload sets its world up ``SETUPS`` times (``setup_s`` is the median),
runs a fixed number of units sized for ``NOMINAL_SECONDS`` on the 2-core
build container (``--seconds`` scales the counts, never the fleet sizes),
checks every output, and fills ``run.metrics``.  With tracing on, blocks of
units alternate between traced and untraced, so layer self times and the
tracing overhead come from the same run and the same world.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import shutil
import tempfile
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import PlatformConfig, TinyMLOpsPlatform
from repro.core.traffic import TrafficGenerator
from repro.data import make_gaussian_blobs, partition_dirichlet, partition_shards
from repro.devices import Fleet
from repro.faults import (
    DurableCheckpointStore,
    FaultInjector,
    FaultPlan,
    FaultRates,
    RoundInterrupted,
)
from repro.federated import FederatedClient, FederatedEngine, get_compressor, partition_cohorts
from repro.lifecycle import LifecycleConfig
from repro.nn import make_mlp
from repro.runtime.sharded import ShardedFleetRunner

from .stats import median, quartiles, tail
from .trace import Tracer, UnitTable

__all__ = ["WORKLOADS", "SIZES", "SMOKE_SIZES", "NOMINAL_SECONDS", "Run"]

NOMINAL_SECONDS = 8  # the run length the unit counts below are sized for
SETUPS = 3  # set-up repetitions per run; setup_s is their median
MODEL = "e0-model"
N_FEATURES, N_CLASSES, HIDDEN = 16, 5, (32, 16)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Sizes.  ``units`` is the number of timed windows / rounds / stories at
# NOMINAL_SECONDS: a fixed count (so ledgers, state directories and peak RSS
# grow by the same amount on every commit), sized to ~6.5 s on the 2-core
# build container when its neighbours are quiet (they can halve its speed).
# ``--seconds`` scales the counts, never the fleets, and a timed loop gives
# up ``GIVE_UP`` x ``--seconds`` into the run, so a slow host cannot blow the
# driver's time budget.
GIVE_UP = 2.5
SIZES: Dict[str, Dict[str, float]] = {
    # Metering + admission do the work, observability does none: 1 device in
    # 10 holds a quota that runs out during warm-up, so every timed window
    # carries the same ~10 % denied share.  Only 8 distinct windows are
    # generated so peak RSS is the program's (ledgers), not the generator's.
    # The sync phase then *reads* the ledgers the windows wrote.
    "serve_metered": dict(devices=2000, units=160, distinct=8, warmup=12, rate=20.0,
                          low_quota=150, sync_devices=1000),
    # Every device monitored: FleetMonitor / telemetry / P2 / KS dominate and
    # the compiled plan's run_many finally runs; metering is a few percent.
    # From the third generated day on a fixed quarter of the fleet receives
    # shifted inputs.
    "serve_monitored": dict(devices=300, units=48, period=12, days=4, warmup=3, peak=40.0,
                            trough=2.0, drift_every=4, drift_shift=5.0),
    # The sharded fan-out (fresh fork pool per window, extract_rows, deep-
    # copied ledgers/monitors, barrier merge); a batched twin world serves
    # the same windows for the byte-identity check and the reference time.
    # A sharded window slows with every ledger entry and telemetry sample the
    # world has accumulated (4x over 36 windows on a fresh world), so the
    # world is aged by 40 untimed batched windows first: the timed windows
    # then sit on a nearly flat stretch of that curve.
    "serve_sharded": dict(devices=300, units=14, distinct=4, warmup=40, rate=20.0,
                          monitor_every=10, backend_windows=3),
    # Cohort training is the round; persist / durable do nothing.  The
    # bypass row for every durability change.
    "federate_plain": dict(clients=200, samples_per_client=60, units=240),
    # The same world on a DurableCheckpointStore under a seeded fault plan,
    # with a coordinator interrupt every 10th round: writes (put / commit /
    # manifest flush / fsync) beside reads (reopen / replay / resume).
    "federate_durable": dict(clients=200, samples_per_client=60, units=120, interrupt_every=10),
    # ROADMAP's canonical story on fresh platforms: the only workload with
    # deploy, optimize, registry, lifecycle and verification on the timed
    # path; catches work moved between phases.
    "platform_story": dict(devices=400, units=6, clean_windows=6, drift_windows=4,
                           monitor_every=5, drift_every=20, drift_shift=5.0,
                           fed_clients=32, fed_rounds=3, retrain_rounds=2),
}

# --smoke: seconds, not minutes; numbers from it are never comparable.
SMOKE_SIZES: Dict[str, Dict[str, float]] = {
    "serve_metered": dict(devices=120, units=8, distinct=4, warmup=10, rate=20.0,
                          low_quota=150, sync_devices=60),
    "serve_monitored": dict(devices=24, units=8, period=4, days=2, warmup=1, peak=40.0,
                            trough=2.0, drift_every=4, drift_shift=5.0),
    "serve_sharded": dict(devices=60, units=4, distinct=2, warmup=2, rate=20.0,
                          monitor_every=10, backend_windows=1),
    "federate_plain": dict(clients=16, samples_per_client=60, units=8),
    "federate_durable": dict(clients=16, samples_per_client=60, units=8, interrupt_every=4),
    "platform_story": dict(devices=60, units=2, clean_windows=2, drift_windows=2,
                           monitor_every=5, drift_every=10, drift_shift=5.0,
                           fed_clients=8, fed_rounds=1, retrain_rounds=1),
}


class Run:
    """One benchmark run of one workload: sizes, timing, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.sizes = dict((SMOKE_SIZES if smoke else SIZES)[workload])
        if not smoke:
            self.sizes["units"] = max(2, round(self.sizes["units"] * seconds / NOMINAL_SECONDS))
        self.give_up_at = time.perf_counter() + GIVE_UP * seconds
        self.setups = 1 if smoke else SETUPS
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        # unit kind -> [(wall seconds, traced?)]
        self.samples: Dict[str, List[Tuple[float, bool]]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        self._state_dirs: List[str] = []

    def n(self, key: str) -> int:
        return int(self.sizes[key])

    # -- timing --------------------------------------------------------------
    def setup(self, build: Callable[[], object]):
        """Build the world ``setups`` times; keep the last, report the median."""
        times, world = [], None
        for _ in range(self.setups):
            world = None
            gc.collect()
            start = time.perf_counter()
            world = build()
            times.append(time.perf_counter() - start)
        self.metrics["setup_s"] = median(times)
        return world

    def units(self, block: int = 1) -> Iterator[int]:
        """Indices of the timed units: ``sizes['units']`` of them, fewer on a host
        so slow that the run passes ``give_up_at`` (never under two blocks)."""
        for index in range(self.n("units")):
            if index >= 2 * block and time.perf_counter() > self.give_up_at:
                break
            yield index

    def call(self, kind: str, index: int, block: int, fn: Callable, *args, **kwargs):
        """Time one unit; with tracing on, even blocks of ``block`` units are traced.

        A unit that raises is recorded under ``<kind>_interrupted``.
        """
        tracer = self.tracer
        traced = tracer is not None and (index // block) % 2 == 0
        if tracer is not None and traced != tracer.installed:
            tracer.install() if traced else tracer.remove()
        if traced:
            tracer.begin(kind)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            kind += "_interrupted"
            if traced:
                tracer.units[-1] = (kind, tracer.units[-1][1])
            raise
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.end()
            self.samples.setdefault(kind, []).append((wall, traced))
        return result

    def walls(self, kind: str, traced: bool = False) -> List[float]:
        return [w for w, t in self.samples.get(kind, []) if t == traced]

    def check(self, ok: bool, what: str) -> None:
        """One checked operation; a violation counts as failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def state_dir(self) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = tempfile.mkdtemp(prefix=f"state-{self.workload}-", dir=OUT_DIR)
        self._state_dirs.append(path)
        return path

    def close(self) -> None:
        if self.tracer is not None and self.tracer.installed:
            self.tracer.remove()
        for path in self._state_dirs:
            shutil.rmtree(path, ignore_errors=True)

    # -- metrics ---------------------------------------------------------------
    def unit_metrics(self, kind: str, work: Sequence[float]) -> None:
        """The gated timings, from the untraced units of ``kind``.

        Neighbours on a shared host only ever *add* time, so the gate sits on
        the quartile they reach last: ``unit_p25_ms`` is the lower quartile of
        the unit wall time and ``work_per_s`` the upper quartile of the
        per-unit rate ``work[i] / wall[i]``.  Median, tail and sample count
        are reported beside them.
        """
        samples, walls = self.samples[kind], self.walls(kind)
        q1, q2, _ = quartiles(walls)
        self.metrics["unit_p25_ms"] = q1 * 1e3
        self.metrics["unit_p50_ms"] = q2 * 1e3
        self.metrics["unit_tail_ms"] = tail(walls) * 1e3
        self.metrics["unit_samples"] = len(walls)
        rates = [n / w for n, (w, traced) in zip(work, samples) if not traced]
        self.metrics["work_per_s"] = quartiles(rates)[2]
        traced_walls = self.walls(kind, traced=True)
        if traced_walls and walls:
            self.metrics["trace.overhead_ratio"] = median(traced_walls) / median(walls)

    def layer_metrics(self, table: Optional[UnitTable], only: Optional[Sequence[str]] = None) -> None:
        """``<span>_ms`` / ``_share`` / ``_calls``: per-unit self time, median over units."""
        if table is None:
            return
        for name, self_ms in table.self_ms.items():
            if only is not None and name not in only:
                continue
            shares = [s / r for s, r in zip(self_ms, table.root_ms) if r > 0]
            if name.startswith("unit."):  # the first table is the workload's main unit kind
                self.metrics.setdefault("trace.unattributed_share", median(shares))
                continue
            self.metrics[name + "_ms"] = median(self_ms)
            self.metrics[name + "_share"] = median(shares)
            self.metrics[name + "_calls"] = median(table.calls[name])

    def finish(self) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.workload == "serve_sharded":  # the pool workers are the workload
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.metrics["peak_rss_mb"] = usage / 1024.0
        self.metrics["failed_share"] = len(self.failures) / max(self.attempted, 1)


# ---------------------------------------------------------------------------
# shared world pieces
# ---------------------------------------------------------------------------
def _task(seed: int, n_samples: int = 2000):
    dataset = make_gaussian_blobs(n_samples, N_FEATURES, N_CLASSES, cluster_std=1.2, seed=seed)
    return dataset.split(test_fraction=0.3, seed=seed)


def _released_platform(seed: int, n_devices: int, train, test, watermark_owner=None):
    """A fresh platform over a random fleet with the trained model released."""
    model = make_mlp(N_FEATURES, N_CLASSES, hidden=HIDDEN, seed=seed, name=MODEL)
    model.fit(train.x, train.y, epochs=5, lr=0.01, seed=seed)
    platform = TinyMLOpsPlatform(Fleet.random(n_devices, seed=seed), PlatformConfig(seed=seed))
    platform.release(model, test.x, test.y, watermark_owner=watermark_owner)
    return platform


def _deploy(run: Run, platform, device_ids, prepaid: int, reference=None) -> Dict[str, object]:
    kwargs = {}
    if reference is not None:
        model = platform.deployed_models[MODEL]
        kwargs = dict(reference_x=reference, reference_predictions=model.predict_classes(reference),
                      num_classes=N_CLASSES)
    summary = platform.deploy(MODEL, prepaid_queries=prepaid, device_ids=list(device_ids), **kwargs)
    run.check(summary["failed"] == 0, f"deploy failed on {summary['failed']} devices")
    return summary


def _check_report(run: Run, report) -> None:
    run.check(
        report.served + report.denied_quota + report.battery_failures + report.network_failures
        == report.requested,
        "window outcome counts do not add up to requested",
    )


def _serve_windows(run: Run, platform, windows, block: int, **serve_kwargs) -> List:
    """The timed serve loop: windows cycling the pre-generated ones."""
    reports = []
    for i in run.units(block):
        report = run.call("window", i, block, platform.serve_fleet, MODEL,
                          windows[i % len(windows)], **serve_kwargs)
        _check_report(run, report)
        reports.append(report)
    run.unit_metrics("window", [r.requested for r in reports])
    requested = sum(r.requested for r in reports)
    run.metrics["billing.metering.denied_share"] = sum(r.denied_quota for r in reports) / requested
    run.metrics["devices.state.battery_failed_share"] = sum(r.battery_failures for r in reports) / requested
    run.metrics["observability.monitor.monitored_share"] = len(platform.monitors) / len(platform.fleet)
    return reports


def _sync_phase(run: Run, platform, device_ids: Sequence[str], block: int = 50) -> None:
    """sync_device on each device: ledger export + BillingBackend.reconcile."""
    price = platform.config.price_per_query
    synced, entries = [], 0
    for i, device_id in enumerate(device_ids):
        result = run.call("sync", i, block, platform.sync_device, device_id)
        synced.append(bool(result["synced"]))  # Fleet.random leaves a third of the fleet offline
        if not synced[-1]:
            continue
        ledger = platform.ledgers[device_id]
        entries += len(ledger.entries)
        run.check(
            bool(result["billing_accepted"])
            and result["billed_amount"] == round(price * ledger.used(MODEL), 6),
            f"sync of {device_id} rejected or billed a wrong amount",
        )
    untraced = [(ok, wall) for ok, (wall, traced) in zip(synced, run.samples["sync"]) if not traced]
    run.metrics["sync_devices_per_s"] = sum(ok for ok, _ in untraced) / sum(wall for _, wall in untraced)
    run.metrics["billing.backend.entries_verified_per_sync"] = entries / max(sum(synced), 1)


def _check_ledgers(run: Run, platform, sample: int = 50) -> None:
    ids = sorted(platform.ledgers)
    for device_id in ids[:: max(1, len(ids) // sample)]:
        run.check(platform.ledgers[device_id].verify_chain(), f"ledger chain of {device_id} broken")
    run.metrics["billing.metering.ledger_entries"] = sum(len(l.entries) for l in platform.ledgers.values())


def _drift_quality(run: Run, platform, drifted: Sequence[str]) -> None:
    """Quality counts (reported, not gated): drifted slice flagged, clean devices flagged."""
    drifted = set(drifted)
    flagged = {d for d, m in platform.monitors.items() if m.any_drift()}
    monitored_drifted = drifted & set(platform.monitors)
    clean = set(platform.monitors) - drifted
    run.metrics["observability.monitor.detected_share"] = len(flagged & monitored_drifted) / max(len(monitored_drifted), 1)
    run.metrics["observability.monitor.false_alarm_share"] = len(flagged & clean) / max(len(clean), 1)


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------
def serve_metered(run: Run) -> None:
    train, test = _task(run.seed)
    generate_s: List[float] = []

    def build():
        platform = _released_platform(run.seed, run.n("devices"), train, test)
        ids = list(platform.fleet.devices)
        low = set(ids[::10])
        _deploy(run, platform, [d for d in ids if d not in low], prepaid=10**9)
        _deploy(run, platform, sorted(low), prepaid=run.n("low_quota"))
        start = time.perf_counter()
        generator = TrafficGenerator(ids, seed=run.seed)
        windows = list(generator.windows(generator.steady(run.n("distinct"), rate=run.sizes["rate"]), test.x))
        generate_s.append(time.perf_counter() - start)
        for i in range(run.n("warmup")):
            platform.serve_fleet(MODEL, windows[i % len(windows)])
        return platform, ids, windows

    platform, ids, windows = run.setup(build)
    run.metrics["core.traffic.generate_ms"] = median(generate_s) * 1e3
    _serve_windows(run, platform, windows, block=run.n("distinct"))
    _sync_phase(run, platform, ids[: run.n("sync_devices")])
    _check_ledgers(run, platform)
    if run.tracer is not None:
        tables = run.tracer.tables()
        run.layer_metrics(tables.get("window"))
        run.layer_metrics(tables.get("sync"))


def serve_monitored(run: Run) -> None:
    train, test = _task(run.seed)
    period, warmup = run.n("period"), run.n("warmup")
    generate_s: List[float] = []
    drifted: List[str] = []

    def build():
        platform = _released_platform(run.seed, run.n("devices"), train, test)
        ids = list(platform.fleet.devices)
        _deploy(run, platform, ids, prepaid=10**9, reference=train.x[:300])
        start = time.perf_counter()
        generator = TrafficGenerator(ids, seed=run.seed)
        n_windows = warmup + run.n("days") * period
        counts = generator.diurnal(n_windows, peak_rate=run.sizes["peak"],
                                   trough_rate=run.sizes["trough"], period=period)
        windows = list(generator.windows(counts, test.x))
        drifted[:] = ids[:: run.n("drift_every")]
        for window in windows[warmup + (n_windows - warmup) // 2:]:
            for device_id in drifted:
                window[device_id] = window[device_id] + run.sizes["drift_shift"]
        generate_s.append(time.perf_counter() - start)
        for window in windows[:warmup]:  # untimed: fills the five-marker sketches
            platform.serve_fleet(MODEL, window)
        return platform, windows[warmup:]

    platform, windows = run.setup(build)
    run.metrics["core.traffic.generate_ms"] = median(generate_s) * 1e3
    _serve_windows(run, platform, windows, block=period)
    _drift_quality(run, platform, drifted)
    _check_ledgers(run, platform)
    if run.tracer is not None:
        table = run.tracer.tables().get("window")
        run.layer_metrics(table)
        calls = sum(table.calls.get("exchange.compiled.run_many", []))
        run.metrics["exchange.compiled.rows_per_call"] = (
            sum(table.values.get("exchange.compiled.run_many", [])) / max(calls, 1)
        )


def serve_sharded(run: Run) -> None:
    train, test = _task(run.seed)
    workers = min(2, os.cpu_count() or 1)
    generate_s: List[float] = []

    def build():
        platform = _released_platform(run.seed, run.n("devices"), train, test)
        ids = list(platform.fleet.devices)
        monitored = set(ids[:: run.n("monitor_every")])
        _deploy(run, platform, [d for d in ids if d not in monitored], prepaid=10**9)
        _deploy(run, platform, sorted(monitored), prepaid=10**9, reference=train.x[:300])
        start = time.perf_counter()
        generator = TrafficGenerator(ids, seed=run.seed)
        windows = list(generator.windows(generator.steady(run.n("distinct"), rate=run.sizes["rate"]), test.x))
        generate_s.append(time.perf_counter() - start)
        for i in range(run.n("warmup")):  # age the world (single process, untimed)
            platform.serve_fleet(MODEL, windows[i % len(windows)])
        return platform, ids, windows

    platform, ids, windows = run.setup(build)
    run.metrics["core.traffic.generate_ms"] = median(generate_s) * 1e3
    runner = ShardedFleetRunner(workers=workers)
    platform.serving.shard_runner = runner
    reports = _serve_windows(run, platform, windows, block=1, engine="sharded")
    run.metrics["runtime.sharded.recoveries"] = sum(r.shard_recoveries for r in reports)
    if run.tracer is not None:
        run.layer_metrics(run.tracer.tables().get("window"))
        run.tracer.remove()

    # The batched twin: an identical world serving the same windows in one
    # process must leave the same reports, ledger heads and battery /
    # counter planes.
    twin, _, _ = build()
    twin_walls = []
    for i, report in enumerate(reports):
        start = time.perf_counter()
        twin_report = twin.serve_fleet(MODEL, windows[i % len(windows)], engine="batched")
        twin_walls.append(time.perf_counter() - start)
        run.check(
            twin_report.as_dict() == report.as_dict() and twin_report.per_device == report.per_device,
            f"sharded report of window {i} differs from the batched twin's",
        )
    run.check(
        all(platform.ledgers[d].head_mac() == twin.ledgers[d].head_mac() for d in ids),
        "sharded ledger head MACs differ from the batched twin's",
    )
    state, twin_state = platform.fleet.state, twin.fleet.state
    run.check(
        state.level_j.tobytes() == twin_state.level_j.tobytes()
        and state.query_count.tobytes() == twin_state.query_count.tobytes(),
        "sharded level_j / query_count planes differ from the batched twin's",
    )
    _check_ledgers(run, platform)
    # Like for like: the same windows, sharded wall over batched wall.
    sharded_walls = [w for w, _ in run.samples["window"]]
    run.metrics["runtime.sharded.overhead_ratio"] = median(sharded_walls) / median(twin_walls)
    run.metrics["runtime.sharded.batched_window_ms"] = median(twin_walls) * 1e3

    if run.tracer is not None:  # the three backends on the same (aged) world
        for backend in ("pickle", "shared", "inline"):
            runner.backend = backend
            walls = []
            for i in range(run.n("backend_windows")):
                start = time.perf_counter()
                _check_report(run, platform.serve_fleet(MODEL, windows[i % len(windows)], engine="sharded"))
                walls.append(time.perf_counter() - start)
            run.metrics[f"runtime.sharded.window_ms_{backend}"] = median(walls) * 1e3


# ---------------------------------------------------------------------------
# federated workloads
# ---------------------------------------------------------------------------
def _federated_world(run: Run) -> FederatedEngine:
    """A deterministic federated world; rebuilt from scratch on every resume."""
    seed, n_clients = run.seed, run.n("clients")
    dataset = make_gaussian_blobs(n_clients * run.n("samples_per_client"), N_FEATURES, N_CLASSES,
                                  cluster_std=1.2, seed=seed)
    train, test = dataset.split(test_fraction=0.2, seed=seed)
    # label-sorted shards: non-IID like a Dirichlet split, but every client
    # holds the same number of samples, so the padded cohort tensors (and a
    # round's cost) do not depend on the seed
    shards = partition_shards(train, n_clients, shards_per_client=2, seed=seed)
    clients = [
        # two cohort configs: odd clients 2 epochs / batch 8, even 1 epoch / batch 16
        FederatedClient(shard, local_epochs=2 if i % 2 else 1, batch_size=8 if i % 2 else 16,
                        lr=0.05, seed=seed + i)
        for i, shard in enumerate(shards)
    ]
    model = make_mlp(N_FEATURES, N_CLASSES, hidden=HIDDEN, seed=seed)
    return FederatedEngine(model, clients, compressor=get_compressor("topk", fraction=0.1),
                           eval_data=(test.x, test.y))


def _warm_rounds(run: Run, n: int = 3) -> None:
    engine = _federated_world(run)
    for r in range(n):
        engine.run_round(r)


def _round_metrics(run: Run, engine: FederatedEngine, results: Sequence, resumed: Sequence[int] = ()) -> None:
    """Round timings (work = client updates delivered and aggregated) and counts."""
    run.unit_metrics("round", [len(r.participants) for r in results if r.round_index not in resumed])
    cohorts = partition_cohorts(engine.global_model, list(engine.clients.values()))
    run.metrics["federated.engine.fallback_clients"] = sum(len(c.indices) for c in cohorts if c.kind == "fallback")
    selected = max(sum(r.n_selected for r in results), 1)
    run.metrics["faults.injector.crashed_share"] = sum(r.n_crashes for r in results) / selected
    run.metrics["faults.injector.lost_delivery_share"] = sum(r.n_delivery_failures for r in results) / selected
    run.metrics["federated.compression.uplink_bytes_per_round"] = median([r.uplink_bytes for r in results])
    run.metrics["federated.accuracy"] = results[-1].global_accuracy
    run.check(results[-1].global_accuracy >= 0.9, f"final accuracy {results[-1].global_accuracy:.3f} < 0.9")
    walls = run.walls("round")
    k = min(10, len(walls) // 2)  # median of the last 10 rounds over the first 10
    if k:
        run.metrics["federated.engine.round_growth_ratio"] = median(walls[-k:]) / median(walls[:k])


def _round_layers(run: Run) -> None:
    if run.tracer is None:
        return
    tables = run.tracer.tables()
    table = tables.get("round")
    run.layer_metrics(table)
    if table is not None:
        run.metrics["federated.engine.cohorts_per_round"] = median(
            table.calls.get("federated.engine.train_clients_batched", [0]))
        run.metrics["persist.bytes_written_per_round"] = median(table.values.get("persist.atomic_write", [0]))
        run.metrics["persist.fsyncs_per_round"] = median(table.calls.get("persist.fsync", [0]))
    run.layer_metrics(tables.get("resume"), only=("faults.durable.open", "faults.durable.latest_commit",
                                                   "faults.durable.load_plan", "e0.rebuild_world"))


def federate_plain(run: Run) -> None:
    def build():
        _warm_rounds(run)
        return _federated_world(run)

    engine = run.setup(build)
    block = max(1, min(10, run.n("units") // 2))
    results = [run.call("round", r, block, engine.run_round, r) for r in run.units(block)]
    _round_metrics(run, engine, results)
    _round_layers(run)


def federate_durable(run: Run) -> None:
    every = run.n("interrupt_every")

    def plan_for(engine: FederatedEngine) -> FaultPlan:
        n_rounds = run.n("units")
        plan = FaultPlan.generate(run.seed + 17, client_ids=sorted(engine.clients), n_rounds=n_rounds,
                                  rates=FaultRates(device_crash=0.1, uplink_loss=0.15))
        # the coordinator dies after the first cohort of every ``every``-th round
        return dataclasses.replace(plan, interrupts=tuple((r, 1) for r in range(every - 1, n_rounds, every)))

    def build():
        _warm_rounds(run)
        engine = _federated_world(run)
        store = DurableCheckpointStore(run.state_dir())
        plan = plan_for(engine)
        store.put_plan(plan)  # the plan travels with the state dir
        engine.checkpoints = store
        engine.fault_injector = FaultInjector(plan)
        return engine

    world = {"engine": run.setup(build)}
    root = world["engine"].checkpoints.root
    span = (lambda name, fn, *a: fn(*a)) if run.tracer is None else run.tracer.span

    def resume(round_index: int):
        """The examples/crash_recovery.py recipe: nothing survives but the state dir."""
        world["engine"] = None
        engine = span("e0.rebuild_world", _federated_world, run)
        store = DurableCheckpointStore(root)  # replays the manifest
        engine.checkpoints = store
        engine.fault_injector = FaultInjector(store.load_plan())
        commit = store.latest_commit()
        if commit is not None:
            engine.global_model.set_flat_weights(commit["weights"])
            engine._restore_scheduler_rng(commit["scheduler_state"])
        world["engine"] = engine
        return engine.run_round(round_index)

    results, resumed = [], []
    for r in run.units(every):
        try:
            results.append(run.call("round", r, every, world["engine"].run_round, r))
        except RoundInterrupted:
            results.append(run.call("resume", r, every, resume, r))
            resumed.append(r)
    engine, rounds = world["engine"], len(results)
    _round_metrics(run, engine, results, resumed)
    run.metrics["resume_p50_ms"] = median(run.walls("resume")) * 1e3
    run.metrics["resume_samples"] = len(run.walls("resume"))
    run.check(resumed == list(range(every - 1, rounds, every)),
              "not every scheduled coordinator interrupt fired and resumed")
    state_bytes = sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)
    committed = len(engine.checkpoints.commits())
    run.check(committed == rounds, f"{committed} committed rounds on disk, expected {rounds}")
    run.metrics["state_mb_per_round"] = state_bytes / 1e6 / max(committed, 1)
    run.metrics["faults.durable.manifest_bytes"] = os.path.getsize(os.path.join(root, "MANIFEST.json"))
    _round_layers(run)
    if run.tracer is not None:
        run.tracer.remove()

    # Crash recovery must not change the model: an uninterrupted in-memory
    # run of the same plan ends on the same bytes.
    reference = _federated_world(run)
    reference.fault_injector = FaultInjector(dataclasses.replace(plan_for(reference), interrupts=()))
    for r in range(rounds):
        reference.run_round(r)
    run.check(
        reference.global_model.get_flat_weights().tobytes() == engine.global_model.get_flat_weights().tobytes(),
        "recovered weights differ from the uninterrupted in-memory run",
    )


# ---------------------------------------------------------------------------
# the platform story
# ---------------------------------------------------------------------------
def platform_story(run: Run) -> None:
    sizes = run.sizes
    n_devices, n_clean = run.n("devices"), run.n("clean_windows")

    def build():
        train, test = _task(run.seed, n_samples=2400)
        base = make_mlp(N_FEATURES, N_CLASSES, hidden=HIDDEN, seed=run.seed, name=MODEL)
        base.fit(train.x, train.y, epochs=5, lr=0.01, seed=run.seed)
        ids = list(Fleet.random(n_devices, seed=run.seed).devices)
        generator = TrafficGenerator(ids, seed=run.seed)
        windows = list(generator.windows(generator.diurnal(n_clean + run.n("drift_windows")), test.x))
        drifted = ids[:: run.n("drift_every")]
        for window in windows[n_clean:]:
            for device_id in drifted:
                window[device_id] = window[device_id] + sizes["drift_shift"]
        shards = partition_dirichlet(train, run.n("fed_clients"), alpha=0.7, seed=run.seed)
        for device_id, shard in zip(ids, shards):  # fleet-mapped clients
            shard.client_id = device_id
        return train, test, base, ids, windows, drifted, shards

    train, test, base, ids, windows, drifted, shards = run.setup(build)
    monitored = ids[:: run.n("monitor_every")]
    platform = None

    def story() -> Dict[str, float]:
        nonlocal platform
        clock, phases = time.perf_counter, {}
        platform = TinyMLOpsPlatform(Fleet.random(n_devices, seed=run.seed), PlatformConfig(seed=run.seed))
        model = base.clone(copy_weights=True)
        model.name = MODEL
        platform.release(model, test.x, test.y, watermark_owner="e0")
        start = clock()
        _deploy(run, platform, ids, prepaid=10**6)
        _deploy(run, platform, monitored, prepaid=10**6, reference=train.x[:300])
        phases["deploy_s"] = clock() - start
        pipeline = platform.lifecycle(
            MODEL, shards, (test.x, test.y),
            config=LifecycleConfig(rounds=run.n("retrain_rounds"), seed=run.seed),
        )
        for window in windows[:n_clean]:
            _check_report(run, platform.serve_fleet(MODEL, window))
        start = clock()
        for window in windows[n_clean:]:
            _check_report(run, platform.serve_fleet(MODEL, window))
        decision = pipeline.step()
        phases["drift_to_decision_s"] = clock() - start
        run.check(decision is not None and decision.promoted, "the lifecycle cycle did not promote")
        update = platform.federated_update(MODEL, shards, rounds=run.n("fed_rounds"), eval_data=(test.x, test.y))
        run.check(len(update["rounds"]) == run.n("fed_rounds"), "federated_update lost a round")
        for device_id in ids:
            result = platform.sync_device(device_id)
            run.check(not result["synced"] or bool(result["billing_accepted"]), f"sync of {device_id} rejected")
        platform.fleet_health()
        run.check(bool(platform.verify_inference(MODEL, test.x[:16])["valid"]), "verify_inference invalid")
        return phases

    phases = [run.call("story", i, 1, story) for i in run.units()]
    untraced = [p for p, (_, traced) in zip(phases, run.samples["story"]) if not traced]
    # work = devices deployed per second of the story's deploy phase
    deployed = len(ids) + len(monitored)
    walls = [wall for wall, _ in run.samples["story"]]
    run.unit_metrics("story", [deployed * wall / p["deploy_s"] for p, wall in zip(phases, walls)])
    run.metrics["drift_to_decision_s"] = median([p["drift_to_decision_s"] for p in untraced])
    _drift_quality(run, platform, drifted)
    _check_ledgers(run, platform)
    if run.tracer is not None:
        tracer = run.tracer
        run.layer_metrics(tracer.tables().get("story"))
        stories = [u for u, (kind, _) in enumerate(tracer.units) if kind == "story"]
        for metric, name in (("lifecycle.pipeline.retrain_ms", "federated.engine.round"),
                             ("lifecycle.pipeline.canary_ms", "core.serving.window")):
            totals = tracer.total_under(name, "lifecycle.pipeline.cycle")
            run.metrics[metric] = median([totals[u] for u in stories])


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "serve_metered": serve_metered,
    "serve_monitored": serve_monitored,
    "serve_sharded": serve_sharded,
    "federate_plain": federate_plain,
    "federate_durable": federate_durable,
    "platform_story": platform_story,
}
