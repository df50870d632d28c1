"""Replay pins: what federated rounds and served windows produced when the
pins were recorded, so "nothing changed" is a cross-commit fact (ROADMAP
item 1).

Every identity suite compares engine A with engine B inside one commit; a
refactor that shifts all engines alike passes them all.  These worlds are
driven through the public API and compared with ``round_pins.*`` (federated
rounds) and ``serving_pins.*`` (``serve_fleet`` windows, ledgers, monitors):
exact for discrete artefacts (participants, integer result and report
fields, scheduler RNG stream, checkpoint and plan digests, ledger head MACs,
drift events), and for floats (weights, losses, battery ``level_j``, drift
statistics, telemetry summaries) bit-exact on the recording NumPy,
``rtol=1e-12`` elsewhere.  ``python -m tests.pins --update`` rewrites all
four files, and ``state/crash_schedule.json`` (the durable store's op
schedule, see ``tests/faults/test_crash_states.py``); a diff in a recorded world is a behaviour change and the PR
title says so (appending worlds is not).  Lifecycle decision record ids are
not pinned yet: they wait for the slice that stops pickling them (ROADMAP
item 5c).
"""

import contextlib
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

_HERE = Path(__file__).resolve().parent
for _path in (_HERE.parents[1] / "src", _HERE.parent / "runtime"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from _sharded_worlds import federated_world, serving_world  # noqa: E402
from repro.devices import Fleet  # noqa: E402
from repro.faults import CheckpointStore, FaultInjector, FaultPlan, FaultRates, RoundInterrupted  # noqa: E402
from repro.federated import (  # noqa: E402
    EligibilityScheduler,
    FedAdamAggregator,
    QuantizedCompressor,
    RandomScheduler,
    RoundScenario,
    SecureAggregator,
    SignSGDCompressor,
    TernaryCompressor,
    TopKSparsifier,
    TrimmedMeanAggregator,
)
from repro.nn.optimizers import get_optimizer  # noqa: E402
from repro.runtime.sharded import ShardedFleetRunner  # noqa: E402

N_CLIENTS = 12
CLIENT_IDS = [f"c{i}" for i in range(N_CLIENTS)]
ENGINES = ("oracle", "batched", "sharded")
RATES = FaultRates(partition=0.0, device_crash=0.15, uplink_loss=0.25,
                   uplink_corrupt=0.1, uplink_duplicate=0.2)


def _scenario():
    return RoundScenario(dropout_rate=0.2, byzantine_ids=frozenset({"c1", "c4"}),
                         byzantine_mode="flip", byzantine_scale=3.0, seed=13)


def _wire_fleet(fed):
    fed.fleet = Fleet.random(N_CLIENTS, seed=57)
    fed.device_map = {cid: dev.device_id for cid, dev in zip(CLIENT_IDS, fed.fleet)}
    fed.scheduler = EligibilityScheduler(max_clients=5, require_unmetered=False, min_soc=0.1, seed=5)


def _fleet_scenario(fed):
    _wire_fleet(fed)
    fed.scenario = _scenario()


def _quorum_abort(fed):
    fed.scenario, fed.quorum = _scenario(), 1.0


def _chaos(after):
    def setup(fed):
        plan = FaultPlan.generate(21, client_ids=CLIENT_IDS, n_rounds=3, rates=RATES)
        fed.fault_injector = FaultInjector(dataclasses.replace(plan, interrupts=((0, after),)))
        fed.scenario, fed.quorum, fed.checkpoints = _scenario(), 0.3, CheckpointStore()
    return setup


def _attr(name, make):
    return lambda fed: setattr(fed, name, make())


# name -> (set-up applied to federated_world(4, N_CLIENTS), engines, rounds)
_SETUPS = {
    "trivial": (lambda fed: None, ENGINES, 2),
    "quorum-abort": (_quorum_abort, ENGINES, 2),
    "fleet": (_wire_fleet, ENGINES, 2),
    "fleet-scenario": (_fleet_scenario, ENGINES, 2),
}
# Round 0 has a zero-sample contributor (c10, row 5): after=6 interrupts the
# oracle past it (client granularity) and never fires on cohort granularity.
for _after in (0, 1, 6, 99):
    _SETUPS[f"chaos-after{_after}"] = (_chaos(_after), ENGINES, 3)
for _name, _make in [("topk", lambda: TopKSparsifier(0.2)), ("sign", SignSGDCompressor),
                     ("ternary", TernaryCompressor), ("quantized", lambda: QuantizedCompressor(4))]:
    _SETUPS[f"compressor-{_name}"] = (_attr("compressor", _make), ENGINES[:2], 2)
for _name, _make in [("fedadam", FedAdamAggregator), ("trimmed", lambda: TrimmedMeanAggregator(0.2)),
                     ("secure", lambda: SecureAggregator(seed=3))]:
    _SETUPS[f"aggregator-{_name}"] = (_attr("aggregator", _make), ENGINES[:2], 2)


def _fallback(fed):
    # Stateful optimizer instances cannot be replayed in a batched sweep:
    # c3 and c7 form a fallback cohort beside the batched and idle ones.
    for cid in ("c3", "c7"):
        fed.clients[cid].optimizer_name = get_optimizer("momentum", lr=0.05)
    fed.compressor = TopKSparsifier(0.2)
    fed.scenario = RoundScenario(dropout_rate=0.2, seed=13)


# Appended after the worlds above so theirs keep their float offsets.
_SETUPS["fallback"] = (_fallback, ENGINES, 3)
# engine suffix -> the runner a sharded world assigns (and closes)
_RUNNERS = {"sharded": dict(backend="inline"), "sharded-pool": dict(workers=2, backend="pickle")}

WORLDS = [f"{name}/{engine}" for name, (_, engines, _) in _SETUPS.items() for engine in engines]
WORLDS.append("trivial/sharded-pool")


def _runner(engine, **overrides):
    """The runner a sharded world runs on, closed on exit; else a no-op."""
    if engine not in _RUNNERS:
        return contextlib.nullcontext()
    return ShardedFleetRunner(**{**_RUNNERS[engine], **overrides})


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def capture(world):
    """Run one world; returns ``(discrete pins dict, float pins array)``."""
    name, engine = world.split("/")
    setup, _, n_rounds = _SETUPS[name]
    fed = federated_world(4, N_CLIENTS)
    fed.scheduler = RandomScheduler(0.8, seed=3)
    setup(fed)
    results, interrupts = [], []
    with _runner(engine) as fed.shard_runner:
        engine = engine.split("-")[0]
        for r in range(n_rounds):
            try:
                results.append(fed.run_round(r, engine=engine))
            except RoundInterrupted as exc:
                interrupts.append([exc.round_index, exc.checkpoint_digest])
                results.append(fed.run_round(r, engine=engine))
    rounds = []
    for res in results:
        row = {k: v for k, v in res.as_dict().items() if not isinstance(v, float)}
        row.update(participants=res.participants, uplink_bytes=res.uplink_bytes,
                   downlink_bytes=res.downlink_bytes)
        rounds.append(row)
    discrete = {
        "rounds": rounds,
        "interrupts": interrupts,
        "scheduler_rng": _sha(fed.scheduler._rng.bit_generator.state),
        "fault_plan": fed.fault_injector.plan.digest() if fed.fault_injector else None,
    }
    floats = [fed.global_model.get_flat_weights()]
    floats += [[r.train_loss, r.mean_local_accuracy] for r in results]
    if fed.fleet is not None:
        floats.append(fed.fleet.state.level_j)
    return discrete, np.concatenate([np.asarray(f, dtype=np.float64).ravel() for f in floats])


SERVING_SEED = 31
SERVING_WORLDS = [f"{name}/{engine}" for name in ("plain", "partition") for engine in ENGINES]


def _numbers(obj):
    """Every numeric leaf of a nested report dict, in sorted-key order."""
    if isinstance(obj, dict):
        return [x for key in sorted(obj, key=str) for x in _numbers(obj[key])]
    return [float(obj)] if isinstance(obj, (int, float, np.number)) else []


def capture_serving(world):
    """Serve four windows on one world; returns ``(discrete, floats)``."""
    name, engine_name = world.split("/")
    # quota=15 against ~16 requested per device: some ledgers run dry, and
    # every fourth battery holds a handful of queries' worth of charge.
    engine, first = serving_world(SERVING_SEED, 23, quota=15)
    engine.fleet.state.level_j[::4] = 4e-6
    ids = [device.device_id for device in engine.fleet]
    rng = np.random.default_rng(SERVING_SEED + 2)
    windows = [first] + [{d: rng.normal(size=(int(rng.integers(0, 9)), 8)) for d in ids} for _ in range(3)]
    if name == "partition":
        plan = FaultPlan.generate(SERVING_SEED, device_ids=ids, n_windows=4, rates=FaultRates(partition=0.2))
        engine.fault_injector = FaultInjector(plan)
    with _runner(engine_name, workers=3) as engine.shard_runner:
        reports = [engine.serve_fleet("m", window, engine=engine_name) for window in windows]
    state, monitors = engine.fleet.state, sorted(engine.monitors.items())
    discrete = {
        "windows": [{**{k: v for k, v in r.as_dict().items() if not isinstance(v, float)},
                     "per_device": r.per_device} for r in reports],
        "ledgers": {d: [ledger.head_mac(), ledger.used()] for d, ledger in sorted(engine.ledgers.items())},
        "query_count": state.query_count.tolist(),
        "drift_events": {d: m.drift_events for d, m in monitors},
    }
    floats = [state.level_j]
    for _, monitor in monitors:
        floats.append([r.statistic for r in monitor.detectors["ks"].history])
        floats.append(_numbers(monitor.build_report().as_dict()))
    return discrete, np.concatenate([np.asarray(f, dtype=np.float64).ravel() for f in floats])


# family -> (worlds, capture); recorded in <family>_pins.json / .npy
FAMILIES = {"round": (WORLDS, capture), "serving": (SERVING_WORLDS, capture_serving)}


def paths(family):
    return _HERE / f"{family}_pins.json", _HERE / f"{family}_pins.npy"


def load(family):
    json_path, npy_path = paths(family)
    return json.loads(json_path.read_text()), np.load(npy_path)


def check(family, world, pins, recorded):
    """Assert ``world`` still produces what ``load(family)`` recorded."""
    want = dict(pins["worlds"][world])
    start, stop = want.pop("floats")
    discrete, floats = FAMILIES[family][1](world)
    assert discrete == want
    if np.__version__ == pins["numpy"]:
        assert floats.tobytes() == recorded[start:stop].tobytes()
    else:
        np.testing.assert_allclose(floats, recorded[start:stop], rtol=1e-12)


def update() -> None:
    for family, (worlds, capture_world) in FAMILIES.items():
        json_path, npy_path = paths(family)
        pins, chunks, offset = {"numpy": np.__version__, "worlds": {}}, [], 0
        for world in worlds:
            discrete, floats = capture_world(world)
            discrete["floats"] = [offset, offset + floats.size]
            pins["worlds"][world] = discrete
            chunks.append(floats)
            offset += floats.size
        json_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        np.save(npy_path, np.concatenate(chunks))
    # the durable store's op schedule, pinned by tests/faults/test_crash_states.py
    sys.path.insert(0, str(_HERE.parent / "faults"))
    from test_crash_states import write_schedule_pin

    write_schedule_pin()
