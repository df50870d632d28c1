"""Round replay pins: what federated rounds produced when the pins were
recorded, so "nothing changed" is a cross-commit fact (ROADMAP item 1).

Every identity suite compares engine A with engine B inside one commit; a
refactor that shifts all engines alike passes them all.  These worlds are
driven through the public API and compared with ``round_pins.json`` /
``round_pins.npy``: exact for discrete artefacts (participants, integer
result fields, scheduler RNG stream, checkpoint and plan digests), and for
floats (weights, losses, battery ``level_j``) bit-exact on the recording
NumPy, ``rtol=1e-12`` elsewhere.  ``python -m tests.pins --update`` rewrites
both files; a diff in them is a behaviour change and the PR title says so.
"""

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

from _sharded_worlds import federated_world  # noqa: E402
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
from repro.runtime.sharded import ShardedFleetRunner  # noqa: E402

JSON_PATH = _HERE / "round_pins.json"
NPY_PATH = _HERE / "round_pins.npy"
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

WORLDS = [f"{name}/{engine}" for name, (_, engines, _) in _SETUPS.items() for engine in engines]


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def capture(world):
    """Run one world; returns ``(discrete pins dict, float pins array)``."""
    name, engine = world.split("/")
    setup, _, n_rounds = _SETUPS[name]
    fed = federated_world(4, N_CLIENTS)
    fed.scheduler = RandomScheduler(0.8, seed=3)
    setup(fed)
    if engine == "sharded":
        fed.shard_runner = ShardedFleetRunner(backend="inline")
    results, interrupts = [], []
    for r in range(n_rounds):
        try:
            results.append(fed.run_round(r, engine=engine))
        except RoundInterrupted as exc:
            interrupts.append([exc.round_index, exc.checkpoint_digest])
            results.append(fed.run_round(r, engine=engine))
    if fed.shard_runner is not None:
        fed.shard_runner.close()
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


def load():
    return json.loads(JSON_PATH.read_text()), np.load(NPY_PATH)


def update() -> None:
    pins, chunks, offset = {"numpy": np.__version__, "worlds": {}}, [], 0
    for world in WORLDS:
        discrete, floats = capture(world)
        discrete["floats"] = [offset, offset + floats.size]
        pins["worlds"][world] = discrete
        chunks.append(floats)
        offset += floats.size
    JSON_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    np.save(NPY_PATH, np.concatenate(chunks))
