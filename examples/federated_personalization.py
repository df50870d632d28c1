"""Federated predictive maintenance with personalization (paper Section III-D).

Scenario: vibration sensors on many machines detect anomalies.  Raw data
never leaves a machine; the global model is trained with federated
averaging under communication compression, and each machine finally
personalizes the global model to its own vibration signature.

Rounds run on the vectorized :class:`~repro.federated.FederatedEngine`:
every selected machine trains in one stacked batched pass, the scheduler
reads *live* fleet state (only charging / WiFi / idle machines
participate — and training itself drains their batteries), and a
:class:`~repro.federated.RoundScenario` injects mid-round dropouts plus a
byzantine machine whose scaled updates a
:class:`~repro.federated.TrimmedMeanAggregator` votes down.

Run with:  python examples/federated_personalization.py
"""

from __future__ import annotations

import numpy as np

from repro.data import ClientData, make_sensor_windows
from repro.devices import Fleet
from repro.federated import (
    EligibilityScheduler,
    FederatedClient,
    FederatedEngine,
    RoundScenario,
    TopKSparsifier,
    TrimmedMeanAggregator,
    centralized_baseline,
    personalize_all,
)
from repro.nn import make_mlp


def main() -> None:
    n_machines = 12
    window, channels = 32, 3
    rng = np.random.default_rng(0)

    # Each machine has its own vibration signature -> naturally non-IID data.
    clients = []
    eval_x, eval_y = [], []
    for machine in range(n_machines):
        signature = float(rng.uniform(-1.0, 1.0))
        ds = make_sensor_windows(600, window=window, n_channels=channels, anomaly_fraction=0.15,
                                 machine_signature=signature, seed=machine)
        train, test = ds.split(0.3, seed=machine)
        clients.append(FederatedClient(
            ClientData(client_id=f"dev-{machine:04d}", x=train.x, y=train.y),
            local_epochs=2, lr=0.05, seed=machine,
        ))
        eval_x.append(test.x)
        eval_y.append(test.y)
    eval_x = np.concatenate(eval_x)
    eval_y = np.concatenate(eval_y)

    input_dim = window * channels
    fleet = Fleet.random(n_machines, seed=3)

    # --- federated training with compression + live fleet scheduling --------
    # Client ids match the fleet's device ids, so the engine derives the
    # scheduler context straight from each device's current battery/network
    # state — no hand-built context dicts.
    global_model = make_mlp(input_dim, 2, hidden=(64, 32), seed=0, name="anomaly-detector")
    engine = FederatedEngine(
        global_model,
        clients,
        compressor=TopKSparsifier(fraction=0.1),
        scheduler=EligibilityScheduler(max_clients=6),
        eval_data=(eval_x, eval_y),
        fleet=fleet,
    )
    print("federated rounds (only charging / WiFi / idle machines participate):")
    for result in engine.run(6):
        print(f"  round {result.round_index}: participants={len(result.participants):<3} "
              f"global_acc={result.global_accuracy:.3f} uplink={result.uplink_bytes / 1024:.1f}KB")
    print("total communication:", engine.total_communication())

    # --- comparison against the (privacy-violating) centralized upper bound --
    central = centralized_baseline(make_mlp(input_dim, 2, hidden=(64, 32), seed=0), clients, (eval_x, eval_y), epochs=5)
    print(f"\ncentralized baseline accuracy: {central['accuracy']:.3f} "
          f"(federated reached {engine.history[-1].global_accuracy:.3f} without moving raw data)")

    # --- adversarial conditions: dropouts + one byzantine machine ------------
    robust = FederatedEngine(
        make_mlp(input_dim, 2, hidden=(64, 32), seed=0, name="anomaly-detector-robust"),
        clients,
        aggregator=TrimmedMeanAggregator(trim_fraction=0.2),
        eval_data=(eval_x, eval_y),
        scenario=RoundScenario(dropout_rate=0.15, byzantine_ids={"dev-0003"},
                               byzantine_mode="flip", byzantine_scale=20.0, seed=7),
    )
    last = robust.run(4)[-1]
    print(f"\nunder dropouts + byzantine dev-0003 (trimmed-mean aggregation): "
          f"acc={last.global_accuracy:.3f} dropouts={sum(r.n_dropouts for r in robust.history)} "
          f"byzantine updates trimmed={sum(r.n_byzantine for r in robust.history)}")

    # --- personalization: each machine overfits to its own signature ---------
    results = personalize_all(global_model, clients, epochs=3)
    gains = [r.get("personal_accuracy", 0.0) - r["global_accuracy"] for r in results.values()]
    print("\npersonalization (local fine-tuning on each machine):")
    print(f"  mean local accuracy: global={np.mean([r['global_accuracy'] for r in results.values()]):.3f} "
          f"personalized={np.mean([r.get('personal_accuracy', 0.0) for r in results.values()]):.3f} "
          f"(mean gain {np.mean(gains):+.3f})")


if __name__ == "__main__":
    main()
