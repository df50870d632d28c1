"""Durable crash recovery: interrupt a training run, restart, finish identically.

A TinyMLOps coordinator can die mid-round — OOM, node preemption, a pulled
plug.  This example walks the durable crash-recovery plane end to end:

1. run federated rounds under a seeded fault plan against a
   ``DurableCheckpointStore`` (every checkpoint, round commit and fault
   plan journaled and fsynced before the call returns);
2. "crash" partway through (here: stop the loop and throw the whole world
   away — the same state a freshly restarted process sees);
3. rebuild the world from scratch, restore the latest commit record
   (weights + scheduler RNG stream), resume the interrupted round from
   its checkpoint and finish the run;
4. verify the recovered run's final weights are *bit-identical* to an
   uninterrupted run of the same world — crash recovery that changes the
   model is worse than no recovery at all.

Run with:  python examples/crash_recovery.py [state_dir]
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from repro.data import make_gaussian_blobs, partition_dirichlet
from repro.faults import (
    DurableCheckpointStore,
    FaultInjector,
    FaultPlan,
    FaultRates,
    RoundInterrupted,
)
from repro.federated import FederatedClient, FederatedEngine
from repro.nn import make_mlp

N_ROUNDS = 4
CRASH_AFTER_ROUND = 1  # the "power cut" lands while round 2 is in flight


def build_world(seed: int = 9) -> FederatedEngine:
    """A deterministic federated world; called once per 'process'."""
    dataset = make_gaussian_blobs(n_samples=600, n_features=10, n_classes=3, seed=seed)
    train, test = dataset.split(test_fraction=0.3, seed=seed)
    shards = partition_dirichlet(train, 8, alpha=0.6, seed=seed)
    clients = [
        FederatedClient(shard, local_epochs=1, lr=0.05, seed=seed + i)
        for i, shard in enumerate(shards)
    ]
    model = make_mlp(10, 3, hidden=(16,), seed=seed)
    return FederatedEngine(model, clients, eval_data=(test.x, test.y))


def build_plan(engine: FederatedEngine) -> FaultPlan:
    """A chaos plan with a coordinator interrupt scheduled in round 2."""
    plan = FaultPlan.generate(
        17,
        client_ids=sorted(engine.clients),
        n_rounds=N_ROUNDS,
        rates=FaultRates(device_crash=0.1, uplink_loss=0.15),
    )
    # Pin an explicit coordinator crash after the 1st cohort of round 2.
    import dataclasses

    return dataclasses.replace(plan, interrupts=((CRASH_AFTER_ROUND + 1, 1),))


def main(state_dir: str) -> None:
    # --- reference: the same world, never interrupted --------------------
    ref = build_world()
    ref.fault_injector = FaultInjector(build_plan(ref))
    for r in range(N_ROUNDS):
        ref.run_round(r)
    ref_weights = ref.global_model.get_flat_weights()
    print(f"reference run: {N_ROUNDS} rounds, "
          f"final accuracy {ref.history[-1].global_accuracy:.3f}")

    # --- first process: runs until the coordinator 'dies' ----------------
    fed = build_world()
    store = DurableCheckpointStore(state_dir)
    fed.checkpoints = store
    plan = build_plan(fed)
    store.put_plan(plan)  # the plan travels with the state dir
    fed.fault_injector = FaultInjector(plan)
    crashed_in_round = None
    for r in range(N_ROUNDS):
        try:
            fed.run_round(r)
        except RoundInterrupted as exc:
            crashed_in_round = exc.round_index
            break  # the process is gone; everything in memory is lost
    assert crashed_in_round is not None
    print(f"process 1: committed rounds 0..{crashed_in_round - 1}, "
          f"died inside round {crashed_in_round} "
          f"({store.latest_for(crashed_in_round, fed._weights_digest()).n_cohorts_done} "
          f"cohort(s) checkpointed)")
    del fed  # nothing survives but the state directory

    # --- second process: restore, resume, finish -------------------------
    fed2 = build_world()
    store2 = DurableCheckpointStore(state_dir)  # replays the manifest
    fed2.checkpoints = store2
    fed2.fault_injector = FaultInjector(store2.load_plan())  # digest-verified
    commit = store2.latest_commit()
    start = 0
    if commit is not None:
        fed2.global_model.set_flat_weights(commit["weights"])
        fed2._restore_scheduler_rng(commit["scheduler_state"])
        start = int(commit["round_index"]) + 1
    print(f"process 2: restored commit for round {start - 1}, resuming round {start}")
    for r in range(start, N_ROUNDS):
        fed2.run_round(r)  # round `start` resumes from its checkpoint

    # --- the whole point --------------------------------------------------
    identical = np.array_equal(fed2.global_model.get_flat_weights(), ref_weights)
    print(f"recovered weights bit-identical to uninterrupted run: {identical}")
    print(f"round results recorded on disk: {len(store2.commits())}")
    assert identical, "crash recovery must not change the trained model"


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as scratch:
            main(scratch)
