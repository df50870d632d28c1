"""Differential harness for the sharded fleet backend (ROADMAP item 2).

The standing invariant extends to process boundaries: serving a fleet window
or running a federated round through ``engine="sharded"`` must be
**byte-identical** to ``engine="batched"`` (which in turn matches
``engine="oracle"``) — same MAC-chained ledger entries, same battery /
query-count planes, same drift events, same federated delta stack and
global weights — for every worker count and shard composition.

The hypothesis properties run the full shard/split/merge machinery with
``backend="inline"`` (identical code path minus the pool, so properties
stay fast and deterministic); dedicated tests re-run representative cases
through real worker processes with ``backend="pickle"`` and
``backend="shared"``.

Failing-case reproducer template (fill in from the hypothesis output)::

    runner = ShardedFleetRunner(workers=<W>, backend="inline")
    eng, window = _serving_world(seed=<SEED>, n_devices=<N>)
    eng.shard_runner = runner
    eng.serve_fleet("m", window, engine="sharded")
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dispatch import resolve_engine
from repro.runtime.sharded import FAULT_ENV, ShardedFleetRunner, shard_row_groups

from _sharded_worlds import (
    federated_world as _federated_world,
    run_rounds as _run_rounds,
    serving_snapshot as _serving_snapshot,
    serving_world as _serving_world,
)

WORKER_COUNTS = (1, 2, 4, 7)


def _assert_serving_identical(seed, n_devices, workers, backend, compile_plan=True):
    base, window = _serving_world(seed, n_devices, compile_plan=compile_plan)
    report_base = base.serve_fleet("m", window)
    snap_base = _serving_snapshot(base)

    sharded, window_s = _serving_world(seed, n_devices, compile_plan=compile_plan)
    sharded.shard_runner = ShardedFleetRunner(workers=workers, backend=backend)
    report_sharded = sharded.serve_fleet("m", window_s, engine="sharded")
    snap_sharded = _serving_snapshot(sharded)

    assert report_sharded.as_dict() == report_base.as_dict()
    assert report_sharded.per_device == report_base.per_device
    assert snap_sharded == snap_base


# ---------------------------------------------------------------------------
# shard geometry
# ---------------------------------------------------------------------------


def test_shard_row_groups_cover_and_balance():
    for n in (0, 1, 2, 5, 7, 16, 200):
        for w in (1, 2, 4, 7, 300):
            groups = shard_row_groups(n, w)
            if n == 0:
                assert groups == []
                continue
            assert len(groups) == min(w, n)
            assert all(len(g) > 0 for g in groups)
            sizes = {len(g) for g in groups}
            assert max(sizes) - min(sizes) <= 1  # balanced, ragged-safe
            assert np.array_equal(np.concatenate(groups), np.arange(n))


def test_dispatch_sharded_is_per_surface_opt_in():
    assert resolve_engine("sharded", extra=("sharded",)) == "sharded"
    with pytest.raises(ValueError):
        resolve_engine("sharded")  # surfaces without opt-in reject it


# ---------------------------------------------------------------------------
# serving equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_devices=st.integers(1, 200),
    workers=st.sampled_from(WORKER_COUNTS),
)
def test_sharded_serving_matches_batched(seed, n_devices, workers):
    """Random fleets (sizes 1-200, mixed profiles/net kinds, ragged shards,
    some devices without ledgers/monitors): report, per-device stats, ledger
    MAC chains, battery/counter planes, drift events and fleet summaries are
    byte-identical to the batched engine at every worker count."""
    _assert_serving_identical(seed, n_devices, workers, backend="inline")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), workers=st.sampled_from((2, 7)))
def test_sharded_serving_without_compiled_plan(seed, workers):
    _assert_serving_identical(seed, 17, workers, backend="inline", compile_plan=False)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_serving_real_processes(workers):
    """Representative cases through real pool workers (chunked pickling)."""
    _assert_serving_identical(seed=7, n_devices=19, workers=workers, backend="pickle")


def test_sharded_serving_shared_memory_backend():
    _assert_serving_identical(seed=11, n_devices=23, workers=4, backend="shared")


def test_sharded_serving_200_devices_real_processes():
    _assert_serving_identical(seed=3, n_devices=200, workers=4, backend="pickle")


def test_sharded_matches_oracle_ledgers():
    """The sharded merge equals the per-device oracle loop too (all three
    engines meter through record_batch, so the chains line up exactly)."""
    oracle, window = _serving_world(seed=5, n_devices=29)
    oracle.serve_fleet("m", window, engine="oracle")
    snap_oracle = _serving_snapshot(oracle)

    sharded, window_s = _serving_world(seed=5, n_devices=29)
    sharded.shard_runner = ShardedFleetRunner(workers=4, backend="inline")
    sharded.serve_fleet("m", window_s, engine="sharded")
    assert _serving_snapshot(sharded) == snap_oracle


def test_sharded_runner_via_workers_kwarg():
    """serve_fleet builds a default runner from workers= when none is set."""
    base, window = _serving_world(seed=13, n_devices=9)
    report_base = base.serve_fleet("m", window)
    sharded, window_s = _serving_world(seed=13, n_devices=9)
    report_sharded = sharded.serve_fleet("m", window_s, engine="sharded", workers=2)
    assert report_sharded.as_dict() == report_base.as_dict()


def test_sharded_unreplayable_plan_falls_back_single_process():
    """A plan installed without recorded lowering options (direct plans[...]
    assignment) cannot be rebuilt in a worker; the runner degrades to the
    in-process sweep and results stay identical."""
    base, window = _serving_world(seed=17, n_devices=11, compile_plan=True)
    report_base = base.serve_fleet("m", window)
    snap_base = _serving_snapshot(base)

    sharded, window_s = _serving_world(seed=17, n_devices=11, compile_plan=True)
    sharded._plan_options.clear()  # simulate a hand-installed plan
    sharded.shard_runner = ShardedFleetRunner(workers=4, backend="pickle")
    report_sharded = sharded.serve_fleet("m", window_s, engine="sharded")
    assert report_sharded.as_dict() == report_base.as_dict()
    assert _serving_snapshot(sharded) == snap_base


# ---------------------------------------------------------------------------
# federated equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_clients=st.integers(1, 24),
    workers=st.sampled_from(WORKER_COUNTS),
)
def test_sharded_federated_matches_batched(seed, n_clients, workers):
    """Sharded rounds (cohorts distributed whole) produce bit-identical
    global weights and round metrics vs the in-process batched engine."""
    base = _federated_world(seed, n_clients)
    results_base = _run_rounds(base, 2)

    sharded = _federated_world(seed, n_clients)
    sharded.shard_runner = ShardedFleetRunner(workers=workers, backend="inline")
    results_sharded = _run_rounds(sharded, 2, engine="sharded")

    assert (
        sharded.global_model.get_flat_weights().tobytes()
        == base.global_model.get_flat_weights().tobytes()
    )
    for a, b in zip(results_sharded, results_base):
        assert a.as_dict() == b.as_dict()
        assert a.participants == b.participants


def test_sharded_federated_real_processes():
    base = _federated_world(seed=9, n_clients=12)
    results_base = _run_rounds(base, 3)
    sharded = _federated_world(seed=9, n_clients=12)
    sharded.shard_runner = ShardedFleetRunner(workers=4, backend="pickle")
    results_sharded = _run_rounds(sharded, 3, engine="sharded")
    assert (
        sharded.global_model.get_flat_weights().tobytes()
        == base.global_model.get_flat_weights().tobytes()
    )
    assert [r.as_dict() for r in results_sharded] == [r.as_dict() for r in results_base]


def test_sharded_federated_close_to_oracle():
    """The oracle (per-client loop) is float-tolerance equivalent to the
    batched sweep; the sharded path inherits that bound transitively."""
    oracle = _federated_world(seed=21, n_clients=10)
    _run_rounds(oracle, 2, engine="oracle")
    sharded = _federated_world(seed=21, n_clients=10)
    sharded.shard_runner = ShardedFleetRunner(workers=3, backend="inline")
    _run_rounds(sharded, 2, engine="sharded")
    np.testing.assert_allclose(
        sharded.global_model.get_flat_weights(),
        oracle.global_model.get_flat_weights(),
        rtol=1e-9,
        atol=1e-10,
    )


def test_sharded_fallback_cohort_optimizer_state_persists():
    """Clients with stateful optimizer instances (fallback cohorts) train in
    the parent so cross-round momentum state persists; multi-round sharded
    runs stay bit-identical to batched."""
    from repro.nn.optimizers import Momentum

    def build():
        engine = _federated_world(seed=33, n_clients=8)
        # Give two clients shared stateful optimizer instances -> fallback.
        for cid in list(engine.clients)[:2]:
            engine.clients[cid].optimizer_name = Momentum(lr=0.05, momentum=0.9)
        return engine

    base = build()
    results_base = _run_rounds(base, 3)
    sharded = build()
    sharded.shard_runner = ShardedFleetRunner(workers=4, backend="inline")
    results_sharded = _run_rounds(sharded, 3, engine="sharded")
    assert (
        sharded.global_model.get_flat_weights().tobytes()
        == base.global_model.get_flat_weights().tobytes()
    )
    assert [r.as_dict() for r in results_sharded] == [r.as_dict() for r in results_base]


@pytest.mark.parametrize(
    "backend, fault, n_recovered", [("inline", "", 0), ("pickle", "", 0), ("pickle", "0:raise", 1)]
)
def test_train_cohorts_returns_the_kernels_triples(backend, fault, n_recovered, monkeypatch):
    """``train_cohorts`` is ``train_clients_batched`` per cohort wherever it
    runs: the in-process sweeps' bytes, in cohort order, and a worker fault
    is recovered and counted (the env hook fires in workers only)."""
    from repro.federated.engine import partition_cohorts, train_clients_batched

    fed = _federated_world(seed=9, n_clients=12)
    model, clients = fed.global_model, list(fed.clients.values())
    batched = [c for c in partition_cohorts(model, clients) if c.batched][:2]
    cohorts = [[clients[i] for i in c.indices] for c in batched]
    expected = [train_clients_batched(model, cohort) for cohort in cohorts]  # a sweep mutates nothing
    monkeypatch.setenv(FAULT_ENV, fault)
    with ShardedFleetRunner(workers=2, backend=backend) as runner:
        trained, recovered = runner.train_cohorts(model, cohorts)
    assert recovered == n_recovered and len(trained) == 2
    for got, want in zip(trained, expected):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_sharded_round_with_a_checkpoint_store_builds_no_runner(monkeypatch):
    """A store means in-process sweeps: ``run_round`` constructs no runner
    (and forks nothing); without the store it builds one and closes it."""
    import multiprocessing

    import repro.runtime.sharded as sharded_mod
    from repro.faults import CheckpointStore

    built = []

    class CountingRunner(ShardedFleetRunner):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sharded_mod, "ShardedFleetRunner", CountingRunner)
    base = _federated_world(seed=9, n_clients=12)
    results_base = _run_rounds(base, 2)
    fed = _federated_world(seed=9, n_clients=12)
    fed.checkpoints = CheckpointStore()
    results = _run_rounds(fed, 2, engine="sharded", workers=2)
    assert built == [] and multiprocessing.active_children() == []
    assert [r.as_dict() for r in results] == [r.as_dict() for r in results_base]
    fed.checkpoints = None
    fed.run_round(2, engine="sharded", workers=2)
    base.run_round(2)
    assert built == [{"workers": 2}] and multiprocessing.active_children() == []
    assert fed.global_model.get_flat_weights().tobytes() == base.global_model.get_flat_weights().tobytes()


# ---------------------------------------------------------------------------
# determinism regression
# ---------------------------------------------------------------------------


def test_sharded_determinism_across_runs_and_worker_counts():
    """The same seeded sharded round, run 3x at each of several worker
    counts, yields bit-identical ledger head MACs and delta bytes.

    Reproducer template for a failure::

        eng = _federated_world(seed=41, n_clients=9)
        eng.shard_runner = ShardedFleetRunner(workers=<W>, backend="inline")
        eng.run_round(0, engine="sharded")
        print(eng.global_model.get_flat_weights().tobytes().hex()[:64])
    """
    reference_weights = None
    reference_macs = None
    for workers in (1, 2, 3):
        for _repeat in range(3):
            fed = _federated_world(seed=41, n_clients=9)
            fed.shard_runner = ShardedFleetRunner(workers=workers, backend="inline")
            fed.run_round(0, engine="sharded")
            weights = fed.global_model.get_flat_weights().tobytes()

            serve, window = _serving_world(seed=41, n_devices=15)
            serve.shard_runner = ShardedFleetRunner(workers=workers, backend="inline")
            serve.serve_fleet("m", window, engine="sharded")
            macs = {d: ledger.head_mac() for d, ledger in serve.ledgers.items()}

            if reference_weights is None:
                reference_weights = weights
                reference_macs = macs
            else:
                assert weights == reference_weights, f"workers={workers} delta bytes diverged"
                assert macs == reference_macs, f"workers={workers} ledger MACs diverged"
