"""Transactional round checkpoints: interrupt, resume, byte-identity."""

import dataclasses

import numpy as np
import pytest

from _sharded_worlds import federated_world
from repro.faults import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    RoundCheckpoint,
    RoundInterrupted,
)

N_CLIENTS = 10
N_ROUNDS = 3


def _interrupt_plan(round_index, after_cohorts):
    return FaultPlan(seed=0, interrupts=((round_index, after_cohorts),))


def _world_with(plan, seed=4):
    fed = federated_world(seed, N_CLIENTS)
    fed.fault_injector = FaultInjector(plan)
    fed.checkpoints = CheckpointStore()
    return fed


def _run_with_resume(fed, n_rounds, engine=None):
    """Drive rounds; on an interrupt, re-issue the same round (resume)."""
    results, interrupted = [], []
    kwargs = {} if engine is None else {"engine": engine}
    for r in range(n_rounds):
        try:
            results.append(fed.run_round(r, **kwargs))
        except RoundInterrupted as exc:
            interrupted.append((exc.round_index, exc.checkpoint_digest))
            results.append(fed.run_round(r, **kwargs))
    return results, interrupted


@pytest.mark.parametrize("after_cohorts", [0, 1, 2, 99])
def test_resume_is_byte_identical_to_uninterrupted(after_cohorts):
    ref = federated_world(4, N_CLIENTS)
    ref_results = [ref.run_round(r) for r in range(N_ROUNDS)]

    fed = _world_with(_interrupt_plan(1, after_cohorts))
    results, interrupted = _run_with_resume(fed, N_ROUNDS)

    if after_cohorts == 99:
        # Scheduled past the round's cohort count: the coordinator never
        # reaches that point, so the interrupt cannot fire.
        assert interrupted == []
    else:
        assert len(interrupted) == 1
        assert interrupted[0][0] == 1
    assert (
        fed.global_model.get_flat_weights().tobytes()
        == ref.global_model.get_flat_weights().tobytes()
    )
    for got, want in zip(results, ref_results):
        assert got.as_dict() == want.as_dict()
    assert len(fed.history) == N_ROUNDS


def test_interrupt_carries_a_retrievable_checkpoint():
    fed = _world_with(_interrupt_plan(0, 1))
    with pytest.raises(RoundInterrupted) as exc_info:
        fed.run_round(0)
    digest = exc_info.value.checkpoint_digest
    ckpt = fed.checkpoints.get(digest)
    assert isinstance(ckpt, RoundCheckpoint)
    assert ckpt.round_index == 0
    assert ckpt.model_digest == fed._weights_digest()
    assert ckpt.n_cohorts_done >= 1
    assert ckpt.digest() == digest


def test_resume_restores_scheduler_rng_stream():
    """A resumed round must not burn a second selection draw."""
    ref = federated_world(4, N_CLIENTS)
    [ref.run_round(r) for r in range(N_ROUNDS)]

    fed = _world_with(_interrupt_plan(1, 0))
    _run_with_resume(fed, N_ROUNDS)
    assert (
        fed.scheduler._rng.bit_generator.state
        == ref.scheduler._rng.bit_generator.state
    )


def test_commit_clears_the_round_checkpoint():
    fed = _world_with(_interrupt_plan(0, 1))
    with pytest.raises(RoundInterrupted):
        fed.run_round(0)
    digest_before = fed._weights_digest()
    assert fed.checkpoints.latest_for(0, digest_before) is not None
    fed.run_round(0)
    # The pointer is gone for any weights digest once the round commits.
    assert fed.checkpoints.latest_for(0, digest_before) is None
    assert fed.checkpoints.latest_for(0, fed._weights_digest()) is None


def test_checkpoints_are_keyed_on_the_model_digest():
    fed = _world_with(_interrupt_plan(0, 1))
    with pytest.raises(RoundInterrupted):
        fed.run_round(0)
    # Different weights => the stale checkpoint must not resume.
    weights = fed.global_model.get_flat_weights()
    fed.global_model.set_flat_weights(weights + 1.0)
    assert fed.checkpoints.latest_for(0, fed._weights_digest()) is None
    fed.global_model.set_flat_weights(weights)
    assert fed.checkpoints.latest_for(0, fed._weights_digest()) is not None


def test_sharded_engine_with_checkpoints_matches_batched():
    ref = federated_world(4, N_CLIENTS)
    ref_results = [ref.run_round(r) for r in range(N_ROUNDS)]

    fed = _world_with(_interrupt_plan(1, 1))
    results, interrupted = _run_with_resume(fed, N_ROUNDS, engine="sharded")
    assert len(interrupted) == 1
    assert (
        fed.global_model.get_flat_weights().tobytes()
        == ref.global_model.get_flat_weights().tobytes()
    )
    assert [r.as_dict() for r in results] == [r.as_dict() for r in ref_results]


def test_multiple_interrupts_across_rounds():
    plan = FaultPlan(seed=0, interrupts=((0, 0), (2, 1)))
    ref = federated_world(4, N_CLIENTS)
    ref_results = [ref.run_round(r) for r in range(N_ROUNDS)]

    fed = _world_with(plan)
    results, interrupted = _run_with_resume(fed, N_ROUNDS)
    assert [r for r, _ in interrupted] == [0, 2]
    assert [r.as_dict() for r in results] == [r.as_dict() for r in ref_results]


def test_interrupts_are_inert_without_a_checkpoint_store():
    """No store configured => the coordinator cannot crash-and-resume, so
    the fault plan's interrupts are ignored rather than losing a round."""
    ref = federated_world(4, N_CLIENTS)
    ref_results = [ref.run_round(r) for r in range(N_ROUNDS)]

    fed = federated_world(4, N_CLIENTS)
    fed.fault_injector = FaultInjector(_interrupt_plan(1, 0))
    results = [fed.run_round(r) for r in range(N_ROUNDS)]
    assert [r.as_dict() for r in results] == [r.as_dict() for r in ref_results]


def test_checkpoint_store_snapshots_are_isolated():
    store = CheckpointStore()
    ckpt = RoundCheckpoint(
        round_index=0,
        model_digest="m",
        selected=("a",),
        contributors=("a",),
        stragglers=(),
        counts={},
    )
    ckpt.record_cohort(0, [0], np.ones((1, 3)), np.ones(1), np.ones(1))
    digest = store.put(ckpt)
    # Mutating the live object after put must not affect the stored copy.
    ckpt.record_cohort(1, [0], np.zeros((1, 3)), np.zeros(1), np.zeros(1))
    restored = store.get(digest)
    assert restored.n_cohorts_done == 1
    assert restored.digest() == digest


def test_checkpoint_digest_covers_cohort_bytes():
    def build(value):
        ckpt = RoundCheckpoint(
            round_index=0,
            model_digest="m",
            selected=("a",),
            contributors=("a",),
            stragglers=(),
            counts={},
        )
        ckpt.record_cohort(0, [0], np.full((1, 3), value), np.ones(1), np.ones(1))
        return ckpt

    assert build(1.0).digest() == build(1.0).digest()
    assert build(1.0).digest() != build(2.0).digest()


def test_meta_bytes_round_trip_through_from_meta():
    for delivered, tx, sched in [(None, None, None), ((3, 0, 5), (1, 2, 1), {"rng": [1, 2]})]:
        ckpt = RoundCheckpoint(
            round_index=2,
            model_digest="m",
            selected=("a", "b", "c"),
            contributors=("a", "c"),
            stragglers=("b",),
            counts={"n_dropouts": np.int64(1), "n_retries": 0},
            delivered_rows=delivered,
            tx_counts=tx,
            scheduler_state=sched,
        )
        back = RoundCheckpoint.from_meta(ckpt.meta_bytes())
        assert back == ckpt and back.meta_bytes() == ckpt.meta_bytes()
        assert back.digest() == ckpt.digest() and back.n_cohorts_done == 0


def test_restore_cohort_adopts_a_recorded_frame_bit_for_bit():
    rng = np.random.default_rng(0)
    meta = dict(round_index=0, model_digest="m", selected=("a",), contributors=("a",), stragglers=(), counts={})
    recorded = RoundCheckpoint(**meta)
    recorded.record_cohort(3, [4, 1], rng.normal(size=(2, 5)), rng.random(2), rng.random(2))
    frame = b"".join(a.tobytes() for a in recorded.cohort_frame(3))
    restored = RoundCheckpoint(**meta)
    restored.restore_cohort(3, frame, 2, 5, recorded.cohort_digests[3])
    for got, want in zip(restored.cohort_frame(3), recorded.cohort_frame(3)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert restored.digest() == recorded.digest()
    with pytest.raises(ValueError, match="cohort frame holds"):
        RoundCheckpoint(**meta).restore_cohort(3, frame + b"\0" * 8, 2, 5, recorded.cohort_digests[3])


def test_interrupted_plan_minus_interrupts_is_the_reference_run():
    """dataclasses.replace(plan, interrupts=()) == the uninterrupted world."""
    plan = FaultPlan.generate(
        6, client_ids=[f"c{i}" for i in range(N_CLIENTS)], n_rounds=N_ROUNDS
    )
    plan = dataclasses.replace(plan, interrupts=((1, 1),))
    ref = federated_world(6, N_CLIENTS)
    ref.fault_injector = FaultInjector(dataclasses.replace(plan, interrupts=()))
    ref_results = [ref.run_round(r) for r in range(N_ROUNDS)]

    fed = _world_with(plan, seed=6)
    results, interrupted = _run_with_resume(fed, N_ROUNDS)
    assert len(interrupted) == 1
    assert [r.as_dict() for r in results] == [r.as_dict() for r in ref_results]
    assert (
        fed.global_model.get_flat_weights().tobytes()
        == ref.global_model.get_flat_weights().tobytes()
    )
