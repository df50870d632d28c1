"""Deterministic fault-injection plane: seeded, replayable failures.

The paper's fleets are operationally hostile — devices die mid-round,
radios drop uplinks, workers hang — yet every invariant the platform
sells (MAC-chained ledgers, exact billing, deterministic promotion) must
survive.  This package makes failure a *first-class input*: a
content-addressed :class:`FaultPlan` is generated from one seed, a
:class:`FaultInjector` replays it against the serving, federated,
sharded-runtime and lifecycle layers, and the chaos differential suite
(``tests/faults/``) asserts the invariants hold for a whole matrix of
plan seeds.  Because the plan is data-independent and the injector's
counters are deterministic, any faulty run can be replayed
fault-for-fault from ``(world seed, plan seed)`` alone.

Fault kinds shipped today
-------------------------

=====================  ====================================================
kind                   effect
=====================  ====================================================
``partition``          a device is unreachable for one serving window: its
                       queries never arrive (counted as
                       ``network_failures``, never billed)
``device_crash``       a selected federated client vanishes before local
                       training (no energy spent, no update)
``uplink loss``        a delta-delivery attempt is dropped; the client
                       retransmits under a :class:`RetryPolicy`
``uplink corrupt``     a delivery attempt arrives damaged and is rejected
                       (checksum model); retransmitted like a loss
``duplicate``          the delivery succeeds but the uplink carries the
                       payload twice (dedup keeps aggregation exact;
                       bytes are billed)
``worker raise/exit``  a shard worker raises or dies mid-task; the sharded
                       runner sees it at once (failure reply / pipe EOF +
                       process sentinel), retries — on a fresh worker
                       after a death — then re-executes in-process
``hung shard``         a shard worker sleeps past the runner's
                       ``timeout_s``; killed, then recovered exactly like
                       a death (the one fault that pays the deadline)
``round_interrupt``    the coordinator crashes between cohort sweeps; a
                       :class:`RoundCheckpoint` resumes the round
                       byte-identically
``trace partition``    a device's Markov :class:`ConnectivityTrace` chain
                       lands offline for a serving window; unioned with
                       the plan's flat ``partition`` table (pass
                       ``connectivity={device_id: trace}`` to
                       :class:`FaultInjector`; the injector snapshots and
                       rewinds the chains so replays stay deterministic)
``quorum shortfall``   not a new event — a *counting mode*:
                       ``FederatedEngine(quorum_mode="verified")`` counts
                       only deliveries that are non-byzantine and arrived
                       with zero corrupt attempts toward the quorum, so a
                       round a byzantine cohort would have carried aborts
                       instead (weights stay byte-untouched; the default
                       ``"delivered"`` mode preserves prior behaviour)
=====================  ====================================================

Crash recovery
--------------

One store: :class:`CheckpointStore` keeps its files in a dict and survives
an *exception*; :class:`~repro.faults.durable.DurableCheckpointStore`
(and :class:`~repro.faults.durable.DurableDecisionLog`), the same code
with the files in a directory, survive a *process death*.  The index is a self-digested snapshot plus a journal of
self-digested lines — one appended, fsynced line per mutation, so every
``put`` / ``record_commit`` is acknowledged on disk before it returns.
Checkpoints are written incrementally (only the cohorts the store does
not hold yet) into slot files that are reused in place; commit records,
fault plans, ledger segments and lifecycle decisions go through
write-to-temp → fsync → atomic rename.  Every load re-verifies size,
file digest and the recomputed content digest: a torn *last* write is
invisible, damage to anything acknowledged surfaces as a typed
:class:`~repro.faults.durable.CheckpointCorrupted`, never as silently
wrong state.  The store keeps the checkpoint archive of the two newest
committed rounds (plus every uncommitted one); commit records are kept
forever.  A state dir has one writer — a stale second one is refused.
``tests/faults/test_crash_states.py`` enumerates every prefix of a
recorded write schedule under process death and power loss;
``tests/faults/test_crash_recovery.py`` SIGKILLs a real child process
mid-round; both assert a fresh process resumes to bit-identical
weights and results.

Adding a fault kind
-------------------

1. *Plan it.*  Add a rate knob to :class:`FaultRates` and draw the new
   event table in :meth:`FaultPlan.generate` — **append the draws after
   the existing ones** so old seeds keep producing byte-identical plans,
   and store the table as plain tuples so the content digest and JSON
   round-trip stay canonical.
2. *Inject it.*  Give :class:`FaultInjector` a query method for the
   layer that consumes the event (a pure lookup plus, if the fault is
   positional, a deterministic counter like ``_serve_window``), and
   thread the injector call through that layer behind
   ``if injector is not None`` so the no-injector path stays
   byte-identical.
3. *Prove it.*  Extend ``tests/faults/test_fault_plan.py`` (generation
   determinism + digest stability) and add the new kind to the chaos
   invariant matrix in ``tests/faults/test_chaos_invariants.py`` — the
   empty-plan byte-identity and ledger/billing assertions must stay
   green over every seed.

Environment variables (the one place they are documented)
---------------------------------------------------------

``REPRO_SHARD_FAULT``
    Env-driven worker fault for the sharded runtime, spelled
    ``"<shard>:<raise|hang|exit>[:<any|worker>]"`` (``repro.runtime.sharded``).
    The *parent* reads it at every sharded dispatch and ships it in the
    matching shard's task payload, beside the plan fault — the runner's
    worker processes are long-lived, so their own ``os.environ`` is
    whatever it was when they were forked; setting or clearing the
    variable between two windows of one runner takes effect on the next
    window.  Without ``:any`` it fires only in worker processes.  A
    malformed value raises ``ValueError`` before any shard is dispatched.
    It predates the fault plane and remains supported for one-off
    debugging; plan-driven shard faults (:meth:`FaultPlan.generate`
    ``worker_fault`` rate, shipped per-payload by the runner) are the
    replayable spelling.
``REPRO_CHAOS_SEEDS``
    Comma-separated fault-plan seeds for the chaos invariant suite
    (``tests/faults/test_chaos_invariants.py``), e.g.
    ``REPRO_CHAOS_SEEDS="0,1,2,3,5,8,13,21"``.  Unset, the suite runs
    its default eight-seed matrix; CI's chaos-smoke leg pins the matrix
    explicitly so the tested seeds are visible in the workflow file.
``REPRO_TEST_WORKERS``
    Default worker count for sharded runners built without an explicit
    ``workers=`` (documented in ``repro.runtime.sharded``; listed here
    because the chaos suite composes with it).
``REPRO_CHAOS_STATE_DIR``
    Root directory for the crash-recovery suite's durable state dirs
    (``tests/faults/test_crash_recovery.py``).  Each test run creates a
    unique subdirectory under it; unset, pytest's ``tmp_path`` is used.
    CI's crash-recovery leg points it at a ``mktemp -d`` scratch dir so
    the persisted state survives for post-mortem upload on failure.
"""

from .checkpoint import CheckpointStore, RoundCheckpoint, RoundInterrupted
from .durable import CheckpointCorrupted, DurableCheckpointStore, DurableDecisionLog
from .injector import DeliveryResult, FaultInjector, RetryPolicy, simulate_delivery
from .plan import FaultKind, FaultPlan, FaultRates

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultRates",
    "FaultInjector",
    "RetryPolicy",
    "DeliveryResult",
    "simulate_delivery",
    "RoundCheckpoint",
    "CheckpointStore",
    "RoundInterrupted",
    "CheckpointCorrupted",
    "DurableCheckpointStore",
    "DurableDecisionLog",
]
