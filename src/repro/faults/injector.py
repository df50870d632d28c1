"""Replay a :class:`~repro.faults.plan.FaultPlan` against the engines.

The injector is the single stateful object of the fault plane: it holds
deterministic position counters (which serving window we are on, which
pooled dispatch the sharded runner is issuing) plus the fired-interrupt
set, so the same plan replays identically and ``reset()`` rewinds a
world for differential runs.  Everything else is pure lookups into the
plan's sparse event tables.

:class:`RetryPolicy` is client delta delivery's failure-handling knob:
delivery *simulates* its schedule (attempts, exponential backoff with
seeded jitter, a deadline budget) against the plan's per-attempt outcome
codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .plan import FaultKind, FaultPlan

__all__ = ["RetryPolicy", "DeliveryResult", "simulate_delivery", "FaultInjector"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-budgeted exponential backoff with seeded jitter.

    ``max_attempts`` counts the first try; ``backoff_s(k, seed)`` is the
    wait before attempt ``k + 2`` — ``base_delay_s * multiplier**k``
    scaled by a jitter factor drawn uniformly from ``[1 - jitter,
    1 + jitter]`` with ``default_rng(seed)``, so a given (seed, attempt)
    pair always waits the same time.  ``deadline_s`` caps the *total*
    schedule: once elapsed simulated (or real) time crosses it, the
    operation fails even if attempts remain.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    jitter: float = 0.5
    deadline_s: float = math.inf

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0.0:
            raise ValueError("base_delay_s must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline_s <= 0.0:
            raise ValueError("deadline_s must be positive")

    def backoff_s(self, attempt: int, seed) -> float:
        """Wait after failed attempt ``attempt`` (0-based)."""
        if self.base_delay_s == 0.0:
            return 0.0
        delay = self.base_delay_s * self.multiplier ** attempt
        if self.jitter > 0.0:
            rng = np.random.default_rng(seed if not isinstance(seed, (list, tuple)) else list(seed))
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def schedule(self, seed) -> Tuple[float, ...]:
        """The full backoff schedule (``max_attempts - 1`` waits)."""
        base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
        return tuple(self.backoff_s(k, base + [k]) for k in range(self.max_attempts - 1))


@dataclass(frozen=True)
class DeliveryResult:
    """Outcome of one client's delta delivery under a retry policy."""

    delivered: bool
    attempts: int
    retransmits: int
    duplicates: int
    corrupt: int
    sim_time_s: float
    reason: str = ""

    @property
    def transmissions(self) -> int:
        """Payload copies that crossed the uplink (attempts + dups)."""
        return self.attempts + self.duplicates


def simulate_delivery(
    outcomes: Sequence[str], policy: RetryPolicy, seed, transfer_time_s: float = 0.0
) -> DeliveryResult:
    """Walk a plan's per-attempt outcome codes through a retry policy.

    Attempts beyond the recorded sequence succeed — unless the sequence
    is straight failures with no terminating success code (the plan's
    "link down this round" marker; generated plans only emit such
    sequences at the full ``max_attempt_draws`` length), in which case
    they keep failing.  Simulated
    time accumulates ``transfer_time_s`` per attempt plus the policy's
    seeded backoff; crossing ``deadline_s`` (or an infinite transfer
    time — an offline link) fails the delivery outright.
    """
    outcomes = tuple(outcomes)
    exhausted = bool(outcomes) and all(
        o in (FaultKind.DELIVERY_LOST, FaultKind.DELIVERY_CORRUPT) for o in outcomes
    )
    if not math.isfinite(transfer_time_s):
        return DeliveryResult(False, 0, 0, 0, 0, math.inf, reason="offline")
    backoffs = policy.schedule(seed)
    t = 0.0
    retransmits = corrupt = 0
    for attempt in range(policy.max_attempts):
        t += transfer_time_s
        if t > policy.deadline_s:
            return DeliveryResult(False, attempt + 1, retransmits, 0, corrupt, t, reason="deadline")
        if attempt < len(outcomes):
            outcome = outcomes[attempt]
        else:
            outcome = FaultKind.DELIVERY_LOST if exhausted else FaultKind.DELIVERY_OK
        if outcome in (FaultKind.DELIVERY_OK, FaultKind.DELIVERY_DUPLICATE):
            dups = 1 if outcome == FaultKind.DELIVERY_DUPLICATE else 0
            return DeliveryResult(True, attempt + 1, retransmits, dups, corrupt, t)
        if outcome == FaultKind.DELIVERY_CORRUPT:
            corrupt += 1
        retransmits += 1
        if attempt + 1 < policy.max_attempts:
            wait = backoffs[attempt]
            t += wait
            if t > policy.deadline_s:
                return DeliveryResult(
                    False, attempt + 1, retransmits, 0, corrupt, t, reason="deadline"
                )
    return DeliveryResult(
        False, policy.max_attempts, retransmits, 0, corrupt, t, reason="attempts exhausted"
    )


class FaultInjector:
    """Replays one plan; each engine layer queries its slice of it.

    Counters (`_serve_window`, per-scope dispatch indices, fired
    interrupts) advance exactly once per consumed event, so two runs
    issuing the same sequence of queries see the same faults.  Call
    :meth:`reset` before replaying a world from scratch.

    ``connectivity`` optionally maps device id →
    :class:`~repro.devices.network.ConnectivityTrace`: each
    :meth:`filter_window` call steps every trace once (in sorted device
    order) and partitions the devices whose chain landed offline, in
    *union* with the plan's flat ``serve_offline`` table — offline
    windows drawn from a Markov connectivity model instead of (or on top
    of) flat rates.  Trace positions are snapshotted at construction and
    rewound by :meth:`reset`, so trace-driven runs replay deterministically.
    """

    def __init__(
        self,
        plan: FaultPlan,
        retry_policy: Optional[RetryPolicy] = None,
        connectivity: Optional[Dict[str, object]] = None,
    ) -> None:
        self.plan = plan
        self.retry_policy = retry_policy or RetryPolicy()
        self.connectivity = dict(connectivity or {})
        self._trace_snapshots = {
            device_id: trace.state_dict() for device_id, trace in self.connectivity.items()
        }
        self._offline: Dict[int, Set[str]] = {}
        for window, device_id in plan.serve_offline:
            self._offline.setdefault(int(window), set()).add(device_id)
        self._crashes: Dict[int, Set[str]] = {}
        for round_index, client_id in plan.crashes:
            self._crashes.setdefault(int(round_index), set()).add(client_id)
        self._deliveries: Dict[Tuple[int, str], Tuple[str, ...]] = {
            (int(r), c): tuple(outs) for r, c, outs in plan.deliveries
        }
        self._shard_faults: Dict[Tuple[str, int, int], str] = {
            (scope, int(d), int(s)): mode for scope, d, s, mode in plan.shard_faults
        }
        self._interrupts: Dict[int, int] = {int(r): int(k) for r, k in plan.interrupts}
        self.reset()

    @classmethod
    def from_seed(cls, seed: int, retry_policy: Optional[RetryPolicy] = None, **generate_kwargs) -> "FaultInjector":
        return cls(FaultPlan.generate(seed, **generate_kwargs), retry_policy=retry_policy)

    def reset(self) -> None:
        """Rewind all positional counters (replay the plan from the top)."""
        self._serve_window = 0
        self._dispatch: Dict[str, int] = {"serve": 0, "train": 0}
        self._fired_interrupts: Set[int] = set()
        for device_id, trace in self.connectivity.items():
            trace.load_state_dict(self._trace_snapshots[device_id])

    # -- serving ---------------------------------------------------------
    def filter_window(self, window: Dict[str, object]) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Split one serving window into (reachable, partitioned) entries.

        Values pass through untouched (device_id → query array).  Advances
        the window counter exactly once per call; callers must invoke it
        once per window in order (``ServingEngine.serve_fleet`` does,
        before engine dispatch, so batched/oracle/sharded all see the
        identical filtered window).
        """
        offline = set(self._offline.get(self._serve_window, ()))
        self._serve_window += 1
        # Every trace advances exactly once per window — including devices
        # absent from this window's payload — so chain positions stay
        # aligned with the window counter regardless of traffic shape.
        for device_id in sorted(self.connectivity):
            if not self.connectivity[device_id].step().online:
                offline.add(device_id)
        if not offline:
            return window, {}
        kept = {d: v for d, v in window.items() if d not in offline}
        dropped = {d: v for d, v in window.items() if d in offline}
        return kept, dropped

    # -- federated -------------------------------------------------------
    def crashed_clients(self, round_index: int, candidates: Sequence[str]) -> List[str]:
        """The candidates that crash before training this round."""
        crashed = self._crashes.get(int(round_index), ())
        return [cid for cid in candidates if cid in crashed]

    def delivery_outcomes(self, round_index: int, client_id: str) -> Tuple[str, ...]:
        """Per-attempt outcome codes for one client's delta uplink."""
        return self._deliveries.get((int(round_index), client_id), ())

    def interrupt_after(self, round_index: int) -> Optional[int]:
        """Cohort count after which the coordinator crashes (or None).

        Consuming is explicit: :meth:`fire_interrupt` marks it spent so a
        resumed round runs to completion.
        """
        if int(round_index) in self._fired_interrupts:
            return None
        return self._interrupts.get(int(round_index))

    def fire_interrupt(self, round_index: int) -> None:
        self._fired_interrupts.add(int(round_index))

    # -- sharded runtime -------------------------------------------------
    def next_dispatch(self, scope: str) -> int:
        """Sequence number of the next pooled dispatch for a scope."""
        index = self._dispatch.get(scope, 0)
        self._dispatch[scope] = index + 1
        return index

    def shard_fault(self, scope: str, dispatch_index: int, shard_index: int) -> Optional[str]:
        """Fault mode for one shard of one dispatch (or None)."""
        return self._shard_faults.get((scope, int(dispatch_index), int(shard_index)))
