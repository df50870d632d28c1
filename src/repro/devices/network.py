"""Network connectivity model for edge devices.

Connectivity drives several TinyMLOps decisions highlighted in the paper:
which model variant to download (Sec. III-A: "a model that is fast to
download on a slow network connection"), when to upload telemetry
(Sec. III-B: "transmit them to the cloud when the device is connected to
WiFi"), when federated updates can be shared (Sec. III-D) and whether
offloading to an edge server is worthwhile (Sec. IV).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["NetworkType", "NetworkCondition", "ConnectivityTrace", "transfer_time_s"]


class NetworkType:
    """Symbolic link types with typical characteristics."""

    OFFLINE = "offline"
    LPWAN = "lpwan"
    CELLULAR = "cellular"
    WIFI = "wifi"
    ETHERNET = "ethernet"

    ALL = (OFFLINE, LPWAN, CELLULAR, WIFI, ETHERNET)


_DEFAULTS: Dict[str, Dict[str, float]] = {
    NetworkType.OFFLINE: {"bandwidth_bps": 0.0, "latency_s": float("inf"), "cost_per_mb": 0.0},
    NetworkType.LPWAN: {"bandwidth_bps": 5e3, "latency_s": 1.5, "cost_per_mb": 0.5},
    NetworkType.CELLULAR: {"bandwidth_bps": 5e6, "latency_s": 0.08, "cost_per_mb": 0.01},
    NetworkType.WIFI: {"bandwidth_bps": 5e7, "latency_s": 0.01, "cost_per_mb": 0.0},
    NetworkType.ETHERNET: {"bandwidth_bps": 1e9, "latency_s": 0.001, "cost_per_mb": 0.0},
}


@dataclass(frozen=True)
class NetworkCondition:
    """A snapshot of the link a device currently has to the backend."""

    kind: str = NetworkType.WIFI
    bandwidth_bps: float = 5e7
    latency_s: float = 0.01
    cost_per_mb: float = 0.0
    metered: bool = False

    @classmethod
    def of(cls, kind: str, **overrides: float) -> "NetworkCondition":
        """Build a condition from a symbolic :class:`NetworkType`."""
        if kind not in _DEFAULTS:
            raise KeyError(f"unknown network type {kind!r}")
        params = dict(_DEFAULTS[kind])
        params.update(overrides)
        return cls(kind=kind, metered=kind in (NetworkType.CELLULAR, NetworkType.LPWAN), **params)

    @property
    def online(self) -> bool:
        """Whether any connectivity exists."""
        return self.kind != NetworkType.OFFLINE and self.bandwidth_bps > 0

    def transfer_time(self, payload_bytes: float) -> float:
        """Seconds to transfer a payload (inf when not :attr:`online`)."""
        return transfer_time_s(payload_bytes, self)

    def transfer_cost(self, payload_bytes: float) -> float:
        """Monetary cost (in the fleet's currency) of a transfer.

        A link that cannot transfer charges nothing: offline and
        zero/negative-bandwidth conditions (``online`` is False, the
        transfer time is inf) return 0.0 — the payload never crosses the
        link, so no metered bytes accrue.  Negative payload sizes are a
        caller bug and raise.
        """
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        if not self.online:
            return 0.0
        return (payload_bytes / 1e6) * self.cost_per_mb


def transfer_time_s(payload_bytes: float, condition: NetworkCondition) -> float:
    """Round-trip-free transfer time estimate for a payload on a link.

    Offline and zero/negative-bandwidth conditions return inf (the
    transfer never completes); negative payload sizes raise.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    if not condition.online:
        return float("inf")
    return condition.latency_s + payload_bytes * 8.0 / condition.bandwidth_bps


@dataclass
class ConnectivityTrace:
    """Markov-chain connectivity trace generator.

    Produces a sequence of :class:`NetworkCondition` values so the fleet
    simulator can model devices that flip between WiFi, cellular and
    offline.  The transition matrix rows follow the order of ``states``.
    """

    states: Sequence[str] = (NetworkType.OFFLINE, NetworkType.CELLULAR, NetworkType.WIFI)
    transition: Optional[np.ndarray] = None
    initial: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        n = len(self.states)
        if n == 0:
            raise ValueError("ConnectivityTrace needs at least one state")
        for state in self.states:
            if state not in _DEFAULTS:
                raise KeyError(f"unknown network type {state!r}")
        if self.initial is not None and self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} is not one of {tuple(self.states)}")
        if self.transition is None:
            # Sticky chain: mostly stay in the current state.
            self.transition = np.full((n, n), 0.1 / max(n - 1, 1))
            np.fill_diagonal(self.transition, 0.9)
        self.transition = np.asarray(self.transition, dtype=np.float64)
        if self.transition.shape != (n, n):
            raise ValueError("transition matrix shape must match number of states")
        rows = self.transition.sum(axis=1, keepdims=True)
        if np.any(rows <= 0):
            raise ValueError("transition matrix rows must have positive sums")
        self.transition = self.transition / rows
        self._rng = np.random.default_rng(self.seed)
        self._state_idx = (
            list(self.states).index(self.initial) if self.initial in self.states else 0
        )

    @property
    def current(self) -> NetworkCondition:
        """Condition for the current state."""
        return NetworkCondition.of(self.states[self._state_idx])

    def step(self) -> NetworkCondition:
        """Advance the chain one step and return the new condition."""
        probs = self.transition[self._state_idx]
        self._state_idx = int(self._rng.choice(len(self.states), p=probs))
        return self.current

    def sample(self, n_steps: int) -> List[NetworkCondition]:
        """Generate ``n_steps`` successive conditions."""
        return [self.step() for _ in range(n_steps)]

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the chain position + RNG stream (JSON-safe).

        ``FaultInjector.reset()`` restores this so trace-driven serving
        partitions replay identically across differential runs."""
        return {
            "state_idx": int(self._state_idx),
            "rng_state": copy.deepcopy(self._rng.bit_generator.state),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._state_idx = int(state["state_idx"])  # type: ignore[arg-type]
        self._rng.bit_generator.state = copy.deepcopy(state["rng_state"])
