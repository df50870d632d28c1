"""Client selection strategies for federated rounds.

Paper Section III-D: "It might be possible to temporarily store some of the
data locally and to calculate the model updates when the device is idle or
connected to a charger."  Client schedulers decide which devices take part
in a round based on random sampling or on device context (battery, network,
idleness) provided by the fleet simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["ClientScheduler", "RandomScheduler", "EligibilityScheduler"]


def _context_float(ctx: Dict[str, object], key: str, default: float = 0.0) -> float:
    """A numeric context value, tolerating missing, None or junk entries.

    Device context snapshots come from heterogeneous simulated firmware;
    a missing or malformed field must make the device *ineligible*, never
    crash the round.
    """
    value = ctx.get(key, default)
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default


class ClientScheduler:
    """Base interface: select client ids to participate in a round."""

    def select(self, client_ids: Sequence[str], round_index: int, context: Optional[Dict[str, Dict[str, object]]] = None) -> List[str]:
        raise NotImplementedError


class RandomScheduler(ClientScheduler):
    """Uniformly sample a fixed fraction of clients each round."""

    def __init__(self, fraction: float = 0.3, min_clients: int = 2, seed: int = 0) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = float(fraction)
        self.min_clients = int(min_clients)
        self._rng = np.random.default_rng(seed)

    def select(self, client_ids: Sequence[str], round_index: int, context: Optional[Dict[str, Dict[str, object]]] = None) -> List[str]:
        if not client_ids:
            return []
        n = max(self.min_clients, int(round(self.fraction * len(client_ids))))
        n = min(n, len(client_ids))
        picked = self._rng.choice(len(client_ids), size=n, replace=False)
        return [client_ids[i] for i in sorted(picked)]


class EligibilityScheduler(ClientScheduler):
    """Only select clients whose device context satisfies the eligibility rule.

    The context dict maps client id to the device's ``context()`` snapshot
    (see :meth:`repro.devices.fleet.EdgeDevice.context`).  Clients without
    context are considered ineligible.
    """

    def __init__(self, max_clients: Optional[int] = None, require_unmetered: bool = True, min_soc: float = 0.6, seed: int = 0) -> None:
        self.max_clients = max_clients
        self.require_unmetered = bool(require_unmetered)
        self.min_soc = float(min_soc)
        self._rng = np.random.default_rng(seed)

    def _eligible(self, ctx: Dict[str, object]) -> bool:
        if not isinstance(ctx, dict) or not ctx.get("network_online", False):
            return False
        if self.require_unmetered and ctx.get("metered", False):
            return False
        if not ctx.get("idle", False):
            return False
        plugged = ctx.get("power_state") == "plugged_in"
        return plugged or _context_float(ctx, "state_of_charge") >= self.min_soc

    def select(self, client_ids: Sequence[str], round_index: int, context: Optional[Dict[str, Dict[str, object]]] = None) -> List[str]:
        context = context or {}
        eligible = [cid for cid in client_ids if cid in context and self._eligible(context[cid])]
        if self.max_clients is not None and len(eligible) > self.max_clients:
            picked = self._rng.choice(len(eligible), size=self.max_clients, replace=False)
            eligible = [eligible[i] for i in sorted(picked)]
        return eligible
