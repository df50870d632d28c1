"""Server-side aggregation of client updates.

Implements the aggregation rules used by the federated experiments:

* :class:`FedAvgAggregator` — sample-count weighted averaging of deltas
  (McMahan et al., the paper's reference [32]).
* :class:`FedAdamAggregator` — server-side adaptive optimizer treating the
  averaged delta as a pseudo-gradient.
* :class:`TrimmedMeanAggregator` — robust aggregation that drops the most
  extreme client values per coordinate (a defence against faulty or
  malicious clients).
* :class:`SecureAggregator` — additive pairwise masking so the server only
  ever sees the *sum* of client updates, never an individual update
  (privacy requirement of paper Section III-D).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

from .client import ClientUpdate

__all__ = [
    "Aggregator",
    "FedAvgAggregator",
    "FedAdamAggregator",
    "TrimmedMeanAggregator",
    "SecureAggregator",
]


class Aggregator:
    """Base class: combine client deltas into one global delta."""

    def aggregate(self, updates: Sequence[ClientUpdate]) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _weights_from_counts(counts: np.ndarray) -> np.ndarray:
        counts = np.maximum(np.asarray(counts, dtype=np.float64), 0.0)
        total = counts.sum()
        if total <= 0:
            return np.full(counts.size, 1.0 / max(counts.size, 1))
        return counts / total

    @classmethod
    def _weights(cls, updates: Sequence[ClientUpdate]) -> np.ndarray:
        return cls._weights_from_counts(np.array([u.n_samples for u in updates], dtype=np.float64))


class FedAvgAggregator(Aggregator):
    """Sample-weighted average of client deltas."""

    def aggregate(self, updates: Sequence[ClientUpdate]) -> np.ndarray:
        if not updates:
            raise ValueError("no updates to aggregate")
        stacked = np.stack([u.delta for u in updates], axis=0)
        return np.einsum("c,cd->d", self._weights(updates), stacked, optimize=True)

    def aggregate_stack(self, stacked: np.ndarray, n_samples: np.ndarray) -> np.ndarray:
        """FedAvg over an already-stacked ``(clients, dim)`` delta matrix.

        The vectorized :class:`~repro.federated.engine.FederatedEngine`
        holds the stack directly, so this skips the per-update objects.
        :meth:`aggregate` is the reference it must equal bit for bit and
        deliberately does not call it (``engine="oracle"`` runs no fast path).
        """
        if stacked.shape[0] == 0:
            raise ValueError("no updates to aggregate")
        weights = self._weights_from_counts(n_samples)
        return np.einsum("c,cd->d", weights, stacked, optimize=True)


class FedAdamAggregator(Aggregator):
    """Server Adam on the averaged pseudo-gradient (Reddi et al. style)."""

    def __init__(self, lr: float = 1.0, beta1: float = 0.9, beta2: float = 0.99, eps: float = 1e-6) -> None:
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._t = 0

    def aggregate(self, updates: Sequence[ClientUpdate]) -> np.ndarray:
        if not updates:
            raise ValueError("no updates to aggregate")
        weights = self._weights(updates)
        pseudo_grad = np.einsum("c,cd->d", weights, np.stack([u.delta for u in updates]), optimize=True)
        if self._m is None:
            self._m = np.zeros_like(pseudo_grad)
            self._v = np.zeros_like(pseudo_grad)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * pseudo_grad
        self._v = self.beta2 * self._v + (1 - self.beta2) * pseudo_grad**2
        m_hat = self._m / (1 - self.beta1**self._t)
        v_hat = self._v / (1 - self.beta2**self._t)
        return self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TrimmedMeanAggregator(Aggregator):
    """Coordinate-wise trimmed mean: robust to a minority of bad clients."""

    def __init__(self, trim_fraction: float = 0.1) -> None:
        if not 0.0 <= trim_fraction < 0.5:
            raise ValueError("trim_fraction must be in [0, 0.5)")
        self.trim_fraction = float(trim_fraction)

    def aggregate(self, updates: Sequence[ClientUpdate]) -> np.ndarray:
        if not updates:
            raise ValueError("no updates to aggregate")
        stacked = np.stack([u.delta for u in updates], axis=0)
        n = stacked.shape[0]
        k = int(np.floor(self.trim_fraction * n))
        if k == 0 or n - 2 * k <= 0:
            return stacked.mean(axis=0)
        ordered = np.sort(stacked, axis=0)
        return ordered[k : n - k].mean(axis=0)


class SecureAggregator(Aggregator):
    """Additive-masking secure aggregation (Bonawitz et al., simplified).

    Every pair of participating clients agrees (via the shared seed derived
    from their ids) on a mask vector; one adds it, the other subtracts it.
    Masks cancel in the sum, so the server learns only the aggregate.  This
    class simulates both the client-side masking and the server-side
    unmasked aggregation so tests can verify the two properties:

    * the masked updates individually look like noise, and
    * the aggregate equals the FedAvg aggregate of the unmasked updates.
    """

    def __init__(self, mask_scale: float = 1.0, seed: int = 0) -> None:
        self.mask_scale = float(mask_scale)
        self.seed = int(seed)
        self._inner = FedAvgAggregator()

    def _pair_mask(self, id_a: str, id_b: str, dim: int) -> np.ndarray:
        # A stable digest, not builtin hash(): str hashes are salted per
        # process, and one seed must replay across restarts.
        pair = f"{min(id_a, id_b)}|{max(id_a, id_b)}|{self.seed}".encode()
        rng = np.random.default_rng(int.from_bytes(hashlib.sha256(pair).digest()[:8], "big"))
        return rng.normal(0.0, self.mask_scale, size=dim)

    def mask_updates(self, updates: Sequence[ClientUpdate]) -> List[ClientUpdate]:
        """Return masked copies of the updates (what the server would see)."""
        ids = [u.client_id for u in updates]
        dim = updates[0].delta.shape[0] if updates else 0
        masked: List[ClientUpdate] = []
        weights = self._weights(updates)
        for i, update in enumerate(updates):
            mask = np.zeros(dim)
            for j, other in enumerate(ids):
                if other == update.client_id:
                    continue
                pair = self._pair_mask(update.client_id, other, dim)
                sign = 1.0 if update.client_id < other else -1.0
                # Scale the pairwise mask so it cancels under weighted averaging.
                mask += sign * pair / max(weights[i], 1e-12)
            masked.append(
                ClientUpdate(
                    client_id=update.client_id,
                    delta=update.delta + mask,
                    n_samples=update.n_samples,
                    local_loss=update.local_loss,
                    metrics=dict(update.metrics),
                )
            )
        return masked

    def aggregate(self, updates: Sequence[ClientUpdate]) -> np.ndarray:
        """Mask then aggregate; the result matches plain FedAvg up to float error."""
        if not updates:
            raise ValueError("no updates to aggregate")
        masked = self.mask_updates(updates)
        return self._inner.aggregate(masked)
