"""Federated data partitioning: non-IID client splits and unlabeled shares.

Paper Section III-D highlights that federated learning on edge devices must
cope with heterogeneous (non-IID) client data and largely unlabeled data.
These partitioners create the client datasets used by :mod:`repro.federated`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .synthetic import Dataset

__all__ = [
    "ClientData",
    "partition_iid",
    "partition_dirichlet",
    "partition_shards",
    "drop_labels",
    "partition_statistics",
]


@dataclass
class ClientData:
    """Per-client dataset, optionally with an unlabeled portion.

    Attributes
    ----------
    client_id:
        Identifier matching a device in the fleet simulator.
    x, y:
        Labeled training data for this client.
    x_unlabeled:
        Samples whose labels were dropped (semi-supervised FL scenario).
    """

    client_id: str
    x: np.ndarray
    y: np.ndarray
    x_unlabeled: Optional[np.ndarray] = None

    def __len__(self) -> int:
        n = int(self.x.shape[0])
        if self.x_unlabeled is not None:
            n += int(self.x_unlabeled.shape[0])
        return n

    def label_distribution(self, num_classes: int) -> np.ndarray:
        """Normalized histogram of this client's labels."""
        counts = np.bincount(self.y.astype(int), minlength=num_classes).astype(np.float64)
        total = counts.sum()
        return counts / total if total > 0 else counts


def _make_clients(dataset: Dataset, assignment: List[np.ndarray], prefix: str) -> List[ClientData]:
    clients = []
    for i, idx in enumerate(assignment):
        idx = np.asarray(idx, dtype=np.int64)
        clients.append(ClientData(client_id=f"{prefix}{i}", x=dataset.x[idx], y=dataset.y[idx]))
    return clients


def partition_iid(dataset: Dataset, n_clients: int, seed: int = 0, prefix: str = "client-") -> List[ClientData]:
    """Split a dataset uniformly at random into ``n_clients`` equal parts."""
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(dataset))
    assignment = np.array_split(idx, n_clients)
    return _make_clients(dataset, list(assignment), prefix)


def partition_dirichlet(
    dataset: Dataset,
    n_clients: int,
    alpha: float = 0.5,
    seed: int = 0,
    min_samples: int = 2,
    prefix: str = "client-",
) -> List[ClientData]:
    """Label-skewed split: each class is divided among clients by Dirichlet(α).

    Small ``alpha`` (e.g. 0.1) produces highly non-IID clients where most
    clients only see a couple of classes; large ``alpha`` approaches IID.
    Clients are guaranteed at least ``min_samples`` samples by re-drawing.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    num_classes = dataset.num_classes
    for _ in range(50):
        buckets: List[List[int]] = [[] for _ in range(n_clients)]
        for c in range(num_classes):
            class_idx = np.flatnonzero(dataset.y == c)
            rng.shuffle(class_idx)
            proportions = rng.dirichlet(np.full(n_clients, alpha))
            # Convert proportions to contiguous split points.
            splits = (np.cumsum(proportions)[:-1] * class_idx.size).astype(int)
            for client, part in enumerate(np.split(class_idx, splits)):
                buckets[client].extend(part.tolist())
        sizes = np.array([len(b) for b in buckets])
        if sizes.min() >= min_samples:
            break
    assignment = [np.array(sorted(b), dtype=np.int64) for b in buckets]
    return _make_clients(dataset, assignment, prefix)


def partition_shards(
    dataset: Dataset,
    n_clients: int,
    shards_per_client: int = 2,
    seed: int = 0,
    prefix: str = "client-",
) -> List[ClientData]:
    """Classic FedAvg-paper pathological split: sort by label, deal out shards."""
    rng = np.random.default_rng(seed)
    order = np.argsort(dataset.y, kind="stable")
    n_shards = n_clients * shards_per_client
    shards = np.array_split(order, n_shards)
    shard_ids = rng.permutation(n_shards)
    assignment = []
    for i in range(n_clients):
        take = shard_ids[i * shards_per_client : (i + 1) * shards_per_client]
        idx = np.concatenate([shards[s] for s in take]) if len(take) else np.empty(0, dtype=np.int64)
        assignment.append(idx)
    return _make_clients(dataset, assignment, prefix)


def drop_labels(client: ClientData, unlabeled_fraction: float, seed: int = 0) -> ClientData:
    """Move a fraction of a client's samples into the unlabeled pool."""
    if not 0.0 <= unlabeled_fraction <= 1.0:
        raise ValueError("unlabeled_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = client.x.shape[0]
    mask = rng.random(n) < unlabeled_fraction
    x_unlabeled = client.x[mask]
    if client.x_unlabeled is not None and client.x_unlabeled.size:
        x_unlabeled = np.concatenate([client.x_unlabeled, x_unlabeled], axis=0)
    return ClientData(client.client_id, client.x[~mask], client.y[~mask], x_unlabeled)


def partition_statistics(clients: Sequence[ClientData], num_classes: int) -> Dict[str, float]:
    """Summary statistics of how non-IID a partition is.

    Returns the mean/max total-variation distance between each client's label
    distribution and the global distribution, plus size imbalance.
    """
    sizes = np.array([c.x.shape[0] for c in clients], dtype=np.float64)
    all_labels = np.concatenate([c.y for c in clients]) if clients else np.empty(0, dtype=np.int64)
    global_dist = np.bincount(all_labels.astype(int), minlength=num_classes).astype(np.float64)
    global_dist /= max(global_dist.sum(), 1.0)
    tvs = []
    for c in clients:
        if c.x.shape[0] == 0:
            continue
        tvs.append(0.5 * float(np.abs(c.label_distribution(num_classes) - global_dist).sum()))
    tvs_arr = np.array(tvs) if tvs else np.zeros(1)
    return {
        "mean_tv_distance": float(tvs_arr.mean()),
        "max_tv_distance": float(tvs_arr.max()),
        "size_imbalance": float(sizes.max() / max(sizes.min(), 1.0)) if sizes.size else 1.0,
        "n_clients": float(len(clients)),
    }
