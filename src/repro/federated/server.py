"""Client-facing extras around the federated round loop.

Round execution — select clients, broadcast, collect locally trained
updates, compress, aggregate, apply, evaluate, with per-round byte
accounting — lives in :class:`~repro.federated.engine.FederatedEngine`.
This module adds what is not a round: per-client personalization of the
trained global model and the centralized upper-bound baseline of
experiment E6.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.nn.model import Sequential

from .client import FederatedClient

__all__ = ["personalize_all", "centralized_baseline"]


def personalize_all(
    model: Sequential, clients: Sequence[FederatedClient], epochs: int = 3
) -> Dict[str, Dict[str, float]]:
    """Personalize every client and report global-vs-personal accuracy."""
    results: Dict[str, Dict[str, float]] = {}
    for client in clients:
        client.personalize(model, epochs=epochs)
        results[client.client_id] = client.evaluate_models(model)
    return results


def centralized_baseline(
    model: Sequential,
    clients: Sequence[FederatedClient],
    eval_data: Tuple[np.ndarray, np.ndarray],
    epochs: int = 5,
    lr: float = 0.01,
    batch_size: int = 32,
    seed: int = 0,
) -> Dict[str, float]:
    """Upper-bound baseline: pool all client data centrally and train.

    This is exactly what edge deployment is *not* allowed to do (the data
    would have to leave the devices); it serves as the accuracy reference
    that federated learning tries to approach in experiment E6.
    """
    x = np.concatenate([c.data.x for c in clients if c.n_samples > 0], axis=0)
    y = np.concatenate([c.data.y for c in clients if c.n_samples > 0], axis=0)
    model.fit(x, y, epochs=epochs, lr=lr, batch_size=batch_size, seed=seed)
    return {
        "accuracy": model.evaluate(eval_data[0], eval_data[1])["accuracy"],
        "n_samples": float(x.shape[0]),
    }
