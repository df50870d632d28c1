"""Weight pruning: unstructured magnitude pruning and structured neuron pruning.

Pruning is one of the standard TinyML efficiency levers (paper Section II).
Unstructured pruning zeroes individual weights (reducing the *stored* size
once sparse encoding is applied) while structured pruning removes whole
units, producing a genuinely smaller architecture.  Both are implemented on
:class:`repro.nn.Sequential` models.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = [
    "magnitude_prune",
    "structured_prune_dense",
    "sparsity",
    "sparse_size_bytes",
]


def sparsity(model) -> float:
    """Fraction of zero-valued weights across all ``W`` parameters."""
    total = 0
    zeros = 0
    for layer in model.layers:
        w = layer.params.get("W")
        if w is None:
            continue
        total += w.size
        zeros += int(np.count_nonzero(w == 0.0))
    return zeros / total if total else 0.0


def sparse_size_bytes(model, bits: int = 32, index_bits: int = 16) -> int:
    """Size of the model if nonzero weights were stored in COO-like form.

    Each nonzero costs ``bits`` for the value plus ``index_bits`` for its
    position; dense parameters (biases, BN) are stored densely.
    """
    total_bits = 0
    for layer in model.layers:
        for key, value in layer.params.items():
            if key == "W":
                nnz = int(np.count_nonzero(value))
                total_bits += nnz * (bits + index_bits)
            else:
                total_bits += value.size * bits
    return int(np.ceil(total_bits / 8))


def magnitude_prune(model, target_sparsity: float, name_suffix: Optional[str] = None):
    """Per-layer magnitude pruning to ``target_sparsity`` on each weight tensor."""
    if not 0.0 <= target_sparsity < 1.0:
        raise ValueError("target_sparsity must be in [0, 1)")
    suffix = name_suffix if name_suffix is not None else f"-sp{int(target_sparsity * 100)}"
    clone = model.clone(copy_weights=True, name=f"{model.name}{suffix}")
    for layer in clone.layers:
        w = layer.params.get("W")
        if w is None or w.size == 0:
            continue
        k = int(np.floor(target_sparsity * w.size))
        if k <= 0:
            continue
        threshold = np.partition(np.abs(w).ravel(), k - 1)[k - 1]
        mask = np.abs(w) > threshold
        layer.params["W"] = w * mask
    return clone


def structured_prune_dense(model, keep_fraction: float, seed: int = 0):
    """Structured pruning of Dense hidden layers by neuron importance.

    Rebuilds the model with the lowest-L2-norm neurons removed from every
    hidden Dense layer (the output layer is untouched), propagating the
    reduced width to the next layer's input rows.  Returns a genuinely
    smaller :class:`repro.nn.Sequential`.
    Only applies to pure-MLP models (Dense/Dropout stacks).
    """
    from repro.nn.layers import Dense, Dropout
    from repro.nn.model import Sequential

    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    dense_layers = [l for l in model.layers if isinstance(l, Dense)]
    if not dense_layers or not all(isinstance(l, (Dense, Dropout)) for l in model.layers):
        raise TypeError("structured_prune_dense only supports Dense/Dropout models")

    new_layers: List = []
    keep_idx: Optional[np.ndarray] = None  # indices kept from the previous layer's outputs
    n_dense = len(dense_layers)
    dense_seen = 0
    for layer in model.layers:
        if isinstance(layer, Dropout):
            new_layers.append(Dropout(layer.rate, seed=seed, name=layer.name))
            continue
        assert isinstance(layer, Dense)
        dense_seen += 1
        w = layer.params["W"]
        b = layer.params.get("b")
        if keep_idx is not None:
            w = w[keep_idx, :]
        is_output = dense_seen == n_dense
        if is_output:
            keep_cols = np.arange(w.shape[1])
        else:
            n_keep = max(1, int(round(keep_fraction * w.shape[1])))
            importance = np.linalg.norm(w, axis=0)
            keep_cols = np.sort(np.argsort(-importance)[:n_keep])
        w_new = w[:, keep_cols]
        new_dense = Dense(
            units=w_new.shape[1],
            activation=layer.activation_name,
            use_bias=layer.use_bias,
            name=layer.name,
        )
        new_dense.build((w_new.shape[0],), np.random.default_rng(seed))
        new_dense.params["W"] = w_new.copy()
        if layer.use_bias and b is not None:
            new_dense.params["b"] = b[keep_cols].copy()
        new_layers.append(new_dense)
        keep_idx = keep_cols
    pruned = Sequential(
        new_layers,
        input_shape=model.input_shape,
        seed=seed,
        name=f"{model.name}-struct{int(keep_fraction * 100)}",
    )
    return pruned
