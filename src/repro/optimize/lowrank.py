"""Low-rank factorization of Dense layers.

Factorizing a dense weight matrix ``W (m x n)`` into ``U (m x r) @ V (r x n)``
reduces both parameter count and FLOPs whenever ``r < m*n / (m + n)``.
This is one of the classical compression levers surveyed in the paper's
Section II, and provides an additional point on the accuracy/size Pareto
front explored by :mod:`repro.optimize.pareto`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["factorize_dense_model", "dense_rank_for_compression"]


def dense_rank_for_compression(in_dim: int, out_dim: int, compression: float) -> int:
    """Rank achieving roughly ``compression``x fewer parameters for a dense layer."""
    if compression <= 1.0:
        return min(in_dim, out_dim)
    full = in_dim * out_dim
    target = full / compression
    rank = int(np.floor(target / (in_dim + out_dim)))
    return max(1, min(rank, min(in_dim, out_dim)))


def factorize_dense_model(model, rank: Optional[int] = None, compression: Optional[float] = None, seed: int = 0):
    """Replace every hidden Dense layer by a truncated-SVD pair of Dense layers.

    Exactly one of ``rank`` / ``compression`` must be given.  The output
    layer is left untouched to preserve the logit dimensionality.  Returns a
    new :class:`repro.nn.Sequential`; only Dense/Dropout models are supported.
    """
    from repro.nn.layers import Dense, Dropout
    from repro.nn.model import Sequential

    if (rank is None) == (compression is None):
        raise ValueError("specify exactly one of rank / compression")
    if not all(isinstance(l, (Dense, Dropout)) for l in model.layers):
        raise TypeError("factorize_dense_model only supports Dense/Dropout models")
    dense_layers = [l for l in model.layers if isinstance(l, Dense)]
    n_dense = len(dense_layers)
    new_layers: List = []
    rng = np.random.default_rng(seed)
    dense_seen = 0
    for layer in model.layers:
        if isinstance(layer, Dropout):
            new_layers.append(Dropout(layer.rate, seed=seed, name=layer.name))
            continue
        assert isinstance(layer, Dense)
        dense_seen += 1
        w = layer.params["W"]
        is_output = dense_seen == n_dense
        in_dim, out_dim = w.shape
        r = rank if rank is not None else dense_rank_for_compression(in_dim, out_dim, compression or 1.0)
        r = max(1, min(r, min(in_dim, out_dim)))
        # Factorizing is only worthwhile if it actually reduces parameters.
        if is_output or r * (in_dim + out_dim) >= in_dim * out_dim:
            clone = Dense(layer.units, activation=layer.activation_name, use_bias=layer.use_bias, name=layer.name)
            clone.build((in_dim,), rng)
            clone.params["W"] = w.copy()
            if layer.use_bias:
                clone.params["b"] = layer.params["b"].copy()
            new_layers.append(clone)
            continue
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        u_r = u[:, :r] * np.sqrt(s[:r])
        v_r = (vt[:r, :].T * np.sqrt(s[:r])).T
        first = Dense(r, activation=None, use_bias=False, name=f"{layer.name}_u")
        first.build((in_dim,), rng)
        first.params["W"] = u_r
        second = Dense(out_dim, activation=layer.activation_name, use_bias=layer.use_bias, name=f"{layer.name}_v")
        second.build((r,), rng)
        second.params["W"] = v_r
        if layer.use_bias:
            second.params["b"] = layer.params["b"].copy()
        new_layers.append(first)
        new_layers.append(second)
    suffix = f"-svd{rank}" if rank is not None else f"-svdc{compression:g}"
    return Sequential(new_layers, input_shape=model.input_shape, seed=seed, name=f"{model.name}{suffix}")
