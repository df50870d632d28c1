"""Privacy-preserving aggregation of on-device statistics.

Paper Section III-B: sharing raw data with the cloud "would render the
privacy argument invalid"; devices should only share anonymized statistics.
This module provides local differential privacy primitives so a device can
report histograms and counts with plausible deniability:

* :func:`randomized_response` — classic binary randomized response.
* :func:`privatize_histogram` — per-sample k-ary randomized response
  (generalized RR) over categorical values, plus the matching unbiased
  frequency estimator :func:`debias_histogram`.
* :func:`laplace_mechanism` — Laplace noise for bounded numeric statistics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "randomized_response",
    "privatize_histogram",
    "debias_histogram",
    "laplace_mechanism",
    "epsilon_for_flip_probability",
]


def randomized_response(values: np.ndarray, epsilon: float, seed: int = 0) -> np.ndarray:
    """Binary randomized response with privacy parameter ``epsilon``.

    Each true bit is reported truthfully with probability
    ``e^eps / (e^eps + 1)`` and flipped otherwise.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(seed)
    values = np.asarray(values).astype(bool)
    p_truth = np.exp(epsilon) / (np.exp(epsilon) + 1.0)
    flip = rng.random(values.shape) >= p_truth
    return np.where(flip, ~values, values)


def epsilon_for_flip_probability(flip_prob: float) -> float:
    """Epsilon of binary randomized response with the given flip probability."""
    if not 0.0 < flip_prob < 0.5:
        raise ValueError("flip probability must be in (0, 0.5)")
    return float(np.log((1.0 - flip_prob) / flip_prob))


def privatize_histogram(labels: np.ndarray, num_classes: int, epsilon: float, seed: int = 0) -> np.ndarray:
    """k-ary randomized response: each label is reported truthfully w.p.
    ``e^eps / (e^eps + k - 1)``, otherwise replaced by a uniform other label.

    Returns the *noisy* histogram (counts per class) a device would upload.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=int)
    k = num_classes
    p_truth = np.exp(epsilon) / (np.exp(epsilon) + k - 1.0)
    keep = rng.random(labels.shape) < p_truth
    noise = rng.integers(0, k - 1, size=labels.shape)
    # Map noise to "any class except the true one".
    randomized = np.where(noise >= labels, noise + 1, noise)
    reported = np.where(keep, labels, randomized)
    return np.bincount(reported, minlength=k).astype(np.float64)


def debias_histogram(noisy_counts: np.ndarray, epsilon: float, n_reports: Optional[int] = None) -> np.ndarray:
    """Unbiased estimate of the true histogram from k-RR noisy counts.

    Inverts the randomized-response channel:
    ``E[noisy_c] = n*q + true_c*(p - q)`` with ``p = e^eps/(e^eps+k-1)`` and
    ``q = 1/(e^eps+k-1)``.
    """
    noisy = np.asarray(noisy_counts, dtype=np.float64)
    k = noisy.shape[0]
    n = float(n_reports if n_reports is not None else noisy.sum())
    p = np.exp(epsilon) / (np.exp(epsilon) + k - 1.0)
    q = 1.0 / (np.exp(epsilon) + k - 1.0)
    est = (noisy - n * q) / (p - q)
    return np.clip(est, 0.0, None)


def laplace_mechanism(value: float | np.ndarray, sensitivity: float, epsilon: float, seed: int = 0) -> np.ndarray:
    """Add Laplace(sensitivity/epsilon) noise to a bounded statistic."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    rng = np.random.default_rng(seed)
    value = np.asarray(value, dtype=np.float64)
    return value + rng.laplace(0.0, sensitivity / epsilon, size=value.shape)
