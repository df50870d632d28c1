"""Classification metrics: accuracy and model agreement."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "agreement"]


def accuracy(logits_or_preds: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy.

    Accepts either a logits/probability matrix of shape ``(n, k)`` or a
    vector of already-arg-maxed predictions of shape ``(n,)``.
    """
    preds = logits_or_preds
    if preds.ndim == 2:
        preds = preds.argmax(axis=-1)
    return float(np.mean(preds == labels))


def agreement(logits_a: np.ndarray, logits_b: np.ndarray) -> float:
    """Fraction of inputs on which two models predict the same class.

    Used by the IP-protection experiments to measure how closely an extracted
    clone mimics the victim model (Section V of the paper).
    """
    pa = logits_a.argmax(axis=-1) if logits_a.ndim == 2 else logits_a
    pb = logits_b.argmax(axis=-1) if logits_b.ndim == 2 else logits_b
    return float(np.mean(pa == pb))
