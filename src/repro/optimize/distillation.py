"""Knowledge distillation: train a small student from a large teacher.

Distillation (paper Section II, ref [5]) is both an optimization technique —
producing compact edge models — and, from the adversary's point of view, the
mechanism behind indirect model stealing (Section V).  The same routine is
therefore reused by :mod:`repro.protection.extraction` with the teacher
treated as a black box.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.nn.losses import distillation_loss
from repro.nn.model import Sequential, batch_iterator
from repro.nn.optimizers import get_optimizer

__all__ = ["distill", "soft_label_dataset"]


def soft_label_dataset(teacher: Sequential, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Teacher logits for every sample (the "labels" an attacker would record)."""
    outputs: List[np.ndarray] = []
    for xb, _ in batch_iterator(x, None, batch_size):
        outputs.append(teacher.forward(xb, training=False))
    return np.concatenate(outputs, axis=0) if outputs else np.empty((0,))


def distill(
    teacher: Sequential,
    student: Sequential,
    x: np.ndarray,
    y: Optional[np.ndarray] = None,
    epochs: int = 5,
    batch_size: int = 32,
    lr: float = 0.005,
    temperature: float = 2.0,
    alpha: float = 0.7,
    seed: int = 0,
    teacher_logits: Optional[np.ndarray] = None,
) -> Dict[str, List[float]]:
    """Train ``student`` to mimic ``teacher`` on inputs ``x``.

    Parameters
    ----------
    y:
        Optional hard labels.  When absent (the unlabeled / attacker
        scenario) the teacher's argmax is used as the hard label.
    teacher_logits:
        Pre-computed teacher outputs; useful when the teacher applies
        prediction poisoning and the caller wants to control exactly what
        the student sees.
    alpha:
        Weight of the soft (teacher) loss term versus the hard-label term.

    Returns a history dict with per-epoch ``loss`` and ``agreement`` (the
    fraction of samples where student and teacher agree).
    """
    if teacher_logits is None:
        teacher_logits = soft_label_dataset(teacher, x)
    if teacher_logits.shape[0] != x.shape[0]:
        raise ValueError("teacher_logits must align with x")
    hard = y if y is not None else teacher_logits.argmax(axis=-1)
    rng = np.random.default_rng(seed)
    opt = get_optimizer("adam", lr=lr)
    history: Dict[str, List[float]] = {"loss": [], "agreement": []}
    n = x.shape[0]
    for _epoch in range(epochs):
        idx = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            sel = idx[start : start + batch_size]
            xb, tb, hb = x[sel], teacher_logits[sel], hard[sel]
            out = student.forward(xb, training=True)
            loss, grad = distillation_loss(out, tb, hb, temperature=temperature, alpha=alpha)
            student.backward(grad)
            opt.step(student._param_groups())
            losses.append(loss)
        history["loss"].append(float(np.mean(losses)) if losses else 0.0)
        student_pred = student.predict_classes(x)
        history["agreement"].append(float(np.mean(student_pred == teacher_logits.argmax(axis=-1))))
    return history
