"""Drift injection and streaming generators for observability experiments.

Paper Section III-B argues that on-device monitoring must detect data drift
from local statistics only.  These utilities create controlled drifting
streams so drift detectors in :mod:`repro.observability` can be evaluated
for detection delay and false-positive rate (experiment E4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from .synthetic import Dataset

__all__ = [
    "covariate_shift",
    "concept_shift",
    "DriftSpec",
    "DriftingStream",
]


def covariate_shift(x: np.ndarray, magnitude: float = 1.0, scale: float = 1.0, seed: int = 0) -> np.ndarray:
    """Shift and rescale the feature distribution (P(x) changes, P(y|x) fixed).

    A random but fixed direction is scaled by ``magnitude`` and added to every
    sample; features are additionally multiplied by ``scale``.
    """
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=x.shape[1:])
    direction /= max(np.linalg.norm(direction), 1e-12)
    return x * scale + magnitude * direction


def concept_shift(y: np.ndarray, num_classes: int, fraction: float = 1.0, seed: int = 0) -> np.ndarray:
    """Permute label semantics for a fraction of samples (P(y|x) changes)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_classes)
    flip = rng.random(y.shape[0]) < fraction
    out = y.copy()
    out[flip] = perm[y[flip]]
    return out


@dataclass
class DriftSpec:
    """Description of a drift event within a stream.

    Attributes
    ----------
    start:
        Index of the first drifted batch.
    kind:
        ``"covariate"``, ``"prior"`` or ``"concept"``.
    magnitude:
        Severity knob; its meaning depends on ``kind``.
    ramp:
        Number of batches over which the drift ramps from 0 to full
        magnitude (0 = abrupt drift).
    """

    start: int
    kind: str = "covariate"
    magnitude: float = 1.0
    ramp: int = 0

    def severity_at(self, batch_index: int) -> float:
        """Effective drift magnitude at ``batch_index`` (0 before start)."""
        if batch_index < self.start:
            return 0.0
        if self.ramp <= 0:
            return self.magnitude
        progress = min(1.0, (batch_index - self.start + 1) / self.ramp)
        return self.magnitude * progress


@dataclass
class DriftingStream:
    """Batch generator producing data whose distribution drifts over time.

    The stream draws batches from a base :class:`Dataset` and applies the
    configured :class:`DriftSpec` transformations, simulating what a deployed
    edge device observes in the field.
    """

    dataset: Dataset
    batch_size: int = 64
    specs: List[DriftSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        for spec in self.specs:
            if spec.kind not in ("covariate", "prior", "concept"):
                raise ValueError(f"unknown drift kind {spec.kind!r}")

    def batches(self, n_batches: int) -> Iterator[Tuple[np.ndarray, np.ndarray, bool]]:
        """Yield ``(x, y, drifted)`` tuples for ``n_batches`` batches."""
        num_classes = self.dataset.num_classes
        for b in range(n_batches):
            idx = self._rng.integers(0, len(self.dataset), size=self.batch_size)
            x = self.dataset.x[idx].astype(np.float64, copy=True)
            y = self.dataset.y[idx].copy()
            drifted = False
            for spec in self.specs:
                sev = spec.severity_at(b)
                if sev <= 0.0:
                    continue
                drifted = True
                if spec.kind == "covariate":
                    x = covariate_shift(x, magnitude=sev, seed=self.seed + 1)
                elif spec.kind == "concept":
                    y = concept_shift(y, num_classes, fraction=min(1.0, sev), seed=self.seed + 2)
                elif spec.kind == "prior":
                    # Oversample the first class proportionally to severity.
                    weights = np.ones(num_classes)
                    weights[0] += sev * num_classes
                    weights /= weights.sum()
                    relabel = self._rng.choice(num_classes, size=self.batch_size, p=weights)
                    for c in range(num_classes):
                        pool = np.flatnonzero(self.dataset.y == c)
                        take = relabel == c
                        if pool.size and np.any(take):
                            pick = self._rng.choice(pool, size=int(take.sum()), replace=True)
                            x[take] = self.dataset.x[pick]
                            y[take] = c
            yield x, y, drifted
