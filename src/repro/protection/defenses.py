"""Defences against indirect model stealing: detection and prediction poisoning.

Paper Section V: "There are two common families of solutions to protect
against this: detecting stealing queries patterns and prediction poisoning."

* :class:`ExtractionDetector` — PRADA-style monitor of the distribution of
  distances between successive queries: benign traffic follows the data
  manifold (distance distribution close to the reference), synthetic attack
  queries do not.  Also tracks an information-gain-style score (entropy of
  the returned predictions).
* Prediction poisoning — :func:`round_probabilities` (the "can be as simple
  as rounding the confidence values" defence), :func:`top1_only`,
  :func:`noisy_probabilities` and :func:`reverse_sigmoid_poisoning`
  (accuracy-preserving but gradient-misleading perturbation).
* :class:`ProtectedModel` — wraps a deployed model with a poisoning policy
  and the detector, exposing the same ``predict`` interface pipelines use.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn.activations import softmax

__all__ = [
    "round_probabilities",
    "top1_only",
    "noisy_probabilities",
    "reverse_sigmoid_poisoning",
    "get_poisoning",
    "ExtractionDetector",
    "ProtectedModel",
]


# ---------------------------------------------------------------------------
# prediction poisoning
# ---------------------------------------------------------------------------

def round_probabilities(probs: np.ndarray, decimals: int = 1) -> np.ndarray:
    """Round confidences to ``decimals`` places (Tramèr et al. style)."""
    rounded = np.round(probs, decimals)
    norm = rounded.sum(axis=-1, keepdims=True)
    norm[norm == 0] = 1.0
    return rounded / norm


def top1_only(probs: np.ndarray) -> np.ndarray:
    """Return a one-hot vector of the argmax — the least informative API."""
    out = np.zeros_like(probs)
    out[np.arange(probs.shape[0]), probs.argmax(axis=-1)] = 1.0
    return out


def noisy_probabilities(probs: np.ndarray, scale: float = 0.1, seed: int = 0) -> np.ndarray:
    """Add argmax-preserving Dirichlet-style noise to the probability vector."""
    rng = np.random.default_rng(seed)
    noise = rng.dirichlet(np.ones(probs.shape[-1]), size=probs.shape[0])
    mixed = (1.0 - scale) * probs + scale * noise
    # Restore the original argmax so accuracy is unchanged.
    orig = probs.argmax(axis=-1)
    cur = mixed.argmax(axis=-1)
    swap = cur != orig
    rows = np.flatnonzero(swap)
    if rows.size:
        mixed[rows, orig[rows]], mixed[rows, cur[rows]] = mixed[rows, cur[rows]], mixed[rows, orig[rows]]
    return mixed / mixed.sum(axis=-1, keepdims=True)


def reverse_sigmoid_poisoning(probs: np.ndarray, beta: float = 0.7, gamma: float = 0.2) -> np.ndarray:
    """Reverse-sigmoid perturbation (Lee et al. / prediction-poisoning flavour).

    Adds a non-monotone perturbation to every probability that preserves the
    argmax but makes the soft outputs a poor distillation target.
    """
    p = np.clip(probs, 1e-7, 1.0 - 1e-7)
    perturb = beta * (1.0 / (1.0 + np.exp(gamma * np.log(p / (1.0 - p)))) - 0.5)
    poisoned = p - perturb
    poisoned = np.clip(poisoned, 1e-7, None)
    # Restore argmax then renormalize.
    orig = probs.argmax(axis=-1)
    boost = np.zeros_like(poisoned)
    boost[np.arange(p.shape[0]), orig] = poisoned.max(axis=-1) * 1.05 - poisoned[np.arange(p.shape[0]), orig]
    poisoned = poisoned + np.maximum(boost, 0.0)
    return poisoned / poisoned.sum(axis=-1, keepdims=True)


_POISONS: Dict[str, Callable[..., np.ndarray]] = {
    "none": lambda p, **kw: p,
    "round": round_probabilities,
    "top1": lambda p, **kw: top1_only(p),
    "noise": noisy_probabilities,
    "reverse_sigmoid": reverse_sigmoid_poisoning,
}


def get_poisoning(name: str) -> Callable[..., np.ndarray]:
    """Look up a poisoning function by name."""
    key = str(name).lower()
    if key not in _POISONS:
        raise KeyError(f"unknown poisoning {name!r}; known: {sorted(_POISONS)}")
    return _POISONS[key]


# ---------------------------------------------------------------------------
# extraction detection
# ---------------------------------------------------------------------------

class ExtractionDetector:
    """PRADA-style detector of model-extraction query patterns.

    Benign queries are drawn from the data distribution, so the distances
    between successive queries concentrate around the typical inter-sample
    distance of the reference data.  Synthetic / perturbation-based attack
    queries produce a distance distribution that deviates; we flag a client
    when the Kolmogorov–Smirnov-like distance between its recent query
    distances and the reference distances exceeds ``threshold``.  A second
    signal is the average prediction entropy (attackers probing decision
    boundaries see higher-entropy outputs).
    """

    def __init__(self, reference_x: np.ndarray, window: int = 64, threshold: float = 0.35, seed: int = 0) -> None:
        reference_x = np.asarray(reference_x, dtype=np.float64)
        flat = reference_x.reshape(reference_x.shape[0], -1)
        rng = np.random.default_rng(seed)
        n = min(flat.shape[0], 512)
        idx = rng.choice(flat.shape[0], size=n, replace=False)
        sample = flat[idx]
        # Reference distribution of nearest-neighbour-ish distances.
        pair_idx = rng.integers(0, n, size=(min(2000, n * 4), 2))
        self.reference_distances = np.linalg.norm(sample[pair_idx[:, 0]] - sample[pair_idx[:, 1]], axis=1)
        self.window = int(window)
        self.threshold = float(threshold)
        self._per_client: Dict[str, List[np.ndarray]] = {}
        self.flags: Dict[str, bool] = {}
        self.scores: Dict[str, float] = {}

    def observe(self, client_id: str, queries: np.ndarray) -> None:
        """Record a batch of queries issued by a client."""
        flat = np.asarray(queries, dtype=np.float64).reshape(queries.shape[0], -1)
        buf = self._per_client.setdefault(client_id, [])
        buf.append(flat)
        total = sum(b.shape[0] for b in buf)
        while total > self.window and len(buf) > 1:
            total -= buf.pop(0).shape[0]

    def score(self, client_id: str) -> float:
        """Distribution-distance score for a client's recent queries."""
        buf = self._per_client.get(client_id)
        if not buf:
            return 0.0
        flat = np.concatenate(buf, axis=0)
        if flat.shape[0] < 4:
            return 0.0
        dists = np.linalg.norm(np.diff(flat, axis=0), axis=1)
        # Empirical-CDF max deviation between client distances and reference.
        grid = np.quantile(self.reference_distances, np.linspace(0.02, 0.98, 25))
        ref_cdf = np.searchsorted(np.sort(self.reference_distances), grid, side="right") / self.reference_distances.size
        cli_cdf = np.searchsorted(np.sort(dists), grid, side="right") / dists.size
        return float(np.max(np.abs(ref_cdf - cli_cdf)))

    def check(self, client_id: str) -> bool:
        """Evaluate and record whether a client looks like an extractor."""
        score = self.score(client_id)
        self.scores[client_id] = score
        flagged = score > self.threshold
        self.flags[client_id] = flagged
        return flagged

# ---------------------------------------------------------------------------
# protected deployment wrapper
# ---------------------------------------------------------------------------

class ProtectedModel:
    """A deployed model wrapped with poisoning + extraction detection.

    This is the object the runtime actually exposes to the application: it
    looks like a model (``predict_proba``) but applies the configured output
    perturbation and feeds the query stream to the detector.
    """

    def __init__(
        self,
        model,
        poisoning: str = "none",
        poisoning_kwargs: Optional[Dict[str, object]] = None,
        detector: Optional[ExtractionDetector] = None,
        deny_flagged: bool = False,
    ) -> None:
        self.model = model
        self.poisoning_name = poisoning
        self._poison = get_poisoning(poisoning)
        self._poison_kwargs = dict(poisoning_kwargs or {})
        self.detector = detector
        self.deny_flagged = bool(deny_flagged)
        self.query_count = 0

    def predict_proba(self, x: np.ndarray, client_id: str = "default") -> np.ndarray:
        """Poisoned probability outputs (and detector bookkeeping)."""
        x = np.asarray(x, dtype=np.float64)
        self.query_count += x.shape[0]
        if self.detector is not None:
            self.detector.observe(client_id, x)
            flagged = self.detector.check(client_id)
            if flagged and self.deny_flagged:
                # Degrade to uniform outputs for flagged clients.
                k = self.model.output_shape[-1]
                return np.full((x.shape[0], k), 1.0 / k)
        probs = softmax(self.model.forward(x, training=False), axis=-1)
        return self._poison(probs, **self._poison_kwargs)

    def predict_logits(self, x: np.ndarray, client_id: str = "default") -> np.ndarray:
        """Log of the poisoned probabilities (what a stealing attacker records)."""
        return np.log(np.clip(self.predict_proba(x, client_id=client_id), 1e-12, None))

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Task accuracy as seen by a legitimate user of the protected API."""
        probs = self.predict_proba(x, client_id="legitimate-eval")
        return float(np.mean(probs.argmax(axis=-1) == y))
