"""Model-extraction (stealing) attack simulators.

Paper Section V, threat models:

* **Direct stealing** — the attacker obtains the weights themselves.  On the
  edge this is as easy as reading the (unencrypted) model file; the
  simulator quantifies what encryption at rest prevents.
* **Indirect stealing** — the attacker only queries the model and trains a
  surrogate on the recorded input/output pairs ("student-teacher learning …
  for a fraction of the cost of training the original model").  On the edge
  the attacker queries locally, so there is no rate limit and no server-side
  anomaly detection — the paper's argument for why the risk is higher.

The attack implementations are intentionally standard (no novel attack
capability): they exist so the defences in :mod:`repro.protection.defenses`
can be evaluated quantitatively (experiment E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.nn.metrics import agreement
from repro.nn.model import Sequential
from repro.optimize.distillation import distill

__all__ = ["ExtractionResult", "QueryBasedExtractor", "direct_theft"]


@dataclass
class ExtractionResult:
    """Outcome of an extraction attack."""

    n_queries: int
    surrogate: Sequential
    agreement_with_victim: float
    surrogate_accuracy: float
    victim_accuracy: float
    queries: np.ndarray = field(repr=False, default=None)

def direct_theft(victim: Sequential, encrypted: bool) -> Optional[Sequential]:
    """Direct model stealing: copy the weights if they are stored in the clear.

    Returns an exact clone when the artifact is unencrypted (the default
    situation the paper warns about for edge deployment), or ``None`` when
    encryption at rest blocks the attack.
    """
    if encrypted:
        return None
    return victim.clone(copy_weights=True, name=f"{victim.name}-stolen")


class QueryBasedExtractor:
    """Indirect model stealing via black-box queries + surrogate training."""

    def __init__(
        self,
        surrogate_factory: Callable[[], Sequential],
        query_budget: int = 2000,
        epochs: int = 8,
        lr: float = 0.005,
        temperature: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.surrogate_factory = surrogate_factory
        self.query_budget = int(query_budget)
        self.epochs = int(epochs)
        self.lr = float(lr)
        self.temperature = float(temperature)
        self.seed = int(seed)

    def synthesize_queries(self, input_shape: Tuple[int, ...], reference_x: Optional[np.ndarray] = None) -> np.ndarray:
        """Generate attack queries: perturbed in-distribution samples if the
        attacker has some public data, otherwise uniform noise in the input box."""
        rng = np.random.default_rng(self.seed)
        if reference_x is not None and reference_x.shape[0] > 0:
            idx = rng.integers(0, reference_x.shape[0], size=self.query_budget)
            noise = rng.normal(0.0, 0.3, size=(self.query_budget,) + tuple(input_shape))
            return reference_x[idx] + noise
        return rng.uniform(-2.0, 2.0, size=(self.query_budget,) + tuple(input_shape))

    def run(
        self,
        victim_predict: Callable[[np.ndarray], np.ndarray],
        input_shape: Tuple[int, ...],
        x_eval: np.ndarray,
        y_eval: np.ndarray,
        reference_x: Optional[np.ndarray] = None,
        victim_model: Optional[Sequential] = None,
    ) -> ExtractionResult:
        """Execute the attack against a black-box prediction function.

        ``victim_predict`` maps a batch of inputs to the logits/probabilities
        the deployed application exposes (possibly poisoned by a defence).
        """
        queries = self.synthesize_queries(input_shape, reference_x)
        victim_outputs = victim_predict(queries)
        surrogate = self.surrogate_factory()
        # The attacker distils the victim's outputs into the surrogate with
        # no access to true labels (hard labels = victim argmax).
        distill(
            teacher=victim_model if victim_model is not None else surrogate,
            student=surrogate,
            x=queries,
            y=None,
            epochs=self.epochs,
            lr=self.lr,
            temperature=self.temperature,
            teacher_logits=victim_outputs,
            seed=self.seed,
        )
        surrogate_eval = surrogate.evaluate(x_eval, y_eval)
        victim_eval_logits = victim_predict(x_eval)
        victim_acc = float(np.mean(victim_eval_logits.argmax(axis=-1) == y_eval))
        return ExtractionResult(
            n_queries=self.query_budget,
            surrogate=surrogate,
            agreement_with_victim=agreement(surrogate.forward(x_eval), victim_eval_logits),
            surrogate_accuracy=surrogate_eval["accuracy"],
            victim_accuracy=victim_acc,
            queries=queries,
        )
