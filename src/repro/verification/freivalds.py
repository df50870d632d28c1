"""Freivalds' algorithm: cheap randomized verification of matrix products.

Paper Section VI describes verifiable computation: "the most interesting
approaches evaluate the model and provide a small mathematical proof of the
correctness of the result", with an overhead that recent systems push down
to a few percent of inference time (SafetyNets).  The workhorse primitive is
verifying a claimed product ``C = A @ B`` without recomputing it: pick a
random vector ``r`` and check ``A @ (B @ r) == C @ r``, which costs O(n²)
instead of O(n³) and catches any incorrect ``C`` with probability ≥ 1/2 per
trial (so ≥ 1 - 2^-k for k trials).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = ["freivalds_check", "FreivaldsVerifier", "verify_compiled_run"]


def freivalds_check(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    n_trials: int = 8,
    rng: Optional[np.random.Generator] = None,
    tolerance: float = 1e-6,
) -> bool:
    """True iff ``c`` passes ``n_trials`` random projections of ``a @ b == c``.

    ``tolerance`` is relative to the magnitude of the projected values, so the
    check is robust to accumulated floating-point error on legitimate results
    while still rejecting adversarial modifications.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if a.shape[1] != b.shape[0] or c.shape != (a.shape[0], b.shape[1]):
        raise ValueError("incompatible shapes for Freivalds check")
    rng = rng or np.random.default_rng()
    for _ in range(n_trials):
        r = rng.integers(0, 2, size=(b.shape[1],)).astype(np.float64)
        left = a @ (b @ r)
        right = c @ r
        scale = np.maximum(np.abs(left), np.abs(right)).max() if left.size else 0.0
        if not np.allclose(left, right, atol=max(tolerance, tolerance * scale), rtol=tolerance):
            return False
    return True


@dataclass
class FreivaldsVerifier:
    """Stateful wrapper with a seeded generator and soundness accounting."""

    n_trials: int = 8
    seed: int = 0
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self.checks_performed = 0
        self.failures = 0

    def verify(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> bool:
        """Run the check and record the outcome."""
        ok = freivalds_check(a, b, c, n_trials=self.n_trials, rng=self._rng, tolerance=self.tolerance)
        self.checks_performed += 1
        if not ok:
            self.failures += 1
        return ok

    @property
    def soundness_error(self) -> float:
        """Upper bound on the probability an incorrect product is accepted."""
        return 0.5**self.n_trials


def verify_compiled_run(
    plan,
    x: np.ndarray,
    n_trials: int = 8,
    seed: int = 0,
    tolerance: float = 1e-6,
) -> Dict[str, object]:
    """Execute a compiled plan and Freivalds-verify every GEMM it performed.

    ``plan`` is a :class:`repro.exchange.CompiledExecutor`.  Running it with
    GEMM recording yields the ``(A, B, C)`` triple of every dense *and*
    conv-as-im2col matrix product — extending the randomized check to
    convolutions, which the layer-wise transcript protocol
    (:mod:`repro.verification.protocol`) still re-executes directly.  Each
    triple is checked in O(rows·cols) instead of recomputed in O(n³).

    Returns the plan output together with the verification verdict; the
    overall soundness error is union-bounded over the checked GEMMs.
    """
    output, gemms = plan.run(x, record_gemms=True)
    verifier = FreivaldsVerifier(n_trials=n_trials, seed=seed, tolerance=tolerance)
    failed: List[int] = [i for i, (a, b, c) in enumerate(gemms) if not verifier.verify(a, b, c)]
    return {
        "output": output,
        "valid": not failed,
        "checked_gemms": len(gemms),
        "failed_gemms": failed,
        "soundness_error": min(1.0, len(gemms) * verifier.soundness_error),
    }
