"""Gradient-descent optimizers operating on layer parameter dictionaries.

Optimizers are deliberately independent of the model class: they receive a
list of ``(params, grads, skip)`` triples from :class:`repro.nn.model.Sequential`
and update the arrays in place.  This keeps them reusable for federated
server-side optimization (FedAdam etc.) in :mod:`repro.federated`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

__all__ = ["Optimizer", "SGD", "Momentum", "Adam", "get_optimizer"]

ParamGroup = Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], Sequence[str]]


class Optimizer:
    """Base optimizer.  Subclasses implement :meth:`update_param`."""

    #: Names of the per-parameter state slots a fresh optimizer allocates
    #: lazily on the first step.  The vectorized federated engine uses this
    #: layout to stack the matching state tensors across a client cohort.
    state_slots: Tuple[str, ...] = ()

    def __init__(self, lr: float = 0.01, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.iterations = 0

    def step(self, groups: Iterable[ParamGroup]) -> None:
        """Apply one update to every trainable parameter in ``groups``."""
        self.iterations += 1
        for layer_idx, (params, grads, skip) in enumerate(groups):
            for key, value in params.items():
                if key in skip:
                    continue
                grad = grads.get(key)
                if grad is None:
                    continue
                if self.weight_decay:
                    grad = grad + self.weight_decay * value
                self.update_param(f"{layer_idx}.{key}", value, grad)

    def update_param(self, slot: str, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of hyper-parameters (optimizer slots are rebuilt lazily)."""
        return {"lr": self.lr, "weight_decay": self.weight_decay, "iterations": self.iterations}

    def hyperparams(self) -> Dict[str, float]:
        """Fully-resolved hyper-parameters (defaults included).

        The vectorized federated engine broadcasts these per client, so every
        value an :meth:`update_param` implementation reads must appear here.
        """
        return {"lr": self.lr, "weight_decay": self.weight_decay}


class SGD(Optimizer):
    """Vanilla stochastic gradient descent."""

    def update_param(self, slot: str, param: np.ndarray, grad: np.ndarray) -> None:
        param -= self.lr * grad


class Momentum(Optimizer):
    """SGD with classical momentum (Polyak heavy-ball)."""

    state_slots = ("velocity",)

    def __init__(self, lr: float = 0.01, momentum: float = 0.9, weight_decay: float = 0.0) -> None:
        super().__init__(lr, weight_decay)
        self.momentum = float(momentum)
        self._velocity: Dict[str, np.ndarray] = {}

    def hyperparams(self) -> Dict[str, float]:
        out = super().hyperparams()
        out["momentum"] = self.momentum
        return out

    def update_param(self, slot: str, param: np.ndarray, grad: np.ndarray) -> None:
        v = self._velocity.get(slot)
        if v is None:
            v = np.zeros_like(param)
            self._velocity[slot] = v
        v *= self.momentum
        v -= self.lr * grad
        param += v


class Adam(Optimizer):
    """Adam optimizer with bias correction."""

    state_slots = ("m", "v", "t")

    def __init__(
        self,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(lr, weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._t: Dict[str, int] = {}

    def hyperparams(self) -> Dict[str, float]:
        out = super().hyperparams()
        out.update({"beta1": self.beta1, "beta2": self.beta2, "eps": self.eps})
        return out

    def update_param(self, slot: str, param: np.ndarray, grad: np.ndarray) -> None:
        m = self._m.get(slot)
        if m is None:
            m = np.zeros_like(param)
            v = np.zeros_like(param)
            self._m[slot] = m
            self._v[slot] = v
            self._t[slot] = 0
        v = self._v[slot]
        self._t[slot] += 1
        t = self._t[slot]
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * (grad * grad)
        m_hat = m / (1 - self.beta1**t)
        v_hat = v / (1 - self.beta2**t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def get_optimizer(name: str | Optimizer, **kwargs: float) -> Optimizer:
    """Build an optimizer by name (``sgd``, ``momentum``, ``adam``)."""
    if isinstance(name, Optimizer):
        return name
    key = str(name).lower()
    if key == "sgd":
        return SGD(**kwargs)
    if key == "momentum":
        return Momentum(**kwargs)
    if key == "adam":
        return Adam(**kwargs)
    raise KeyError(f"unknown optimizer {name!r}")
