"""Sequential model container: training loop, evaluation, weight I/O.

The :class:`Sequential` model is the unit that flows through the whole
TinyMLOps platform: it is trained here, exported to the graph IR by
:mod:`repro.exchange`, optimized by :mod:`repro.optimize`, registered by
:mod:`repro.registry`, deployed to simulated devices by :mod:`repro.runtime`
and updated by :mod:`repro.federated`.  Its weights can be flattened to a
single vector (``get_flat_weights``) which is the representation used by
federated aggregation, watermarking and model-diff utilities.
"""

from __future__ import annotations

import io
import pickle
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .layers import BatchNorm, Layer
from .losses import LossFn, get_loss
from .optimizers import Optimizer, get_optimizer

__all__ = ["Sequential", "batch_iterator"]


def batch_iterator(
    x: np.ndarray,
    y: Optional[np.ndarray],
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Yield mini-batches, optionally shuffled with ``rng``."""
    n = x.shape[0]
    idx = np.arange(n)
    if rng is not None:
        rng.shuffle(idx)
    for start in range(0, n, batch_size):
        sel = idx[start : start + batch_size]
        yield x[sel], (y[sel] if y is not None else None)


class Sequential:
    """A plain feed-forward stack of layers.

    Parameters
    ----------
    layers:
        Layers applied in order.
    input_shape:
        Per-example input shape, e.g. ``(16,)`` for tabular data or
        ``(16, 16, 1)`` for single-channel images.
    seed:
        Seed for parameter initialization, making model construction
        reproducible (a requirement for registry content-addressing).
    name:
        Human-readable model name used throughout the platform.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Tuple[int, ...],
        seed: int = 0,
        name: str = "model",
    ) -> None:
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.seed = int(seed)
        self.name = name
        rng = np.random.default_rng(seed)
        shape = self.input_shape
        for layer in self.layers:
            if not layer.built:
                layer.build(shape, rng)
            shape = layer.output_shape(shape)
        self.output_shape = shape

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full forward pass on a batch."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    # Alias used by pipelines and benchmarks.
    predict = forward

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax probabilities of the final layer output."""
        from .activations import softmax

        return softmax(self.forward(x, training=False), axis=-1)

    def predict_classes(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Arg-maxed class predictions computed in batches."""
        outputs = []
        for xb, _ in batch_iterator(x, None, batch_size):
            outputs.append(self.forward(xb, training=False).argmax(axis=-1))
        return np.concatenate(outputs) if outputs else np.empty((0,), dtype=np.int64)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate ``dL/d(output)`` through every layer."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _param_groups(self):
        groups = []
        for layer in self.layers:
            if not layer.params:
                continue
            skip: Tuple[str, ...] = ()
            if isinstance(layer, BatchNorm):
                skip = BatchNorm.NON_TRAINABLE
            if not layer.trainable:
                skip = tuple(layer.params.keys())
            groups.append((layer.params, layer.grads, skip))
        return groups

    def train_step(
        self,
        xb: np.ndarray,
        yb: np.ndarray,
        loss_fn: LossFn,
        optimizer: Optimizer,
    ) -> float:
        """One forward/backward/update step; returns the batch loss."""
        out = self.forward(xb, training=True)
        loss, grad = loss_fn(out, yb)
        self.backward(grad)
        optimizer.step(self._param_groups())
        return loss

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 5,
        batch_size: int = 32,
        lr: float = 0.01,
        loss: str | LossFn = "cross_entropy",
        optimizer: str | Optimizer = "adam",
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        seed: int = 0,
        verbose: bool = False,
        callbacks: Optional[Sequence[Callable[[int, Dict[str, float]], None]]] = None,
    ) -> Dict[str, List[float]]:
        """Train the model and return a history dict.

        History keys: ``loss`` and (for classification data) ``accuracy``,
        plus ``val_loss`` / ``val_accuracy`` when validation data is given.
        """
        loss_fn = get_loss(loss)
        opt = get_optimizer(optimizer, lr=lr) if isinstance(optimizer, str) else optimizer
        rng = np.random.default_rng(seed)
        history: Dict[str, List[float]] = {"loss": [], "accuracy": []}
        if validation_data is not None:
            history["val_loss"] = []
            history["val_accuracy"] = []
        for epoch in range(epochs):
            losses = []
            for xb, yb in batch_iterator(x, y, batch_size, rng):
                losses.append(self.train_step(xb, yb, loss_fn, opt))
            epoch_loss = float(np.mean(losses)) if losses else 0.0
            history["loss"].append(epoch_loss)
            train_acc = self.evaluate(x, y, loss=loss_fn)["accuracy"]
            history["accuracy"].append(train_acc)
            metrics = {"loss": epoch_loss, "accuracy": train_acc}
            if validation_data is not None:
                val = self.evaluate(validation_data[0], validation_data[1], loss=loss_fn)
                history["val_loss"].append(val["loss"])
                history["val_accuracy"].append(val["accuracy"])
                metrics.update({"val_loss": val["loss"], "val_accuracy": val["accuracy"]})
            if callbacks:
                for cb in callbacks:
                    cb(epoch, metrics)
            if verbose:  # pragma: no cover - convenience output
                print(f"epoch {epoch + 1}/{epochs}: " + ", ".join(f"{k}={v:.4f}" for k, v in metrics.items()))
        return history

    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss: str | LossFn = "cross_entropy",
        batch_size: int = 256,
    ) -> Dict[str, float]:
        """Compute average loss and accuracy over a dataset."""
        loss_fn = get_loss(loss)
        total_loss = 0.0
        n = 0
        correct = 0.0
        for xb, yb in batch_iterator(x, y, batch_size):
            out = self.forward(xb, training=False)
            batch_loss, _ = loss_fn(out, yb)
            total_loss += batch_loss * xb.shape[0]
            n += xb.shape[0]
            if out.ndim == 2 and yb is not None and yb.ndim == 1:
                correct += float(np.sum(out.argmax(axis=-1) == yb))
        return {
            "loss": total_loss / max(n, 1),
            "accuracy": correct / max(n, 1),
        }

    # ------------------------------------------------------------------
    # weights I/O
    # ------------------------------------------------------------------
    def get_flat_weights(self) -> np.ndarray:
        """All parameters concatenated into a single 1-D vector."""
        parts = []
        for layer in self.layers:
            for key in sorted(layer.params):
                parts.append(layer.params[key].ravel())
        if not parts:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(parts)

    def set_flat_weights(self, flat: np.ndarray) -> None:
        """Inverse of :meth:`get_flat_weights`."""
        flat = np.asarray(flat, dtype=np.float64)
        offset = 0
        for layer in self.layers:
            for key in sorted(layer.params):
                size = layer.params[key].size
                chunk = flat[offset : offset + size]
                if chunk.size != size:
                    raise ValueError("flat weight vector is too short")
                layer.params[key] = chunk.reshape(layer.params[key].shape).copy()
                offset += size
        if offset != flat.size:
            raise ValueError(f"flat weight vector has {flat.size - offset} unused values")

    def num_params(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(layer.num_params() for layer in self.layers))

    # ------------------------------------------------------------------
    # cloning and serialization
    # ------------------------------------------------------------------
    def clone(self, copy_weights: bool = True, name: Optional[str] = None) -> "Sequential":
        """Structural copy of the model; optionally copies the weights too."""
        blob = pickle.dumps(
            {
                "layers": self.layers,
                "input_shape": self.input_shape,
                "seed": self.seed,
                "name": name or self.name,
            }
        )
        data = pickle.loads(blob)
        clone = Sequential.__new__(Sequential)
        clone.layers = data["layers"]
        clone.input_shape = data["input_shape"]
        clone.seed = data["seed"]
        clone.name = data["name"]
        clone.output_shape = self.output_shape
        if not copy_weights:
            rng = np.random.default_rng(self.seed)
            shape = clone.input_shape
            for layer in clone.layers:
                layer.params = {}
                layer.grads = {}
                layer.built = False
                layer.build(shape, rng)
                shape = layer.output_shape(shape)
        return clone

    def to_bytes(self) -> bytes:
        """Serialize architecture + weights to a byte string."""
        buf = io.BytesIO()
        pickle.dump(
            {
                "name": self.name,
                "input_shape": self.input_shape,
                "seed": self.seed,
                "layers": self.layers,
            },
            buf,
        )
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Sequential":
        """Inverse of :meth:`to_bytes`."""
        data = pickle.loads(blob)
        model = cls.__new__(cls)
        model.name = data["name"]
        model.input_shape = data["input_shape"]
        model.seed = data["seed"]
        model.layers = data["layers"]
        shape = model.input_shape
        for layer in model.layers:
            shape = layer.output_shape(shape)
        model.output_shape = shape
        return model

    def summary(self) -> str:
        """Human-readable architecture summary."""
        lines = [f"Model {self.name!r}  input={self.input_shape}"]
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            lines.append(f"  {layer.name:<24} out={shape!s:<18} params={layer.num_params()}")
        lines.append(f"  total params: {self.num_params()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(name={self.name!r}, layers={len(self.layers)}, params={self.num_params()})"
