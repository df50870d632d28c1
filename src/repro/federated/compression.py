"""Update compression for communication-efficient federated learning.

Paper Section III-D: "Several techniques have been developed to reduce the
communication overhead of the Federated Learning techniques … especially
useful when Federated Learning is used in wireless sensor nodes as network
communication is expensive in terms of energy consumption."

Implemented compressors (all operate on a flat update vector):

* :class:`NoCompression` — baseline.
* :class:`TopKSparsifier` — keep the k largest-magnitude coordinates.
* :class:`SignSGDCompressor` — 1-bit sign compression with a global scale.
* :class:`TernaryCompressor` — {-1, 0, +1} codes with a learned scale
  (ternary compression, ref [40]).
* :class:`QuantizedCompressor` — uniform b-bit quantization of the update.

Each compressor reports the compressed payload size in bytes so experiments
can trade accuracy against uplink volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "CompressedUpdate",
    "UpdateCompressor",
    "NoCompression",
    "TopKSparsifier",
    "SignSGDCompressor",
    "TernaryCompressor",
    "QuantizedCompressor",
    "get_compressor",
]


@dataclass
class CompressedUpdate:
    """A compressed client update plus the metadata needed to decode it."""

    kind: str
    payload: Dict[str, np.ndarray]
    original_dim: int
    nbytes: int


class UpdateCompressor:
    """Base interface: ``compress`` a flat vector, ``decompress`` it back."""

    name = "base"

    def compress(self, update: np.ndarray) -> CompressedUpdate:
        raise NotImplementedError

    def decompress(self, compressed: CompressedUpdate) -> np.ndarray:
        raise NotImplementedError

    def roundtrip(self, update: np.ndarray) -> Tuple[np.ndarray, CompressedUpdate]:
        """Compress then decompress (what the server effectively receives)."""
        compressed = self.compress(np.asarray(update, dtype=np.float64))
        return self.decompress(compressed), compressed

    @staticmethod
    def _as_stack(updates: np.ndarray) -> np.ndarray:
        updates = np.asarray(updates, dtype=np.float64)
        if updates.ndim != 2:
            raise ValueError(f"expected a (clients, dim) stack, got shape {updates.shape}")
        return updates

    def roundtrip_batch(self, updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Round-trip a stack of updates ``(clients, dim)`` in one call.

        Returns ``(decompressed, nbytes)`` where ``decompressed`` has the
        input's shape and ``nbytes[i]`` is the payload size the per-vector
        :meth:`compress` would report for row ``i``.  The base implementation
        loops over rows; the built-in compressors override it with fully
        vectorized versions that produce bit-identical results.
        """
        updates = self._as_stack(updates)
        decompressed = np.empty_like(updates)
        nbytes = np.empty(updates.shape[0], dtype=np.int64)
        for i, row in enumerate(updates):
            decoded, compressed = self.roundtrip(row)
            decompressed[i] = decoded
            nbytes[i] = compressed.nbytes
        return decompressed, nbytes


class NoCompression(UpdateCompressor):
    """Dense float32 transmission (the baseline)."""

    name = "none"

    def compress(self, update: np.ndarray) -> CompressedUpdate:
        update = np.asarray(update, dtype=np.float64)
        return CompressedUpdate(
            kind=self.name,
            payload={"values": update.astype(np.float32)},
            original_dim=update.size,
            nbytes=update.size * 4,
        )

    def decompress(self, compressed: CompressedUpdate) -> np.ndarray:
        return compressed.payload["values"].astype(np.float64)

    def roundtrip_batch(self, updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        updates = self._as_stack(updates)
        decompressed = updates.astype(np.float32).astype(np.float64)
        return decompressed, np.full(updates.shape[0], updates.shape[1] * 4, dtype=np.int64)


class TopKSparsifier(UpdateCompressor):
    """Keep only the ``k`` largest-magnitude coordinates of the update."""

    name = "topk"

    def __init__(self, fraction: float = 0.1) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = float(fraction)

    def compress(self, update: np.ndarray) -> CompressedUpdate:
        update = np.asarray(update, dtype=np.float64)
        k = max(1, int(np.ceil(self.fraction * update.size)))
        idx = np.argpartition(np.abs(update), -k)[-k:]
        values = update[idx]
        # 4 bytes per index (uint32) + 4 bytes per float32 value.
        nbytes = k * 8
        return CompressedUpdate(
            kind=self.name,
            payload={"indices": idx.astype(np.uint32), "values": values.astype(np.float32)},
            original_dim=update.size,
            nbytes=nbytes,
        )

    def decompress(self, compressed: CompressedUpdate) -> np.ndarray:
        out = np.zeros(compressed.original_dim, dtype=np.float64)
        out[compressed.payload["indices"].astype(np.int64)] = compressed.payload["values"].astype(np.float64)
        return out

    def roundtrip_batch(self, updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        updates = self._as_stack(updates)
        n, dim = updates.shape
        k = max(1, int(np.ceil(self.fraction * dim)))
        idx = np.argpartition(np.abs(updates), -k, axis=1)[:, -k:]
        rows = np.arange(n)[:, None]
        decompressed = np.zeros_like(updates)
        decompressed[rows, idx] = updates[rows, idx].astype(np.float32).astype(np.float64)
        return decompressed, np.full(n, k * 8, dtype=np.int64)


class SignSGDCompressor(UpdateCompressor):
    """1-bit sign compression with an L1-preserving global scale."""

    name = "signsgd"

    def compress(self, update: np.ndarray) -> CompressedUpdate:
        update = np.asarray(update, dtype=np.float64)
        scale = float(np.mean(np.abs(update))) if update.size else 0.0
        signs = np.signbit(update)  # True for negative
        nbytes = int(np.ceil(update.size / 8)) + 4
        return CompressedUpdate(
            kind=self.name,
            payload={"signs": np.packbits(signs), "scale": np.array([scale], dtype=np.float32)},
            original_dim=update.size,
            nbytes=nbytes,
        )

    def decompress(self, compressed: CompressedUpdate) -> np.ndarray:
        signs = np.unpackbits(compressed.payload["signs"], count=compressed.original_dim).astype(bool)
        scale = float(compressed.payload["scale"][0])
        return np.where(signs, -scale, scale)

    def roundtrip_batch(self, updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        updates = self._as_stack(updates)
        n, dim = updates.shape
        if dim == 0:
            return np.zeros_like(updates), np.full(n, 4, dtype=np.int64)
        scale = np.abs(updates).mean(axis=1).astype(np.float32).astype(np.float64)[:, None]
        decompressed = np.where(np.signbit(updates), -scale, scale)
        return decompressed, np.full(n, int(np.ceil(dim / 8)) + 4, dtype=np.int64)


class TernaryCompressor(UpdateCompressor):
    """Ternary {-1, 0, +1} compression with threshold and optimal scale."""

    name = "ternary"

    def __init__(self, threshold_factor: float = 0.7) -> None:
        self.threshold_factor = float(threshold_factor)

    def compress(self, update: np.ndarray) -> CompressedUpdate:
        update = np.asarray(update, dtype=np.float64)
        if update.size == 0:
            return CompressedUpdate(self.name, {"codes": np.zeros(0, np.uint8), "scale": np.zeros(1, np.float32)}, 0, 4)
        threshold = self.threshold_factor * float(np.mean(np.abs(update)))
        codes = np.zeros(update.shape, dtype=np.int8)
        codes[update > threshold] = 1
        codes[update < -threshold] = -1
        nonzero = update[codes != 0]
        scale = float(np.mean(np.abs(nonzero))) if nonzero.size else 0.0
        # 2 bits/coordinate packed: store as uint8 codes (0,1,2) then packbits of 2-bit pairs ~ size/4.
        nbytes = int(np.ceil(update.size / 4)) + 4
        return CompressedUpdate(
            kind=self.name,
            payload={"codes": (codes + 1).astype(np.uint8), "scale": np.array([scale], dtype=np.float32)},
            original_dim=update.size,
            nbytes=nbytes,
        )

    def decompress(self, compressed: CompressedUpdate) -> np.ndarray:
        codes = compressed.payload["codes"].astype(np.int64) - 1
        scale = float(compressed.payload["scale"][0])
        return codes.astype(np.float64) * scale

    def roundtrip_batch(self, updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        updates = self._as_stack(updates)
        n, dim = updates.shape
        if dim == 0:
            return np.zeros_like(updates), np.full(n, 4, dtype=np.int64)
        magnitude = np.abs(updates)
        threshold = self.threshold_factor * magnitude.mean(axis=1, keepdims=True)
        codes = np.zeros(updates.shape, dtype=np.float64)
        codes[updates > threshold] = 1.0
        codes[updates < -threshold] = -1.0
        nonzero = codes != 0
        count = nonzero.sum(axis=1)
        total = np.where(nonzero, magnitude, 0.0).sum(axis=1)
        scale = np.where(count > 0, total / np.maximum(count, 1), 0.0)
        scale = scale.astype(np.float32).astype(np.float64)[:, None]
        return codes * scale, np.full(n, int(np.ceil(dim / 4)) + 4, dtype=np.int64)


class QuantizedCompressor(UpdateCompressor):
    """Uniform b-bit quantization of the update vector."""

    name = "quantized"

    def __init__(self, bits: int = 8) -> None:
        if bits not in (2, 4, 8, 16):
            raise ValueError("bits must be one of 2, 4, 8, 16")
        self.bits = int(bits)

    def compress(self, update: np.ndarray) -> CompressedUpdate:
        update = np.asarray(update, dtype=np.float64)
        lo = float(update.min()) if update.size else 0.0
        hi = float(update.max()) if update.size else 0.0
        qmax = 2**self.bits - 1
        scale = (hi - lo) / qmax if hi > lo else 1.0
        codes = np.clip(np.round((update - lo) / scale), 0, qmax).astype(np.uint16)
        nbytes = int(np.ceil(update.size * self.bits / 8)) + 8
        return CompressedUpdate(
            kind=f"{self.name}{self.bits}",
            payload={"codes": codes, "lo": np.array([lo], np.float32), "scale": np.array([scale], np.float32)},
            original_dim=update.size,
            nbytes=nbytes,
        )

    def decompress(self, compressed: CompressedUpdate) -> np.ndarray:
        codes = compressed.payload["codes"].astype(np.float64)
        lo = float(compressed.payload["lo"][0])
        scale = float(compressed.payload["scale"][0])
        return codes * scale + lo

    def roundtrip_batch(self, updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        updates = self._as_stack(updates)
        n, dim = updates.shape
        if dim == 0:
            return np.zeros_like(updates), np.full(n, 8, dtype=np.int64)
        lo = updates.min(axis=1, keepdims=True)
        hi = updates.max(axis=1, keepdims=True)
        qmax = 2**self.bits - 1
        scale = np.where(hi > lo, (hi - lo) / qmax, 1.0)
        codes = np.clip(np.round((updates - lo) / scale), 0, qmax)
        # Decode with the float32-cast lo/scale the payload would carry.
        lo32 = lo.astype(np.float32).astype(np.float64)
        scale32 = scale.astype(np.float32).astype(np.float64)
        nbytes = np.full(n, int(np.ceil(dim * self.bits / 8)) + 8, dtype=np.int64)
        return codes * scale32 + lo32, nbytes


def get_compressor(name: str, **kwargs) -> UpdateCompressor:
    """Factory: ``none``, ``topk``, ``signsgd``, ``ternary``, ``quantized``."""
    key = str(name).lower()
    if key == "none":
        return NoCompression()
    if key == "topk":
        return TopKSparsifier(**kwargs)
    if key == "signsgd":
        return SignSGDCompressor()
    if key == "ternary":
        return TernaryCompressor(**kwargs)
    if key == "quantized":
        return QuantizedCompressor(**kwargs)
    raise KeyError(f"unknown compressor {name!r}")
