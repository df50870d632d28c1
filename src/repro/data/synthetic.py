"""Synthetic dataset generators standing in for real TinyML workloads.

The paper motivates edge deployment with vision, audio and sensor use cases
(smart appliances, virtual assistants, predictive maintenance).  Real data
for those is proprietary or simply unavailable offline, so each generator
here produces a controllable synthetic analogue that exercises the same code
paths: multi-class classification with class structure, image-like tensors,
spectrogram-like tensors and multivariate sensor streams with anomalies.

All generators take an explicit ``seed`` and return ``float64`` features with
integer labels, ready for :class:`repro.nn.Sequential`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "Dataset",
    "make_gaussian_blobs",
    "make_synthetic_digits",
    "make_keyword_spectrograms",
    "make_sensor_windows",
    "train_test_split",
]


@dataclass
class Dataset:
    """A simple (features, labels) container with train/test split helpers."""

    x: np.ndarray
    y: np.ndarray
    name: str = "dataset"
    num_classes: int = 0

    def __post_init__(self) -> None:
        if self.num_classes == 0 and self.y.size and np.issubdtype(self.y.dtype, np.integer):
            self.num_classes = int(self.y.max()) + 1

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def split(self, test_fraction: float = 0.25, seed: int = 0) -> Tuple["Dataset", "Dataset"]:
        """Shuffle and split into (train, test) datasets."""
        (x_tr, y_tr), (x_te, y_te) = train_test_split(self.x, self.y, test_fraction, seed)
        return (
            Dataset(x_tr, y_tr, name=f"{self.name}-train", num_classes=self.num_classes),
            Dataset(x_te, y_te, name=f"{self.name}-test", num_classes=self.num_classes),
        )


def train_test_split(
    x: np.ndarray, y: np.ndarray, test_fraction: float = 0.25, seed: int = 0
) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Shuffle and split arrays into train/test partitions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    idx = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx, train_idx = idx[:n_test], idx[n_test:]
    return (x[train_idx], y[train_idx]), (x[test_idx], y[test_idx])


def make_gaussian_blobs(
    n_samples: int = 1000,
    n_features: int = 16,
    n_classes: int = 4,
    cluster_std: float = 1.0,
    center_spread: float = 4.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian clusters: the generic classification workload.

    Class centres are drawn uniformly in a hypercube of half-width
    ``center_spread``; samples are isotropic Gaussians around their centre.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-center_spread, center_spread, size=(n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n_samples)
    x = centers[labels] + rng.normal(0.0, cluster_std, size=(n_samples, n_features))
    return Dataset(x, labels.astype(np.int64), name="gaussian_blobs", num_classes=n_classes)


def _digit_templates(size: int) -> np.ndarray:
    """Procedural stroke templates for digits 0-9 on a ``size x size`` grid."""
    grid = np.zeros((10, size, size), dtype=np.float64)
    yy, xx = np.mgrid[0:size, 0:size]
    cx = cy = (size - 1) / 2.0
    r_outer = size * 0.38
    ring = np.abs(np.hypot(xx - cx, yy - cy) - r_outer) < size * 0.09
    vline = np.abs(xx - cx) < size * 0.08
    hline_mid = np.abs(yy - cy) < size * 0.08
    hline_top = np.abs(yy - size * 0.15) < size * 0.08
    hline_bot = np.abs(yy - size * 0.85) < size * 0.08
    diag = np.abs((xx - cx) + (yy - cy)) < size * 0.1
    anti = np.abs((xx - cx) - (yy - cy)) < size * 0.1
    left = xx < cx
    right = ~left
    top = yy < cy
    bottom = ~top

    grid[0][ring] = 1.0
    grid[1][vline] = 1.0
    grid[2][hline_top | hline_bot | anti] = 1.0
    grid[3][hline_top | hline_mid | hline_bot] = 1.0
    grid[3][ring & right] = 1.0
    grid[4][vline & bottom] = 1.0
    grid[4][hline_mid] = 1.0
    grid[4][(np.abs(xx - size * 0.25) < size * 0.08) & top] = 1.0
    grid[5][hline_top | hline_mid] = 1.0
    grid[5][(np.abs(xx - size * 0.25) < size * 0.08) & top] = 1.0
    grid[5][ring & bottom & right] = 1.0
    grid[6][ring & bottom] = 1.0
    grid[6][(np.abs(xx - size * 0.25) < size * 0.08)] = 1.0
    grid[7][hline_top | anti] = 1.0
    grid[8][ring | hline_mid] = 1.0
    grid[9][ring & top] = 1.0
    grid[9][(np.abs(xx - size * 0.75) < size * 0.08)] = 1.0
    return grid


def make_synthetic_digits(
    n_samples: int = 2000,
    image_size: int = 12,
    noise: float = 0.25,
    num_classes: int = 10,
    seed: int = 0,
    flat: bool = False,
) -> Dataset:
    """Procedurally drawn digit-like images (the MNIST stand-in).

    Each sample is a noisy, randomly shifted copy of one of ten stroke
    templates.  ``flat=True`` returns flattened feature vectors for MLPs;
    otherwise NHWC tensors of shape ``(n, size, size, 1)``.
    """
    if not 2 <= num_classes <= 10:
        raise ValueError("num_classes must be between 2 and 10")
    rng = np.random.default_rng(seed)
    templates = _digit_templates(image_size)[:num_classes]
    labels = rng.integers(0, num_classes, size=n_samples)
    images = templates[labels].copy()
    # Random small translations via np.roll per sample (vectorized per shift value).
    shifts_x = rng.integers(-1, 2, size=n_samples)
    shifts_y = rng.integers(-1, 2, size=n_samples)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            mask = (shifts_y == dy) & (shifts_x == dx)
            if not np.any(mask) or (dx == 0 and dy == 0):
                continue
            images[mask] = np.roll(images[mask], shift=(dy, dx), axis=(1, 2))
    images += rng.normal(0.0, noise, size=images.shape)
    images = np.clip(images, 0.0, 1.5)
    if flat:
        x = images.reshape(n_samples, -1)
    else:
        x = images[..., None]
    return Dataset(x, labels.astype(np.int64), name="synthetic_digits", num_classes=num_classes)


def make_keyword_spectrograms(
    n_samples: int = 1500,
    n_mels: int = 16,
    n_frames: int = 16,
    num_keywords: int = 4,
    noise: float = 0.3,
    seed: int = 0,
) -> Dataset:
    """Keyword-spotting-like spectrograms (the audio wake-word stand-in).

    Each keyword class is a distinct time-frequency energy pattern (a chirp
    with class-specific slope and centre frequency) plus background noise.
    Output tensors are NHWC with a single channel.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_keywords, size=n_samples)
    t = np.linspace(0.0, 1.0, n_frames)
    f = np.linspace(0.0, 1.0, n_mels)
    tt, ff = np.meshgrid(t, f)  # (n_mels, n_frames)
    specs = np.empty((n_samples, n_mels, n_frames), dtype=np.float64)
    for k in range(num_keywords):
        slope = (k + 1) / num_keywords * 0.8
        center = 0.2 + 0.6 * k / max(1, num_keywords - 1)
        track = center + slope * (tt - 0.5)
        pattern = np.exp(-((ff - track) ** 2) / (2 * 0.02))
        idx = labels == k
        amp = rng.uniform(0.7, 1.3, size=(int(idx.sum()), 1, 1))
        specs[idx] = pattern[None, :, :] * amp
    specs += rng.normal(0.0, noise, size=specs.shape) ** 2
    return Dataset(specs[..., None], labels.astype(np.int64), name="keyword_spectrograms", num_classes=num_keywords)


def make_sensor_windows(
    n_samples: int = 2000,
    window: int = 32,
    n_channels: int = 3,
    anomaly_fraction: float = 0.05,
    machine_signature: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Vibration-sensor windows for predictive-maintenance anomaly detection.

    Normal windows are sums of two sinusoids plus noise; anomalous windows
    add a high-frequency burst.  ``machine_signature`` shifts the base
    frequencies, modelling per-machine characteristics that personalization
    (paper Section III-D) can exploit.  Features are flattened windows;
    labels are 0 (normal) / 1 (anomaly).
    """
    rng = np.random.default_rng(seed)
    t = np.arange(window) / window
    base_f1 = 3.0 + machine_signature
    base_f2 = 7.0 + 0.5 * machine_signature
    labels = (rng.random(n_samples) < anomaly_fraction).astype(np.int64)
    phases = rng.uniform(0, 2 * np.pi, size=(n_samples, n_channels, 1))
    amp = rng.uniform(0.8, 1.2, size=(n_samples, n_channels, 1))
    signal = amp * np.sin(2 * np.pi * base_f1 * t[None, None, :] + phases)
    signal += 0.5 * amp * np.sin(2 * np.pi * base_f2 * t[None, None, :] + phases * 0.7)
    signal += rng.normal(0.0, 0.1, size=signal.shape)
    burst = np.sin(2 * np.pi * 15.0 * t)[None, None, :] * (t > 0.5)[None, None, :]
    signal[labels == 1] += 0.9 * burst
    x = signal.reshape(n_samples, -1)
    return Dataset(x, labels, name="sensor_windows", num_classes=2)
