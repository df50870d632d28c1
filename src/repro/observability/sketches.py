"""Mergeable streaming sketches for on-device statistics.

Paper Section III-B: "We could record some basic statistics on the data
locally and share these with the cloud in an anonymized way."  Devices have
kilobytes of RAM, so raw data cannot be buffered; instead each device keeps
small mergeable summaries that the backend can combine across the fleet:

* :class:`RunningMoments`  — count/mean/variance via Welford, mergeable.
* :class:`ReservoirSample` — fixed-size uniform sample of a stream.
* :class:`CountMinSketch`  — approximate frequency counts.
* :class:`P2Quantile`      — the P² single-pass quantile estimator.

Per-observation state (the P² markers, the moment triples) is plain Python
scalars: NumPy's per-call overhead on 5-element arrays cost more than the
arithmetic.  Arrays stay where a call covers a whole batch.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

import numpy as np

__all__ = [
    "RunningMoments",
    "ReservoirSample",
    "CountMinSketch",
    "P2Quantile",
]


class RunningMoments:
    """Streaming count / mean / variance (Welford), mergeable across devices."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, values: Iterable[float] | np.ndarray) -> None:
        """Add one value or an array of values.

        Multi-value inputs delegate to the O(1) batch merge instead of the
        scalar Welford recurrence; single values keep the scalar update (the
        two agree to float tolerance, and the batch path is what every bulk
        caller hits).
        """
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel()
        if arr.size > 1:
            self.update_batch(arr)
            return
        for x in arr:
            self.count += 1
            delta = x - self.mean
            self.mean += delta / self.count
            self._m2 += delta * (x - self.mean)

    def update_batch(self, values: np.ndarray) -> None:
        """Vectorized bulk update (merges the batch's moments in O(1))."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        mean = float(arr.mean())
        self.merge_stats(int(arr.size), mean, float(((arr - mean) ** 2).sum()))

    @property
    def variance(self) -> float:
        """Population variance of everything seen so far."""
        return self._m2 / self.count if self.count > 0 else 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """In-place merge of another device's moments (parallel Welford)."""
        return self.merge_stats(other.count, other.mean, other._m2)

    def merge_stats(self, count: int, mean: float, m2: float) -> "RunningMoments":
        """Merge a ``(count, mean, sum of squared deviations)`` triple in place.

        The one merge formula, for :meth:`merge`, :meth:`update_batch` and
        callers that already hold a batch's statistics.
        """
        if count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self._m2 = count, mean, m2
            return self
        total = self.count + count
        delta = mean - self.mean
        self._m2 = self._m2 + m2 + delta * delta * self.count * count / total
        self.mean = (self.mean * self.count + mean * count) / total
        self.count = total
        return self

    def as_dict(self) -> Dict[str, float]:
        return {"count": float(self.count), "mean": self.mean, "variance": self.variance}


class ReservoirSample:
    """Uniform random sample of a stream with bounded memory.

    :meth:`update` is the classic per-item Algorithm R; :meth:`offer_batch`
    is the bulk path: Li's geometric-skip Algorithm L jumps straight to the
    next accepted stream position, so a batch of ``n`` values costs
    ``O(capacity * log(n / capacity))`` RNG draws instead of ``n`` — the
    per-item loop disappears from fleet-scale telemetry sweeps.
    """

    def __init__(self, capacity: int = 256, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.seen = 0
        self._rng = np.random.default_rng(seed)
        self._buffer: List[float] = []
        # Algorithm L skip state: _w is Li's running W, _next the global
        # 0-based stream index of the next accepted item.  Reset to None by
        # scalar updates (the two algorithms keep separate acceptance state).
        self._w: Optional[float] = None
        self._next: Optional[int] = None

    def update(self, values: Iterable[float] | np.ndarray) -> None:
        """Offer values to the reservoir one at a time (Algorithm R)."""
        self._w = self._next = None
        for x in np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel():
            self.seen += 1
            if len(self._buffer) < self.capacity:
                self._buffer.append(float(x))
            else:
                j = int(self._rng.integers(0, self.seen))
                if j < self.capacity:
                    self._buffer[j] = float(x)

    def _advance_skip(self) -> None:
        """Draw the gap to the next accepted stream index from current W.

        ``log(U)`` for uniform ``U`` is drawn as ``-Exponential(1)``, which
        cannot produce ``log(0)``.
        """
        self._next += int(-self._rng.exponential() // np.log1p(-self._w)) + 1

    def offer_batch(self, values: Iterable[float] | np.ndarray) -> None:
        """Offer a whole array via geometric skips (Algorithm L)."""
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel()
        pos = 0
        if len(self._buffer) < self.capacity:
            take = min(self.capacity - len(self._buffer), arr.size)
            self._buffer.extend(arr[:take].tolist())
            self.seen += take
            pos = take
            if pos >= arr.size:
                return
        if self._w is None:
            # (Re)initialize W for a stream that is already `seen` items in:
            # W — the current acceptance probability, i.e. the k-th smallest
            # priority among everything seen — is the k-th order statistic
            # of `seen` uniforms, Beta(k, seen - k + 1).  At seen == k this
            # is Beta(k, 1) = U^(1/k), Algorithm L's fill-time init, and for
            # larger `seen` (scalar updates ran in between) it keeps the
            # sample uniform instead of letting the next batch evict the
            # entire earlier stream.
            w = float(self._rng.beta(self.capacity, self.seen - self.capacity + 1))
            self._w = min(max(w, 5e-324), 1.0 - 1e-16)
            self._next = self.seen - 1
            self._advance_skip()
        n_rest = arr.size - pos
        while self._next < self.seen + n_rest:
            self._buffer[int(self._rng.integers(0, self.capacity))] = float(
                arr[pos + (self._next - self.seen)]
            )
            self._w = max(self._w * float(np.exp(-self._rng.exponential() / self.capacity)), 5e-324)
            self._advance_skip()
        self.seen += n_rest

    def values(self) -> np.ndarray:
        """Current sample as an array."""
        return np.array(self._buffer, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._buffer)


class CountMinSketch:
    """Approximate frequency counting with sub-linear memory.

    Used to track categorical statistics (predicted class counts, error
    codes) on-device; sketches from many devices merge by element-wise
    addition as long as they share ``(width, depth, seed)``.

    Integer items (the common case: predicted-class ids) hash through a
    vectorized splitmix64 mix so :meth:`add_batch` ingests whole prediction
    arrays with a handful of NumPy calls; arbitrary objects keep the
    blake2b path.  Both :meth:`add` and :meth:`estimate` use the same
    per-type hash, so scalar and batch ingestion agree exactly.
    """

    def __init__(self, width: int = 64, depth: int = 4, seed: int = 0) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    def _int_indices(self, items: np.ndarray) -> np.ndarray:
        """splitmix64-mixed table columns for integer items, shape (depth, n)."""
        x = items.astype(np.uint64)
        idx = np.empty((self.depth, x.size), dtype=np.int64)
        for d in range(self.depth):
            z = x + np.uint64(((self.seed + d + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
            idx[d] = (z % np.uint64(self.width)).astype(np.int64)
        return idx

    def _indices(self, item: object) -> np.ndarray:
        # Integers take the vectorized hash so scalar add()/estimate() agree
        # with add_batch(); bools (a subclass of int, hashed distinctly from
        # 0/1 before this fast path existed) and ints outside the uint64
        # wrap range keep the arbitrary-object blake2b path.
        if isinstance(item, (int, np.integer)) and not isinstance(item, (bool, np.bool_)):
            value = int(item)
            if -(2 ** 63) <= value < 2 ** 64:
                return self._int_indices(np.asarray([value])).ravel()
        key = repr(item).encode()
        idx = np.empty(self.depth, dtype=np.int64)
        for d in range(self.depth):
            h = hashlib.blake2b(key, digest_size=8, salt=str(self.seed + d).encode()[:16]).digest()
            idx[d] = int.from_bytes(h, "little") % self.width
        return idx

    def add(self, item: object, count: int = 1) -> None:
        """Increment the count of ``item``."""
        idx = self._indices(item)
        self.table[np.arange(self.depth), idx] += count
        self.total += count

    def add_batch(self, items: np.ndarray, counts: Optional[np.ndarray] = None) -> None:
        """Ingest an integer array (e.g. a window of predicted classes).

        Equivalent to ``add(item, count)`` per element — same hash indices,
        same table — but the whole batch lands in one fused ``bincount``
        per sketch instead of a Python loop.
        """
        arr = np.atleast_1d(np.asarray(items)).ravel()
        if arr.size == 0:
            return
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError("add_batch vectorizes integer items; use add() for arbitrary objects")
        if counts is None:
            counts = np.ones(arr.size, dtype=np.int64)
        else:
            counts = np.atleast_1d(np.asarray(counts, dtype=np.int64)).ravel()
            if counts.shape != arr.shape:
                raise ValueError("counts must match items in shape")
        idx = self._int_indices(arr)
        flat = idx + (np.arange(self.depth, dtype=np.int64) * self.width)[:, None]
        delta = np.bincount(
            flat.ravel(),
            weights=np.broadcast_to(counts, (self.depth, arr.size)).ravel(),
            minlength=self.depth * self.width,
        )
        self.table += delta.astype(np.int64).reshape(self.depth, self.width)
        self.total += int(counts.sum())

    def estimate(self, item: object) -> int:
        """Point estimate (upper-biased) of an item's count."""
        idx = self._indices(item)
        return int(self.table[np.arange(self.depth), idx].min())

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Element-wise merge; sketches must share dimensions and seed."""
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise ValueError("cannot merge sketches with different parameters")
        self.table += other.table
        self.total += other.total
        return self


class P2Quantile:
    """P² single-pass quantile estimator (Jain & Chlamtac, 1985).

    Tracks one quantile (e.g. the p95 latency) using five markers — constant
    memory, no buffering, exactly what an MCU telemetry agent needs.

    Marker heights, positions and desired positions are lists of Python
    floats, not ndarrays: ~0.9 µs per observation instead of ~6.5 µs (57 % of
    a monitored serving window in e0; ``test_e4_sketch_update_cost`` tracks
    both).  Expressions and evaluation order are the textbook ndarray
    formulation's, so markers are bit-identical to it — NaN, ±inf and overflow
    behaviour included, pinned by the property test against that formulation
    in ``tests/observability/test_sketch_kernels.py``.
    """

    def __init__(self, quantile: float = 0.95) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = float(quantile)
        self._initial: List[float] = []
        self._n: Optional[List[float]] = None
        self._ns: Optional[List[float]] = None
        self._heights: Optional[List[float]] = None

    def update(self, values: Iterable[float] | np.ndarray) -> None:
        """Feed one or more observations."""
        q = self.q
        # Increments of the desired positions ns[1..3]; ns[4] moves by one.
        dns1, dns2, dns3 = q / 2, q, (1 + q) / 2
        h, n, ns = self._heights, self._n, self._ns
        for x in np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel().tolist():
            if h is None:
                self._initial.append(x)
                if len(self._initial) == 5:
                    h = self._heights = sorted(self._initial)
                    n = self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                    ns = self._ns = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
                continue
            # Cell k = searchsorted(h, x, "right") - 1, unrolled over 5 markers.
            if x < h[0]:
                h[0] = x
                k = 0
            elif x >= h[4]:
                h[4] = x
                k = 3
            elif _nan_last_less(x, h[2]):
                k = 0 if _nan_last_less(x, h[1]) else 1
            elif _nan_last_less(x, h[4]):
                k = 2 if _nan_last_less(x, h[3]) else 3
            else:
                k = 3
            if k < 1:
                n[1] += 1.0
            if k < 2:
                n[2] += 1.0
            if k < 3:
                n[3] += 1.0
            n[4] += 1.0
            ns[1] += dns1
            ns[2] += dns2
            ns[3] += dns3
            ns[4] += 1.0
            for i in (1, 2, 3):
                ni = n[i]
                d = ns[i] - ni
                if (d >= 1 and n[i + 1] - ni > 1) or (d <= -1 and n[i - 1] - ni < -1):
                    sign = 1.0 if d >= 1 else -1.0
                    nl, nr = n[i - 1], n[i + 1]
                    hl, hi, hr = h[i - 1], h[i], h[i + 1]
                    # Parabolic prediction, falling back to linear when non-monotone.
                    hp = hi + sign / (nr - nl) * (
                        (ni - nl + sign) * (hr - hi) / (nr - ni)
                        + (nr - ni - sign) * (hi - hl) / (ni - nl)
                    )
                    if hl < hp < hr:
                        h[i] = hp
                    elif d >= 1:
                        h[i] = hi + sign * (hr - hi) / (nr - ni)
                    else:
                        h[i] = hi + sign * (hl - hi) / (nl - ni)
                    n[i] = ni + sign

    @property
    def value(self) -> float:
        """Current quantile estimate."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return float("nan")
        return float(np.quantile(np.array(self._initial), self.q))

    @property
    def count(self) -> int:
        if self._n is None:
            return len(self._initial)
        return int(self._n[4])


def _nan_last_less(x: float, marker: float) -> bool:
    """``x < marker`` as ``np.searchsorted`` orders floats: NaN sorts last.

    ``bisect_right`` disagrees once a marker is NaN (inf - inf in P²).
    """
    return x < marker or (marker != marker and x == x)
