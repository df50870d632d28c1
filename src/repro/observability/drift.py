"""Drift detection: distribution-distance tests between reference and live data.

The core of the observability block of Figure 1: each deployed model ships
with a reference window (statistics of its training/validation inputs); the
on-device monitor compares the live input distribution against it and raises
a drift signal when the distance exceeds a threshold.  Detectors:

* :func:`ks_statistic` / :class:`KSDetector` — Kolmogorov–Smirnov two-sample.
* :func:`population_stability_index` / :class:`PSIDetector` — the PSI score
  common in industry monitoring.  Note: with small on-device windows the
  per-feature maximum PSI is noisy, so the default streaming threshold is
  raised to 1.0 (large-sample monitoring typically uses 0.2).
* :func:`jensen_shannon_divergence` / :class:`JSDetector` — histogram-based.
* :func:`mmd_rbf` / :class:`MMDDetector` — kernel maximum mean discrepancy
  for multivariate features.
* :class:`PredictionDistributionMonitor` — drift in the model's *output*
  distribution (no labels needed).

Two scoring paths produce the same statistics:

* The **per-column oracle** (:meth:`StreamingDriftDetector._per_feature_max`)
  runs one :func:`ks_statistic` / :func:`population_stability_index` /
  :func:`jensen_shannon_divergence` call per feature column — one pooled
  ECDF difference (``scipy.stats.ks_2samp``'s construction in NumPy; its
  identity with scipy is tested in ``tests/observability/test_ks_kernel.py``)
  and two ``np.histogram`` calls per column.
* The **batched path** (:func:`ks_statistic_columns`,
  :func:`population_stability_index_columns`,
  :func:`jensen_shannon_divergence_columns`) scores *all* columns — across
  features, and across every device of a fleet sharing the reference — in a
  handful of vectorized NumPy calls, with statistics bit-identical to the
  oracle (the differential suite in ``tests/observability`` asserts exact
  equality).  Detectors default to the batched path; construct them with
  ``engine="oracle"`` (the unified toggle of :mod:`repro.dispatch`) to keep
  the oracle in the hot loop (benchmarks use this as the baseline).

Every detector holds its reference as a :class:`ReferenceBlock`: one
read-only array (and its column-sorted copy) per distinct reference, shared
by every detector, deep copy and unpickled copy built from equal bytes.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dispatch import ENGINE_BATCHED, resolve_engine

__all__ = [
    "ks_statistic",
    "population_stability_index",
    "jensen_shannon_divergence",
    "mmd_rbf",
    "ks_statistic_columns",
    "fused_histogram_counts",
    "population_stability_index_columns",
    "jensen_shannon_divergence_columns",
    "prediction_js_columns",
    "ReferenceBlock",
    "DriftResult",
    "StreamingDriftDetector",
    "KSDetector",
    "PSIDetector",
    "JSDetector",
    "MMDDetector",
    "PredictionDistributionMonitor",
]


# ---------------------------------------------------------------------------
# distance functions
# ---------------------------------------------------------------------------

def ks_statistic(reference: np.ndarray, live: np.ndarray) -> Tuple[float, float]:
    """Two-sample KS statistic and asymptotic p-value on 1-D samples.

    ``scipy.stats.ks_2samp``'s statistic, bytes included, built its way: over
    the pooled sorted samples, ``diff = searchsorted(ref, pooled, "right") / n
    - searchsorted(live, pooled, "right") / m`` and ``D = max(-min(diff),
    max(diff))``, ties going to ``max(diff)``.  A NaN in either sample gives
    ``(nan, nan)`` (scipy's ``nan_policy="propagate"``), an empty one ``(0.0,
    1.0)``.  The p-value is the Kolmogorov series at ``λ = D·sqrt(nm/(n+m))``.
    """
    ref = np.sort(np.asarray(reference, dtype=np.float64).ravel())
    cur = np.sort(np.asarray(live, dtype=np.float64).ravel())
    n, m = ref.size, cur.size
    if n == 0 or m == 0:
        return 0.0, 1.0
    if np.isnan(ref[-1]) or np.isnan(cur[-1]):  # np.sort puts NaNs last
        return float("nan"), float("nan")
    pooled = np.concatenate([ref, cur])
    diff = np.searchsorted(ref, pooled, side="right") / n - np.searchsorted(cur, pooled, side="right") / m
    max_s, min_s = float(diff.max()), -float(diff.min())
    d = min_s if min_s > max_s else max_s
    return d, _kolmogorov_pvalue(d * np.sqrt(n * m / (n + m)))


def _kolmogorov_pvalue(lam: float) -> float:
    """The Kolmogorov survival function ``2 Σ_{k≥1} (−1)^{k−1} exp(−2k²λ²)``,
    summed over ``k < 4.5/λ + 1`` (later terms are < 3e-18).  It is 1.0 in double
    precision below ``λ = 0.17``, where the series would need ever more terms."""
    if lam < 0.17:
        return 1.0
    terms = np.exp(-2.0 * (np.arange(1.0, 4.5 / lam + 1.0) * lam) ** 2)
    return min(2.0 * float(terms[0::2].sum() - terms[1::2].sum()), 1.0)


def _histogram_pair(reference: np.ndarray, live: np.ndarray, bins: int) -> Tuple[np.ndarray, np.ndarray]:
    ref = np.asarray(reference, dtype=np.float64).ravel()
    cur = np.asarray(live, dtype=np.float64).ravel()
    lo = min(ref.min(), cur.min())
    hi = max(ref.max(), cur.max())
    if hi <= lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, bins + 1)
    p, _ = np.histogram(ref, bins=edges)
    q, _ = np.histogram(cur, bins=edges)
    return p.astype(np.float64), q.astype(np.float64)


def population_stability_index(reference: np.ndarray, live: np.ndarray, bins: int = 10, eps: float = 1e-4) -> float:
    """PSI between two 1-D samples. Rule of thumb: >0.2 indicates major shift."""
    p, q = _histogram_pair(reference, live, bins)
    p = np.clip(p / max(p.sum(), 1.0), eps, None)
    q = np.clip(q / max(q.sum(), 1.0), eps, None)
    p /= p.sum()
    q /= q.sum()
    return float(np.sum((q - p) * np.log(q / p)))


def jensen_shannon_divergence(reference: np.ndarray, live: np.ndarray, bins: int = 32, eps: float = 1e-12) -> float:
    """Jensen–Shannon divergence (base 2, in [0, 1]) between histogram densities."""
    p, q = _histogram_pair(reference, live, bins)
    p = p / max(p.sum(), 1.0) + eps
    q = q / max(q.sum(), 1.0) + eps
    p /= p.sum()
    q /= q.sum()
    m = 0.5 * (p + q)
    kl_pm = np.sum(p * np.log2(p / m))
    kl_qm = np.sum(q * np.log2(q / m))
    return float(0.5 * kl_pm + 0.5 * kl_qm)


def mmd_rbf(reference: np.ndarray, live: np.ndarray, gamma: Optional[float] = None, max_samples: int = 512, seed: int = 0) -> float:
    """Unbiased-ish squared MMD with an RBF kernel on multivariate samples.

    Subsamples both sets to ``max_samples`` to bound the quadratic cost on
    device-sized windows; ``gamma`` defaults to the median heuristic.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(reference, dtype=np.float64)
    y = np.asarray(live, dtype=np.float64)
    x = x.reshape(x.shape[0], -1)
    y = y.reshape(y.shape[0], -1)
    if x.shape[0] > max_samples:
        x = x[rng.choice(x.shape[0], max_samples, replace=False)]
    if y.shape[0] > max_samples:
        y = y[rng.choice(y.shape[0], max_samples, replace=False)]
    if x.shape[0] < 2 or y.shape[0] < 2:
        return 0.0

    def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        aa = np.sum(a * a, axis=1)[:, None]
        bb = np.sum(b * b, axis=1)[None, :]
        return np.maximum(aa + bb - 2.0 * a @ b.T, 0.0)

    dxy = sq_dists(x, y)
    if gamma is None:
        med = float(np.median(dxy))
        gamma = 1.0 / max(med, 1e-12)
    kxx = np.exp(-gamma * sq_dists(x, x))
    kyy = np.exp(-gamma * sq_dists(y, y))
    kxy = np.exp(-gamma * dxy)
    n, m = x.shape[0], y.shape[0]
    term_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    return float(term_x + term_y - 2.0 * kxy.mean())


# ---------------------------------------------------------------------------
# vectorized multi-column scoring (the fleet observability hot path)
# ---------------------------------------------------------------------------

def ks_statistic_columns(reference_sorted: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Two-sample KS statistics for every column in one vectorized pass.

    ``reference_sorted`` is the column-sorted reference ``(n_ref, d)``;
    ``live`` is ``(n_live, C)`` where ``C`` is a multiple of ``d`` — column
    ``c`` of ``live`` is scored against reference column ``c % d``, so a
    fleet of ``g`` devices sharing one reference stacks its windows
    side-by-side into ``C = g * d`` columns and pays the reference-lookup
    cost once per *feature*, not once per (device, feature).

    Bit-identical to the oracle :func:`ks_statistic` (and so to
    ``scipy.stats.ks_2samp``) per column on NaN-free input: both evaluate
    ``|ECDF_ref - ECDF_live|`` at every sample with the same integer rank
    counts and the same float divisions.  Instead of sorting the merged
    sample per column (what the oracle does), the live window is sorted
    once, and the reference ranks come from the *pre-sorted* reference.
    Between consecutive live values the live ECDF is constant, so the gap is
    extremal either **at** a live point or **just below** one, and the gap
    at the global maximum is always exactly 0 — the ``maximum(..., 0)`` /
    ``minimum(..., 0)`` terms.

    *One search per key.*  The live block is sorted feature-major (row
    ``f * g + j`` is device ``j``'s feature ``f``), so each feature's keys
    are ``g`` contiguous ascending runs and take one ``side="right"``
    search, giving ``cnt_right`` (# ref <= x).  ``# ref < x`` is then
    ``cnt_right`` minus one where the reference value just below is equal
    to the key — exact when the reference column holds no repeated value
    and no NaN.  Columns that do (checked per call from the sorted
    reference) take a second ``side="left"`` search.

    *Positional ranks.*  The gaps use the position ``i`` of a key in its
    sorted run instead of its tie group's ranks: ``below = cnt_left/n1 -
    i/m`` and ``at = cnt_right/n1 - (i+1)/m``.  IEEE division and
    subtraction are monotone, so across tie groups ``below[i+1] >= at[i]``,
    and inside a group a positional value lies below the group's ``below``
    (above its ``at``).  ``max(below)`` and ``min(at)`` are therefore
    reached at the same group edges as the tie-rank max and min over both
    arrays, and are the same floats.

    *NaN-reference edge.*  Every live NaN is its own tie group, but the
    search counts a NaN key equal to the reference's NaNs, which breaks
    ``below[i+1] >= at[i]`` between live NaNs.  For a column whose live
    window holds a NaN, ``at`` at its first NaN joins the max and ``below``
    at its last row joins the min; both are members of the tie-rank sets,
    so this is exact whether or not the reference holds a NaN.
    """
    ref = np.asarray(reference_sorted, dtype=np.float64)
    liv = np.asarray(live, dtype=np.float64)
    n1, d = ref.shape
    m, C = liv.shape
    if C % d != 0:
        raise ValueError(f"live columns ({C}) must be a multiple of reference columns ({d})")
    if m == 0:
        return np.zeros(C)
    g = C // d
    # np.sort, not .sort(): with g == 1 or d == 1 the reshape is a view of
    # the caller's window.
    keys = np.sort(liv.T.reshape(g, d, m).transpose(1, 0, 2).reshape(C, m), axis=1)
    cols = np.ascontiguousarray(ref.T)
    runs = keys.reshape(d, g * m)
    cnt_right = np.concatenate([np.searchsorted(cols[f], runs[f], side="right") for f in range(d)]).reshape(C, m)
    # The reference value just below each key, read from the flat (d, n1)
    # reference; a key with cnt_right == 0 reads a neighbour and is masked.
    below_key = np.take(cols, cnt_right - 1 + (np.arange(C) // g * n1)[:, None])
    cnt_left = cnt_right - ((cnt_right > 0) & (below_key == keys))
    repeated = np.isnan(ref[-1]) | (ref[1:] == ref[:-1]).any(axis=0)
    for f in np.flatnonzero(repeated):
        cnt_left.reshape(d, g * m)[f] = np.searchsorted(cols[f], runs[f], side="left")
    i = np.arange(m)
    below = cnt_left / n1 - i / m  # ECDF gap just below each live point
    at = cnt_right / n1 - (i + 1) / m  # ECDF gap at each live point
    max_s = np.maximum(below.max(axis=1), 0.0)
    min_c = np.minimum(at.min(axis=1), 0.0)
    nan_rows = np.flatnonzero(np.isnan(keys[:, -1]))
    if nan_rows.size:
        first = np.isnan(keys[nan_rows]).argmax(axis=1)
        max_s[nan_rows] = np.maximum(max_s[nan_rows], at[nan_rows, first])
        min_c[nan_rows] = np.minimum(min_c[nan_rows], below[nan_rows, -1])
    min_s = np.clip(-min_c, 0.0, 1.0)
    return np.maximum(min_s, max_s).reshape(d, g).T.ravel()


def fused_histogram_counts(
    reference_sorted: np.ndarray, live: np.ndarray, bins: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column :func:`_histogram_pair` counts for all columns in one pass.

    Returns ``(p, q)`` of shape ``(C, bins)`` with the reference and live
    histogram counts over each column's shared-range bins, bit-identical to
    calling ``np.histogram`` twice per column.  As in
    :func:`ks_statistic_columns`, live column ``c`` histograms against
    reference column ``c % d``.

    The live side bins every value with one broadcast comparison against
    the bin edges plus a single offset ``bincount`` over all columns; the
    reference side reuses the pre-sorted reference through two
    ``searchsorted`` calls per feature (exactly the formula ``np.histogram``
    applies internally).  Columns whose bin width underflows to zero (a
    constant column at huge magnitude) fall back to the per-column oracle
    to preserve ``np.linspace``'s degenerate-edge behavior.
    """
    ref = np.asarray(reference_sorted, dtype=np.float64)
    liv = np.asarray(live, dtype=np.float64)
    n1, d = ref.shape
    m, C = liv.shape
    if C % d != 0:
        raise ValueError(f"live columns ({C}) must be a multiple of reference columns ({d})")
    if m == 0:
        raise ValueError("live window must be non-empty")
    g = C // d
    ref_lo = np.tile(ref[0], g)
    ref_hi = np.tile(ref[-1], g)
    lo = np.minimum(ref_lo, liv.min(axis=0))
    hi = np.maximum(ref_hi, liv.max(axis=0))
    hi = np.where(hi <= lo, lo + 1e-9, hi)
    step = (hi - lo) / bins
    good = (step > 0) & np.isfinite(step)
    # Edges exactly as np.linspace(lo, hi, bins + 1) builds them.  NaN/inf
    # ranges (degenerate columns, replaced by the per-column fallback below)
    # may produce invalid-value warnings here — silence them; `good` already
    # excludes those columns.
    with np.errstate(invalid="ignore"):
        edges = np.arange(bins + 1, dtype=np.float64)[:, None] * step[None, :]
        edges += lo
    edges[-1] = hi
    # Live counts: bin index = (# edges <= x) - 1, last bin right-inclusive.
    q_counts = np.empty((C, bins), dtype=np.int64)
    # Block the (rows, bins + 1, cols) broadcast to bound peak memory.
    block = max(1, int(2 ** 22 // max(m * (bins + 1), 1)))
    for start in range(0, C, block):
        stop = min(start + block, C)
        idxs = (liv[:, None, start:stop] >= edges[None, :, start:stop]).sum(axis=1, dtype=np.int64) - 1
        np.minimum(idxs, bins - 1, out=idxs)
        # NaN live values compare False against every edge (idx -1): clamp
        # into the column's own range so a degenerate column cannot corrupt
        # its neighbours' counts — its own counts are replaced by the
        # per-column fallback below (NaN/inf ranges fail the `good` check).
        np.maximum(idxs, 0, out=idxs)
        idxs += np.arange(stop - start) * bins
        q_counts[start:stop] = np.bincount(
            idxs.ravel(), minlength=(stop - start) * bins
        ).reshape(-1, bins)
    # Reference counts: np.histogram's own searchsorted formula, against the
    # pre-sorted reference — one (left, right) lookup pair per feature.
    p_counts = np.empty((C, bins), dtype=np.int64)
    for c in range(d):
        cols = np.arange(c, C, d)
        e = edges[:, cols]
        cum = np.searchsorted(ref[:, c], e.T.ravel(), side="left").reshape(len(cols), bins + 1)
        cum[:, -1] = np.searchsorted(ref[:, c], e[-1, :], side="right")
        p_counts[cols] = np.diff(cum, axis=1)
    with np.errstate(invalid="ignore"):
        for col in np.nonzero(~good)[0]:
            p, q = _histogram_pair(ref[:, col % d], liv[:, col], bins)
            p_counts[col] = p
            q_counts[col] = q
    return p_counts.astype(np.float64), q_counts.astype(np.float64)


def population_stability_index_columns(
    reference_sorted: np.ndarray, live: np.ndarray, bins: int = 10, eps: float = 1e-4
) -> np.ndarray:
    """Per-column PSI for all columns at once (see :func:`fused_histogram_counts`)."""
    p, q = fused_histogram_counts(reference_sorted, live, bins)
    # Degenerate columns carry the oracle's NaN counts through to a NaN
    # statistic; good columns are clipped to eps > 0, so "invalid" can only
    # arise from those NaN columns — suppress the noise.
    with np.errstate(invalid="ignore"):
        p = np.clip(p / np.maximum(p.sum(axis=1), 1.0)[:, None], eps, None)
        q = np.clip(q / np.maximum(q.sum(axis=1), 1.0)[:, None], eps, None)
        p /= p.sum(axis=1, keepdims=True)
        q /= q.sum(axis=1, keepdims=True)
        return np.sum((q - p) * np.log(q / p), axis=1)


def jensen_shannon_divergence_columns(
    reference_sorted: np.ndarray, live: np.ndarray, bins: int = 32, eps: float = 1e-12
) -> np.ndarray:
    """Per-column JS divergence for all columns at once."""
    p, q = fused_histogram_counts(reference_sorted, live, bins)
    # See population_stability_index_columns: NaN only flows from columns
    # the oracle itself scores as NaN.
    with np.errstate(invalid="ignore"):
        p = p / np.maximum(p.sum(axis=1), 1.0)[:, None] + eps
        q = q / np.maximum(q.sum(axis=1), 1.0)[:, None] + eps
        p /= p.sum(axis=1, keepdims=True)
        q /= q.sum(axis=1, keepdims=True)
        m = 0.5 * (p + q)
        return 0.5 * np.sum(p * np.log2(p / m), axis=1) + 0.5 * np.sum(q * np.log2(q / m), axis=1)


# ---------------------------------------------------------------------------
# streaming detectors
# ---------------------------------------------------------------------------

@dataclass
class DriftResult:
    """Outcome of checking one live window against the reference."""

    statistic: float
    threshold: float
    drifted: bool
    detector: str
    detail: Dict[str, float] = field(default_factory=dict)


def _record_result(history: List[DriftResult], statistic: float, threshold: float, detector: str) -> DriftResult:
    """Build, append and return a threshold-compared :class:`DriftResult`."""
    statistic = float(statistic)
    result = DriftResult(
        statistic=statistic,
        threshold=threshold,
        drifted=bool(statistic > threshold),
        detector=detector,
    )
    history.append(result)
    return result


# Live blocks by (shape, crc32 of the bytes); blocks whose keys collide are
# told apart by their bytes.  Entries go when their block is freed.
_BLOCKS: Dict[Tuple[Tuple[int, ...], int], List["weakref.ref[ReferenceBlock]"]] = {}


def _forget(key: Tuple[Tuple[int, ...], int], dead: "weakref.ref[ReferenceBlock]") -> None:
    bucket = _BLOCKS.get(key)
    if bucket is not None:
        bucket.remove(dead)
        if not bucket:
            del _BLOCKS[key]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class ReferenceBlock:
    """A detector's reference sample, shared read-only by every detector
    built from the same bytes.

    A deployment ships one reference window to every device it reaches, so
    without sharing each monitor of a fleet would hold its own copy of the
    array and of its column-sorted copy.  :meth:`of` interns blocks by
    content in a weak table: a cheap key (shape and ``zlib.crc32`` of the
    bytes), then an exact byte comparison.  Equal bytes give the same
    object — so :class:`~repro.observability.FleetMonitor` groups detectors
    by block identity — while ``-0.0`` against ``0.0``, or two NaN payloads,
    give different blocks.  A block lives as long as a detector (or anything
    else) holds it.

    ``reference`` is a float64 copy made once, and ``reference_sorted`` /
    ``ravel_sorted`` are built from it on first use; all three are
    read-only, so no holder can change what the others score against.  A
    deep copy is the block itself, and a pickle carries the reference once
    and re-interns it on load.
    """

    __slots__ = ("reference", "_sorted", "_ravel_sorted", "__weakref__")

    reference: np.ndarray

    @classmethod
    def of(cls, reference: np.ndarray) -> "ReferenceBlock":
        """The live block holding ``reference``'s bytes, made if there is none."""
        ref = np.asarray(reference, dtype=np.float64, order="C")
        key = (ref.shape, zlib.crc32(ref))
        for weak in _BLOCKS.get(key, ()):
            block = weak()
            if block is not None and block.reference.tobytes() == ref.tobytes():
                return block
        block = object.__new__(cls)
        block.reference = _read_only(ref.copy())
        block._sorted = block._ravel_sorted = None
        _BLOCKS.setdefault(key, []).append(weakref.ref(block, lambda dead: _forget(key, dead)))
        return block

    @property
    def reference_sorted(self) -> np.ndarray:
        """The reference as ``(n, d)`` columns (a 1-D one as one column),
        each sorted: the input of the batched column scorers."""
        if self._sorted is None:
            ref = self.reference
            self._sorted = _read_only(np.sort(ref if ref.ndim == 2 else ref.reshape(-1, 1), axis=0))
        return self._sorted

    @property
    def ravel_sorted(self) -> np.ndarray:
        """The whole reference as one sorted column, for live windows whose
        columns do not line up with the reference's."""
        if self._ravel_sorted is None:
            self._ravel_sorted = _read_only(np.sort(self.reference.ravel()).reshape(-1, 1))
        return self._ravel_sorted

    def __deepcopy__(self, memo: dict) -> "ReferenceBlock":
        return self

    def __reduce__(self):
        return (ReferenceBlock.of, (self.reference,))


class StreamingDriftDetector:
    """Base class: holds a reference sample, scores live windows.

    For the univariate detectors (KS, PSI, JS) the reference may be a 2-D
    ``(n, d)`` feature matrix; the statistic is then computed per feature and
    the maximum over features is reported, so a shift concentrated in a single
    feature is not diluted by the others.

    ``engine`` selects the scoring path (:mod:`repro.dispatch` convention):
    ``"batched"`` (default) is the vectorized all-columns-at-once
    implementation, ``"oracle"`` the per-column loop it is bit-identical
    to.

    The reference is held as a shared :class:`ReferenceBlock` (``block``);
    ``reference`` and ``reference_sorted`` are its read-only arrays.
    """

    name = "base"

    def __init__(
        self,
        reference: np.ndarray,
        threshold: float,
        engine: Optional[str] = None,
    ) -> None:
        if np.size(reference) == 0:
            raise ValueError("reference sample must be non-empty")
        self.block = ReferenceBlock.of(reference)
        self.threshold = float(threshold)
        self.engine = resolve_engine(engine, owner=f"{type(self).__name__}()")
        self.batched = self.engine == ENGINE_BATCHED
        self.history: List[DriftResult] = []

    @property
    def reference(self) -> np.ndarray:
        """The reference sample (read-only, shared through ``block``)."""
        return self.block.reference

    @property
    def reference_sorted(self) -> np.ndarray:
        """Column-sorted 2-D reference (read-only, shared through ``block``)."""
        return self.block.reference_sorted

    def _live_columns(self, live: np.ndarray) -> Optional[np.ndarray]:
        """The live window as columns matching the reference, or None.

        Mirrors :meth:`_per_feature_max`'s shape rules: ``None`` means the
        shapes don't line up column-wise and both sides ravel into a single
        column instead.
        """
        ref = self.reference
        if ref.ndim == 1 or live.ndim == 1:
            return None
        live2 = live if live.ndim == 2 else live.reshape(live.shape[0], -1)
        if ref.shape[1] != live2.shape[1]:
            return None
        return live2

    def score(self, live: np.ndarray) -> float:
        """Distribution-distance statistic for a live window."""
        raise NotImplementedError

    def _per_feature_max(self, live: np.ndarray, fn) -> float:
        """Max of ``fn(ref_col, live_col)`` over feature columns (the oracle)."""
        ref = self.reference
        live = np.asarray(live, dtype=np.float64)
        if ref.ndim == 1 or live.ndim == 1 or ref.shape[1] != live.reshape(live.shape[0], -1).shape[1]:
            return float(fn(ref.ravel(), live.ravel()))
        live2 = live.reshape(live.shape[0], -1)
        return float(max(fn(ref[:, j], live2[:, j]) for j in range(ref.shape[1])))

    def _columns_max(self, live: np.ndarray, columns_fn) -> float:
        """Max of the vectorized per-column statistics for a live window."""
        live = np.asarray(live, dtype=np.float64)
        live2 = self._live_columns(live)
        if live2 is None:
            stats_ = columns_fn(self.block.ravel_sorted, live.reshape(-1, 1))
        else:
            stats_ = columns_fn(self.reference_sorted, live2)
        return float(stats_.max())

    def record(self, statistic: float) -> DriftResult:
        """Append and return the result of an externally computed statistic.

        Used by the fleet monitor, which scores many devices' windows in one
        sweep and then records each device's statistic on its own detector.
        """
        return _record_result(self.history, statistic, self.threshold, self.name)

    def check(self, live: np.ndarray) -> DriftResult:
        """Score a window, record and return the result."""
        return self.record(self.score(np.asarray(live, dtype=np.float64)))

    def detection_delay(self, drift_start_index: int) -> Optional[int]:
        """Windows between true drift onset and first detection (None = missed)."""
        for i, result in enumerate(self.history[drift_start_index:]):
            if result.drifted:
                return i
        return None

    def false_positive_rate(self, drift_start_index: Optional[int] = None) -> float:
        """Fraction of pre-drift (or all) windows flagged as drifted."""
        window = self.history if drift_start_index is None else self.history[:drift_start_index]
        if not window:
            return 0.0
        return sum(1 for r in window if r.drifted) / len(window)


class KSDetector(StreamingDriftDetector):
    """KS-statistic detector (max over feature columns for 2-D references)."""

    name = "ks"

    def __init__(
        self,
        reference: np.ndarray,
        threshold: float = 0.25,
        engine: Optional[str] = None,
    ) -> None:
        ref = np.asarray(reference, dtype=np.float64)
        super().__init__(ref if ref.ndim == 2 else ref.ravel(), threshold, engine=engine)
        if self.batched:
            _ = self.reference_sorted  # sort the reference once, at construction

    def score(self, live: np.ndarray) -> float:
        if self.batched:
            return self._columns_max(live, ks_statistic_columns)
        return self._per_feature_max(live, lambda r, l: ks_statistic(r, l)[0])


class PSIDetector(StreamingDriftDetector):
    """Population-stability-index detector (industry default threshold 0.2)."""

    name = "psi"

    def __init__(
        self,
        reference: np.ndarray,
        threshold: float = 1.0,
        bins: int = 10,
        engine: Optional[str] = None,
    ) -> None:
        ref = np.asarray(reference, dtype=np.float64)
        super().__init__(ref if ref.ndim == 2 else ref.ravel(), threshold, engine=engine)
        self.bins = int(bins)
        if self.batched:
            _ = self.reference_sorted

    def score(self, live: np.ndarray) -> float:
        if self.batched:
            return self._columns_max(
                live, lambda r, l: population_stability_index_columns(r, l, bins=self.bins)
            )
        return self._per_feature_max(
            live, lambda r, l: population_stability_index(r, l, bins=self.bins)
        )


class JSDetector(StreamingDriftDetector):
    """Jensen–Shannon-divergence detector (max over feature columns)."""

    name = "js"

    def __init__(
        self,
        reference: np.ndarray,
        threshold: float = 0.25,
        bins: int = 32,
        engine: Optional[str] = None,
    ) -> None:
        ref = np.asarray(reference, dtype=np.float64)
        super().__init__(ref if ref.ndim == 2 else ref.ravel(), threshold, engine=engine)
        self.bins = int(bins)
        if self.batched:
            _ = self.reference_sorted

    def score(self, live: np.ndarray) -> float:
        if self.batched:
            return self._columns_max(
                live, lambda r, l: jensen_shannon_divergence_columns(r, l, bins=self.bins)
            )
        return self._per_feature_max(
            live, lambda r, l: jensen_shannon_divergence(r, l, bins=self.bins)
        )


class MMDDetector(StreamingDriftDetector):
    """Kernel-MMD detector on multivariate feature windows.

    The kernel statistic has no column decomposition, so the ``engine``
    keyword is accepted for interface uniformity but scoring is always the
    direct multivariate computation; the fleet monitor runs MMD detectors
    per-device.
    """

    name = "mmd"

    def __init__(
        self,
        reference: np.ndarray,
        threshold: float = 0.015,
        max_samples: int = 256,
        seed: int = 0,
        engine: Optional[str] = None,
    ) -> None:
        super().__init__(np.asarray(reference), threshold, engine=engine)
        self.max_samples = int(max_samples)
        self.seed = int(seed)

    def score(self, live: np.ndarray) -> float:
        return mmd_rbf(self.reference, live, max_samples=self.max_samples, seed=self.seed)


class PredictionDistributionMonitor:
    """Drift detection on the model's predicted-class distribution.

    Needs no labels and no raw inputs — only the histogram of argmax
    predictions — so it is the cheapest possible on-device signal.
    """

    def __init__(self, reference_predictions: np.ndarray, num_classes: int, threshold: float = 0.15, eps: float = 1e-9) -> None:
        ref = np.bincount(np.asarray(reference_predictions, dtype=int), minlength=num_classes).astype(np.float64)
        total = ref.sum()
        if total == 0:
            raise ValueError("reference predictions must be non-empty")
        self.reference_dist = ref / total
        self.num_classes = int(num_classes)
        self.threshold = float(threshold)
        self.eps = float(eps)
        self.history: List[DriftResult] = []

    def record(self, statistic: float) -> DriftResult:
        """Append and return the result of an externally computed statistic."""
        return _record_result(self.history, statistic, self.threshold, "prediction_js")

    def check(self, live_predictions: np.ndarray) -> DriftResult:
        """Jensen–Shannon distance between reference and live class histograms.

        An empty window carries no distributional evidence — comparing the
        all-zeros histogram against the reference would spuriously flag
        drift, so empty windows record a zero, non-drifted statistic.
        """
        preds = np.asarray(live_predictions, dtype=int)
        if preds.size == 0:
            return self.record(0.0)
        live = np.bincount(preds, minlength=self.num_classes).astype(np.float64)
        live_dist = live / max(live.sum(), 1.0)
        p = self.reference_dist + self.eps
        q = live_dist + self.eps
        p /= p.sum()
        q /= q.sum()
        m = 0.5 * (p + q)
        js = 0.5 * np.sum(p * np.log2(p / m)) + 0.5 * np.sum(q * np.log2(q / m))
        return self.record(js)


def prediction_js_columns(reference_dist: np.ndarray, counts: np.ndarray, eps: float) -> np.ndarray:
    """Vectorized :meth:`PredictionDistributionMonitor.check` statistics.

    ``counts`` is the ``(g, num_classes)`` stack of live class histograms of
    ``g`` devices sharing ``reference_dist``; rows with zero total (empty
    windows) score 0.0, matching the empty-window guard in :meth:`check`.
    """
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=1)
    live_dist = counts / np.maximum(totals, 1.0)[:, None]
    p = reference_dist + eps
    p = p / p.sum()
    q = live_dist + eps
    q /= q.sum(axis=1, keepdims=True)
    m = 0.5 * (p[None, :] + q)
    js = 0.5 * np.sum(p[None, :] * np.log2(p[None, :] / m), axis=1) + 0.5 * np.sum(
        q * np.log2(q / m), axis=1
    )
    return np.where(totals > 0, js, 0.0)
