"""The KS kernels against the references they replaced, kept here as oracles.

The live kernel makes one ``searchsorted`` per key and reads the KS extrema
off positional ranks; the kernel it replaced made two searches per key and
built tie-group ranks.  They promise *byte-identical* statistics on every
input — NaN, ±inf, ±0.0, ties, repeated reference values — so the older
kernel lives on below, copied verbatim, and a Hypothesis property over those
values compares the two with ``tobytes()``.  Three golden cases each pin one
piece of the new kernel: the second search for a reference column with a
repeated value, the tie gather that turns ``# ref <= x`` into ``# ref < x``,
and the NaN-reference edge.

The per-column oracle ``ks_statistic`` is the pooled-ECDF construction
``scipy.stats.ks_2samp`` uses, written in NumPy so that ``src/`` needs no
scipy.  The seed-era ``ks_statistic``, one ``ks_2samp`` call, lives on below
as ``scipy_ks_statistic``; a second property compares the two statistics by
their bytes on the same adversarial values and checks the p-value against
``scipy.special.kolmogorov``.  This module imports scipy (the ``test``
extra) itself.

e0 times the kernel by patching the name ``ks_statistic_columns`` in
``repro.observability.monitor``; the last test keeps that lookup honest.

``benchmarks/bench_e4_observability_drift.py`` imports both oracles: the
kernel-cost guardrail times ``parent_ks_columns``, and the fleet-monitoring
guardrail times ``scipy_ks_statistic`` as its seed-era baseline.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import repro.observability.monitor as monitor_module
from repro.observability import EdgeMonitor, FleetMonitor, ks_statistic, ks_statistic_columns


# -- oracle: the replaced kernel, verbatim -----------------------------------
def parent_ks_columns(reference_sorted: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Two searches per key plus tie-group ranks (the pre-one-search kernel)."""
    ref = np.asarray(reference_sorted, dtype=np.float64)
    liv = np.asarray(live, dtype=np.float64)
    n1, d = ref.shape
    m, C = liv.shape
    if C % d != 0:
        raise ValueError(f"live columns ({C}) must be a multiple of reference columns ({d})")
    if m == 0:
        return np.zeros(C)
    g = C // d
    L = np.sort(liv, axis=0)
    # Tie-aware ranks of each sorted live value within its own column:
    # rank_left = # live < x (tie-group start), rank_right = # live <= x.
    idx = np.arange(m)[:, None]
    new_grp = np.empty((m, C), dtype=bool)
    new_grp[0] = True
    end_grp = np.empty((m, C), dtype=bool)
    end_grp[-1] = True
    if m > 1:
        np.not_equal(L[1:], L[:-1], out=new_grp[1:])
        end_grp[:-1] = new_grp[1:]
    rank_left = np.where(new_grp, idx, 0)
    np.maximum.accumulate(rank_left, axis=0, out=rank_left)
    rank_right = np.where(end_grp, idx + 1, m)
    rank_right = np.flip(np.minimum.accumulate(np.flip(rank_right, axis=0), axis=0), axis=0)
    # Reference ranks of every live value: two searchsorted calls per
    # feature column, shared across all devices stacked on that feature.
    cnt_left = np.empty((m, C), dtype=np.int64)
    cnt_right = np.empty((m, C), dtype=np.int64)
    for c in range(d):
        cols = slice(c, C, d)
        q = L[:, cols].ravel()
        cnt_left[:, cols] = np.searchsorted(ref[:, c], q, side="left").reshape(m, g)
        cnt_right[:, cols] = np.searchsorted(ref[:, c], q, side="right").reshape(m, g)
    at = cnt_right / n1 - rank_right / m  # ECDF gap at each live point
    sup = cnt_left / n1 - rank_left / m  # ECDF gap just below each live point
    max_s = np.maximum(np.maximum(at.max(axis=0), sup.max(axis=0)), 0.0)
    min_c = np.minimum(np.minimum(at.min(axis=0), sup.min(axis=0)), 0.0)
    min_s = np.clip(-min_c, 0.0, 1.0)
    return np.maximum(min_s, max_s)


def scipy_ks_statistic(reference: np.ndarray, live: np.ndarray) -> Tuple[float, float]:
    """The seed-era ``ks_statistic``, verbatim: one ``scipy.stats.ks_2samp`` call."""
    ref = np.asarray(reference, dtype=np.float64).ravel()
    cur = np.asarray(live, dtype=np.float64).ravel()
    if ref.size == 0 or cur.size == 0:
        return 0.0, 1.0
    result = stats.ks_2samp(ref, cur, method="asymp")
    return float(result.statistic), float(result.pvalue)


def assert_matches_parent(reference: np.ndarray, live: np.ndarray) -> np.ndarray:
    ref_sorted = np.sort(np.asarray(reference, dtype=np.float64), axis=0)
    live = np.asarray(live, dtype=np.float64)
    inputs = (ref_sorted.tobytes(), live.tobytes())
    got = ks_statistic_columns(ref_sorted, live)
    # With g == 1 or d == 1 the feature-major view aliases the caller's
    # window: sorting it in place would reorder the detector's input.
    assert (ref_sorted.tobytes(), live.tobytes()) == inputs, "kernel mutated its input"
    want = parent_ks_columns(ref_sorted, live)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)
    return got


# -- golden cases: each fails with one piece of the kernel removed -----------
def test_repeated_reference_value_takes_the_left_search():
    """# ref < 1 is 0; the gather alone would say 3 (# ref <= 1, minus one)."""
    ref = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [2.0, 4.0]])
    live = np.array([[1.0, 2.0, 1.0, 3.0]])  # two devices
    got = assert_matches_parent(ref, live)
    assert got[0] == got[2] == 1 - 4 / 5


def test_live_value_equal_to_reference_value_counts_below():
    """A key equal to a (unique) reference value: # ref < x = # ref <= x - 1."""
    ref = np.array([[0.0], [1.0], [2.0]])
    got = assert_matches_parent(ref, np.array([[1.0, 5.0]]))
    assert got[0] == 1 - 2 / 3


def test_nan_reference_edge():
    """Each live NaN is its own tie group, while the search puts it level with
    the reference's NaNs: the gaps between live NaNs set both extrema."""
    ref = np.array([[np.nan, 0.0], [np.nan, 1.0]])
    live = np.array([[np.nan, 0.5], [np.nan, np.nan]])
    got = assert_matches_parent(ref, live)
    assert got[0] == 0.5


# -- property: byte-identical on adversarial values ---------------------------
VALUES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
    st.integers(-3, 3).map(float),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n_ref=st.integers(1, 8),
    m=st.integers(1, 8),
    g=st.integers(1, 4),
    d=st.integers(1, 3),
)
def test_property_byte_identical_to_parent(data, n_ref, m, g, d):
    ref = np.array(data.draw(st.lists(VALUES, min_size=n_ref * d, max_size=n_ref * d))).reshape(n_ref, d)
    live = np.array(data.draw(st.lists(VALUES, min_size=m * g * d, max_size=m * g * d))).reshape(m, g * d)
    assert_matches_parent(ref, live)


# -- the per-column oracle against scipy --------------------------------------
def assert_matches_scipy(reference: np.ndarray, live: np.ndarray) -> None:
    """Same statistic bytes as ``ks_2samp`` (NaN exactly when scipy's is), and
    the p-value is the Kolmogorov survival function at ``D·sqrt(nm/(n+m))``."""
    stat, pvalue = ks_statistic(reference, live)
    want = scipy_ks_statistic(reference, live)[0]
    if math.isnan(want):
        assert math.isnan(stat) and math.isnan(pvalue), (stat, pvalue)
        return
    assert np.float64(stat).tobytes() == np.float64(want).tobytes(), (stat, want)
    n, m = np.size(reference), np.size(live)
    lam = want * math.sqrt(n * m / (n + m))
    assert abs(pvalue - special.kolmogorov(lam)) <= 1e-12, (pvalue, special.kolmogorov(lam))


def test_nan_on_either_side_propagates():
    assert_matches_scipy(np.array([0.0, np.nan, 1.0]), np.array([0.5, 2.0]))
    assert_matches_scipy(np.array([0.0, 1.0]), np.array([np.nan]))
    assert math.isnan(ks_statistic(np.array([np.nan]), np.array([np.nan]))[0])


def test_identical_samples_score_zero_with_pvalue_one():
    """``diff`` is all zeros, so ``-min(diff)`` is ``-0.0``: the statistic is
    ``max(diff)``'s ``+0.0``, and ``λ = 0`` gives ``p = 1``."""
    stat, pvalue = ks_statistic(np.array([-0.0, 1.0, np.inf]), np.array([np.inf, 0.0, 1.0]))
    assert np.float64(stat).tobytes() == np.float64(0.0).tobytes() and pvalue == 1.0


@settings(max_examples=100, deadline=None)
@given(
    reference=st.lists(VALUES, min_size=1, max_size=12),
    live=st.lists(VALUES, min_size=1, max_size=12),
)
def test_property_oracle_matches_scipy(reference, live):
    assert_matches_scipy(np.array(reference), np.array(live))


# -- tooling guard: e0's span patches the monitor's module global -------------
def test_fleet_sweep_calls_the_kernel_once_per_bucket(monkeypatch, rng):
    """One kernel call per (signature, window shape) bucket of a sweep.

    e0 times ``observability.drift.ks_columns`` by wrapping the name
    ``ks_statistic_columns`` in ``repro.observability.monitor``.  If the
    monitor stopped looking the kernel up there, that span would read 0;
    here the call count would.
    """
    calls = []

    def counting(reference_sorted, live):
        calls.append((reference_sorted.shape, live.shape))
        return ks_statistic_columns(reference_sorted, live)

    monkeypatch.setattr(monitor_module, "ks_statistic_columns", counting)
    refs = [rng.normal(size=(60, 4)), rng.normal(loc=1.0, size=(60, 4))]
    monitors = {
        f"dev-{i}": EdgeMonitor(f"dev-{i}", refs[i % 2], detectors=("ks", "psi")) for i in range(8)
    }
    sizes = {f"dev-{i}": (12 if i < 4 else 20) for i in range(8)}
    sizes["dev-7"] = 0  # an empty window is skipped, not scored
    windows = {device_id: rng.normal(size=(n, 4)) for device_id, n in sizes.items()}
    results = FleetMonitor(monitors).observe_fleet(windows)
    # Buckets: reference 0/1 x 12/20 rows; dev-7's empty window is not one.
    assert sorted(calls) == sorted([((60, 4), (12, 8))] * 2 + [((60, 4), (20, 8)), ((60, 4), (20, 4))])
    for device_id, res in results.items():
        ref_sorted = np.sort(refs[int(device_id[4:]) % 2], axis=0)
        assert res["ks"].statistic == float(ks_statistic_columns(ref_sorted, windows[device_id]).max())
