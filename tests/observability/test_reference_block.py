"""``ReferenceBlock``: one read-only reference per distinct bytes, shared by
every detector, deep copy and unpickled copy built from it."""

from __future__ import annotations

import copy
import gc
import pickle
import types
import weakref

import numpy as np
import pytest

from repro.observability import EdgeMonitor, FleetMonitor
from repro.observability import drift, monitor as monitor_module
from repro.observability.drift import KSDetector, MMDDetector, PSIDetector, ReferenceBlock


def test_equal_bytes_share_one_block_whatever_the_input_array():
    ref = np.random.default_rng(0).normal(size=(40, 3))
    block = ReferenceBlock.of(ref)
    assert ReferenceBlock.of(ref.copy()) is block
    assert ReferenceBlock.of(np.asfortranarray(ref)) is block
    assert KSDetector(ref).block is PSIDetector(ref.tolist()).block is MMDDetector(ref).block is block
    assert ReferenceBlock.of(ref.reshape(3, 40)) is not block  # same bytes, other shape


@pytest.mark.parametrize("a, b", [(0.0, -0.0), (np.nan, -np.nan),
                                  (np.nan, np.frombuffer(b"\x01\x00\x00\x00\x00\x00\xf8\x7f", dtype=np.float64)[0])])
def test_equal_values_with_other_bytes_get_separate_blocks(a, b):
    ref_a = np.array([[1.0, a], [2.0, 3.0]])
    ref_b = np.array([[1.0, b], [2.0, 3.0]])
    assert ref_a.tobytes() != ref_b.tobytes()
    assert ReferenceBlock.of(ref_a) is not ReferenceBlock.of(ref_b)


def test_colliding_keys_are_told_apart_by_their_bytes(monkeypatch):
    monkeypatch.setattr(drift, "zlib", types.SimpleNamespace(crc32=lambda data: 0))
    first, second = np.zeros((4, 2)), np.ones((4, 2))
    a, b = ReferenceBlock.of(first), ReferenceBlock.of(second)
    assert a is not b
    assert ReferenceBlock.of(first.copy()) is a and ReferenceBlock.of(second.copy()) is b


def test_block_is_freed_with_its_last_monitor():
    ref = np.random.default_rng(1).normal(size=(30, 4))
    key = (ref.shape, drift.zlib.crc32(ref))
    monitors = [EdgeMonitor(f"dev-{i}", ref) for i in range(3)]
    block = weakref.ref(monitors[0].detectors["ks"].block)
    del monitors[:2]
    gc.collect()
    assert block() is not None and key in drift._BLOCKS
    del monitors
    gc.collect()
    assert block() is None and key not in drift._BLOCKS


def test_reference_and_its_sorted_copies_are_read_only():
    detector = KSDetector(np.random.default_rng(2).normal(size=(20, 3)))
    for array in (detector.reference, detector.reference_sorted, detector.block.ravel_sorted):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    with pytest.raises(AttributeError):
        detector.reference = np.zeros((20, 3))


def test_the_caller_keeps_its_own_array():
    ref = np.random.default_rng(3).normal(size=(20, 3))
    detector = KSDetector(ref)
    ref[0, 0] = 99.0  # the caller's array stays writeable and is not the detector's
    assert detector.reference[0, 0] != 99.0


def test_deep_copies_and_pickles_share_the_block():
    ref = np.random.default_rng(4).normal(size=(50, 4))
    monitors = {f"dev-{i}": EdgeMonitor(f"dev-{i}", ref, detectors=("ks", "psi")) for i in range(3)}
    block = monitors["dev-0"].detectors["ks"].block
    twin = copy.deepcopy(monitors["dev-0"])
    assert twin.detectors["psi"].block is block
    twin.observe_window(ref[:10])
    assert monitors["dev-0"].detectors["ks"].history == []  # only the block is shared
    payload = pickle.dumps(monitors)
    assert payload.count(block.reference.tobytes()) == 1  # the reference ships once
    assert all(d.block is block for m in pickle.loads(payload).values() for d in m.detectors.values())


def test_monitors_from_equal_copies_stack_into_one_sweep(counted):
    count, calls = counted
    count(monitor_module, "ks_statistic_columns")
    rng = np.random.default_rng(5)
    ref = rng.normal(size=(60, 4))
    monitors = {f"dev-{i}": EdgeMonitor(f"dev-{i}", ref.copy(), detectors=("ks",)) for i in range(4)}
    FleetMonitor(monitors).observe_fleet({d: rng.normal(size=(12, 4)) for d in monitors})
    assert calls == {"ks_statistic_columns": 1}
