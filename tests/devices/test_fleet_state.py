"""Equivalence suite for the columnar fleet-state store (ROADMAP item 1).

The standing invariant: the scalar object API (`EdgeDevice` / `Battery`) is
the differential oracle, and every vectorized query or mutation on
:class:`~repro.devices.FleetState` must be bit-identical to the equivalent
loop over the object views.  The hypothesis suites drive random op
sequences (draw / draw_batch / advance / plug / install / execute_batch)
through a standalone object and a store-backed view in lock-step and
assert the observable state never diverges.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    Battery,
    BatteryView,
    EdgeDevice,
    ExecutionCost,
    Fleet,
    FleetState,
    InstalledArtifact,
    NetworkCondition,
    NetworkType,
    get_profile,
)
from repro.dispatch import resolve_engine


def _cost(energy_j: float) -> ExecutionCost:
    return ExecutionCost(latency_s=0.01, energy_j=energy_j, peak_memory_bytes=64.0, flops=1.0, bytes_moved=1.0)


def _battery_fields(b: Battery) -> tuple:
    return (b.capacity_j, b.level_j, b.plugged_in, b.low_power_threshold, b.charge_rate_w, b.idle_draw_w)


# ---------------------------------------------------------------------------
# Battery vs BatteryView: shared method bodies over store-backed fields
# ---------------------------------------------------------------------------

# One battery op: (kind, args).  Energies/durations mix zero, binary-exact
# values and awkward decimals to exercise the floating-point boundary paths
# (subnormal energies are excluded: ``level // subnormal`` overflows int()
# identically on both sides, which is equivalence but aborts the sequence).
_energy = st.one_of(st.just(0.0), st.floats(1e-6, 30.0, allow_nan=False))
_battery_ops = st.one_of(
    st.tuples(st.just("draw"), _energy),
    st.tuples(
        st.just("draw_batch"),
        st.tuples(_energy, st.integers(0, 40), st.booleans()),
    ),
    st.tuples(st.just("advance"), st.floats(0.0, 500.0, allow_nan=False)),
    st.tuples(st.just("plug"), st.none()),
    st.tuples(st.just("unplug"), st.none()),
)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.one_of(st.floats(1.0, 200.0, allow_nan=False), st.just(float("inf"))),
    ops=st.lists(_battery_ops, min_size=1, max_size=30),
)
def test_battery_view_bitwise_equivalent(capacity, ops):
    """Every Battery method is bit-identical standalone vs store-backed."""
    oracle = Battery(capacity_j=capacity)
    state = FleetState(["dev-0"], [get_profile("phone-mid")])
    state.set_battery(0, Battery(capacity_j=capacity))
    view = BatteryView(state, 0)
    assert _battery_fields(oracle) == _battery_fields(view)
    for kind, args in ops:
        if kind == "draw":
            assert oracle.draw(args) == view.draw(args)
        elif kind == "draw_batch":
            energy, n, exact = args
            assert oracle.draw_batch(energy, n, exact=exact) == view.draw_batch(energy, n, exact=exact)
        elif kind == "advance":
            oracle.advance(args)
            view.advance(args)
        elif kind == "plug":
            oracle.plug()
            view.plug()
        else:
            oracle.unplug()
            view.unplug()
        assert _battery_fields(oracle) == _battery_fields(view)
        assert oracle.state == view.state
        assert oracle.state_of_charge == view.state_of_charge


@settings(max_examples=60, deadline=None)
@given(
    level=st.floats(0.0, 20.0, allow_nan=False),
    energy=st.floats(0.001, 2.0, allow_nan=False),
    n=st.integers(0, 64),
)
def test_draw_batch_exact_matches_draw_loop(level, energy, n):
    """``exact=True`` is bit-identical to n successive draw() calls — for
    any energy, including the exact-capacity boundaries the closed form
    documents as off-by-one (e.g. level=1.0, energy=0.1)."""
    batch = Battery(capacity_j=100.0, level_j=level)
    loop = Battery(capacity_j=100.0, level_j=level)
    served = batch.draw_batch(energy, n, exact=True)
    expected = sum(1 for _ in range(n) if loop.draw(energy))
    assert served == expected
    assert batch.level_j == loop.level_j


def test_draw_batch_exact_boundary_case():
    """The documented off-by-one: the loop admits 10, the division 9."""
    closed = Battery(capacity_j=1.0)
    exact = Battery(capacity_j=1.0)
    assert closed.draw_batch(0.1, 10) == 9
    assert exact.draw_batch(0.1, 10, exact=True) == 10


# ---------------------------------------------------------------------------
# EdgeDevice: standalone singleton store vs fleet-adopted row
# ---------------------------------------------------------------------------

_device_ops = st.one_of(
    st.tuples(
        st.just("execute_batch"),
        st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 5.0, allow_nan=False)), st.integers(0, 30), st.booleans()),
    ),
    st.tuples(st.just("advance"), st.floats(0.0, 200.0, allow_nan=False)),
    st.tuples(st.just("plug"), st.none()),
    st.tuples(st.just("unplug"), st.none()),
    st.tuples(st.just("idle"), st.booleans()),
    st.tuples(st.just("network"), st.sampled_from([NetworkType.WIFI, NetworkType.CELLULAR, NetworkType.OFFLINE])),
    st.tuples(st.just("install"), st.integers(1, 10_000)),
)


def _device_obs(d: EdgeDevice) -> tuple:
    return (
        _battery_fields(d.battery),
        d.network.kind,
        d.network.metered,
        d.idle,
        d.query_count,
        d.free_flash(),
        sorted(d.installed),
    )


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_device_ops, min_size=1, max_size=25))
def test_device_standalone_vs_fleet_adopted(ops):
    """The same op sequence leaves identical state whether the device owns a
    one-row store or was adopted into a fleet's consolidated store."""
    solo = EdgeDevice("dev-0", get_profile("mcu-m4"), seed=3)
    member = EdgeDevice("dev-0", get_profile("mcu-m4"), seed=3)
    sibling = EdgeDevice("dev-1", get_profile("phone-mid"), seed=4)
    fleet = Fleet([member, sibling])
    assert fleet.get("dev-0") is member  # adoption preserves identity
    for k, (kind, args) in enumerate(ops):
        for d in (solo, member):
            if kind == "execute_batch":
                energy, n, exact = args
                d.execute_batch(_cost(energy), n, record=False, exact=exact)
            elif kind == "advance":
                d.battery.advance(args)
            elif kind == "plug":
                d.battery.plug()
            elif kind == "unplug":
                d.battery.unplug()
            elif kind == "idle":
                d.idle = args
            elif kind == "network":
                d.network = NetworkCondition.of(args)
            else:
                artifact = InstalledArtifact(f"m-{k}", "1", args)
                if d.can_install(args):
                    d.install(artifact)
        assert _device_obs(solo) == _device_obs(member)
        assert solo.context() == member.context()
        assert solo.is_eligible_for_training() == member.is_eligible_for_training()
    # The sibling's row was never touched by dev-0's ops.
    assert sibling.query_count == 0
    assert sibling.battery.level_j == sibling.battery.capacity_j


def test_fleet_adoption_copies_rows_and_rebinds():
    """Fleet construction copies device rows into one store and re-binds."""
    device = EdgeDevice("dev-0", get_profile("phone-mid"))
    device.battery.level_j = 123.0
    device.network = NetworkCondition.of(NetworkType.CELLULAR)
    device.idle = False
    old_state = device._state
    fleet = Fleet([device])
    assert device._state is fleet.state and device._state is not old_state
    assert fleet.state.level_j[0] == 123.0
    assert fleet.state.net_metered[0]
    assert not fleet.state.idle[0]
    # Mutations through the view land in the fleet store.
    device.battery.level_j = 50.0
    assert fleet.state.level_j[0] == 50.0


def test_duplicate_device_ids_rejected():
    devices = [EdgeDevice("dev-0", get_profile("phone-mid")) for _ in range(2)]
    with pytest.raises(ValueError, match="duplicate"):
        Fleet(devices)


# ---------------------------------------------------------------------------
# Vectorized queries and mutations vs the object loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_fleet():
    return Fleet.random(120, seed=11)


def test_vectorized_queries_match_object_loop(random_fleet):
    fleet = random_fleet
    devices = list(fleet)
    mask = fleet.training_eligible_mask()
    assert mask.tolist() == [d.is_eligible_for_training() for d in devices]
    assert fleet.state.online_mask().tolist() == [d.network.online for d in devices]
    assert fleet.state.power_state().tolist() == [d.battery.state for d in devices]
    soc = fleet.state.state_of_charge()
    assert soc.tolist() == [d.battery.state_of_charge for d in devices]
    assert [d.device_id for d in fleet.training_eligible()] == [
        d.device_id for d in devices if d.is_eligible_for_training()
    ]
    assert [d.device_id for d in fleet.online()] == [d.device_id for d in devices if d.network.online]


def test_context_table_and_rows_match_object_contexts(random_fleet):
    fleet = random_fleet
    contexts = [d.context() for d in fleet]
    rows = fleet.state.context_rows()
    assert rows == contexts
    table = fleet.context_table()
    assert sorted(table) == sorted(contexts[0])
    for i, ctx in enumerate(contexts):
        for key, value in ctx.items():
            assert table[key][i] == value
    # Selecting a subset by device id preserves the requested order.
    some = [contexts[5]["device_id"], contexts[2]["device_id"]]
    by_id = fleet.context_rows(some)
    assert list(by_id) == some
    assert by_id[some[0]] == contexts[5] and by_id[some[1]] == contexts[2]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    seconds=st.floats(0.0, 3_000.0, allow_nan=False),
)
def test_draw_batch_rows_and_advance_all_match_loop(seed, seconds):
    """Fleet-wide draw + advance are bit-identical to the per-device loop."""
    vec = Fleet.random(40, seed=seed)
    obj = Fleet.random(40, seed=seed)
    rng = np.random.default_rng(seed)
    energies = rng.uniform(0.0, 1.0, 40)
    counts = rng.integers(0, 30, 40)
    served_vec = vec.draw_batch_all(energies, counts)
    served_obj = [d.battery.draw_batch(float(energies[i]), int(counts[i])) for i, d in enumerate(obj)]
    assert served_vec.tolist() == served_obj
    vec.advance_all(seconds)
    for d in obj:
        d.battery.advance(seconds)
    assert vec.state.level_j.tolist() == obj.state.level_j.tolist()


def test_summary_matches_object_aggregation(random_fleet):
    fleet = random_fleet
    devices = list(fleet)
    summary = fleet.summary()
    assert summary["n_devices"] == len(devices)
    assert summary["classes"] == fleet.class_histogram()
    assert sum(summary["classes"].values()) == len(devices)
    assert summary["online_fraction"] == sum(d.network.online for d in devices) / len(devices)
    assert summary["training_eligible"] == sum(d.is_eligible_for_training() for d in devices)
    assert summary["mean_soc"] == pytest.approx(
        np.mean([d.battery.state_of_charge for d in devices]), abs=0.0
    )
    assert summary["total_queries"] == sum(d.query_count for d in devices)


# ---------------------------------------------------------------------------
# Construction paths
# ---------------------------------------------------------------------------


def test_fleet_random_is_deterministic_and_columnar():
    a = Fleet.random(64, seed=5)
    b = Fleet.random(64, seed=5)
    assert a.state.level_j.tolist() == b.state.level_j.tolist()
    assert a.state.plugged_in.tolist() == b.state.plugged_in.tolist()
    assert a.state.net_kind.tolist() == b.state.net_kind.tolist()
    assert a.state.idle.tolist() == b.state.idle.tolist()
    assert a.state.device_ids == b.state.device_ids
    # No device objects exist until asked for.
    assert not a._cache
    d = a.get("dev-0003")
    assert a._cache == {"dev-0003": d}
    assert a.get("dev-0003") is d


def test_fleet_from_state_wraps_without_materializing():
    state = FleetState([f"d{i}" for i in range(5)], [get_profile("phone-mid")] * 5, seeds=np.arange(5))
    state.level_j[:] = [10.0, 20.0, 30.0, 40.0, 50.0]
    fleet = Fleet.from_state(state)
    assert fleet.state is state
    assert len(fleet) == 5
    assert "d3" in fleet.devices and "nope" not in fleet.devices
    device = fleet.devices["d3"]
    assert device.battery.level_j == 40.0
    assert device._seed == 3
    device.battery.draw(15.0)
    assert state.level_j[3] == 25.0


def test_network_round_trip_and_custom_kinds():
    device = EdgeDevice("dev-0", get_profile("phone-mid"))
    custom = NetworkCondition(kind="satellite", bandwidth_bps=1e5, latency_s=0.6, cost_per_mb=2.0, metered=True)
    device.network = custom
    got = device.network
    assert got == custom
    assert device._state.net_kinds[-1] == "satellite"
    # Adoption re-interns custom kinds into the fleet store.
    fleet = Fleet([device, EdgeDevice("dev-1", get_profile("phone-mid"))])
    assert fleet.get("dev-0").network == custom


# ---------------------------------------------------------------------------
# Engine-toggle convention (repro.dispatch)
# ---------------------------------------------------------------------------


def test_resolve_engine_contract():
    assert resolve_engine(None) == "batched"
    assert resolve_engine("oracle") == "oracle"
    assert resolve_engine(None, default="oracle") == "oracle"
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("turbo")


def test_engine_keyword_on_dual_path_surfaces():
    """Every dual-path surface takes engine=, without warning."""
    from repro.exchange import execute_graph, from_sequential
    from repro.nn import make_mlp
    from repro.observability import EdgeMonitor, KSDetector

    rng = np.random.default_rng(0)
    ref = rng.normal(size=(64, 4))

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # new spellings must not warn
        oracle_det = KSDetector(ref, engine="oracle")
        batched_det = KSDetector(ref, engine="batched")
        monitor = EdgeMonitor("dev-0", ref, detectors=("ks", "psi"), engine="oracle")
    assert not oracle_det.batched and batched_det.batched
    assert all(not det.batched for det in monitor.detectors.values())
    live = rng.normal(size=(32, 4))
    assert oracle_det.score(live) == batched_det.score(live)

    model = make_mlp(4, 3, hidden=(8,), seed=0)
    x = rng.normal(size=(6, 4))
    graph = from_sequential(model)
    np.testing.assert_allclose(
        execute_graph(graph, x, engine="oracle"),
        execute_graph(graph, x, engine="batched"),
        atol=1e-9,
    )
