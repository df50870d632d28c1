"""Deploy by class ≡ deploy per device: the twin-platform oracle suite.

``TinyMLOpsPlatform.deploy`` and ``promote_model`` run the *pure* stages of a
roll-out — ``ModelSelector.select``, ``from_sequential`` + ``Compiler.compile``
and the two-module ``Pipeline`` — once per distinct class of device instead of
once per device.  The per-device loop they replaced lives on here, copied from
the parent commit unchanged, as :func:`_deploy_per_device`.  Two platforms
built from the same recipe ("twins") go through one path each and must end in
the same state, byte for byte: summary, registry, orchestrator log, installed
artifacts, flash plane, ledgers, grant ids and signatures, billing, monitors,
events — and then behave the same under ``promote_model`` and ``serve_fleet``.

``benchmarks/bench_e1_platform_end_to_end.py::test_e1_deploy_by_class`` imports
the oracle and :func:`assert_twins_equal` from this module.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billing import UsageLedger
from repro.core import PlatformConfig, TinyMLOpsPlatform, make_scenario
from repro.devices import Battery, EdgeDevice, Fleet, InstalledArtifact, NetworkCondition, get_profile
from repro.exchange import CompilationError, from_sequential
from repro.observability import EdgeMonitor
from repro.runtime import Pipeline, model_module, softmax_module

MODEL = "fixture_mlp"


# ----------------------------------------------------------------------
# The oracle: the parent commit's per-device deploy loop (``self`` renamed).
# ----------------------------------------------------------------------
def _deploy_per_device(
    platform: TinyMLOpsPlatform,
    model_name: str,
    reference_x: Optional[np.ndarray] = None,
    reference_predictions: Optional[np.ndarray] = None,
    num_classes: int = 0,
    prepaid_queries: int = 1000,
    device_ids: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Roll the released model out to the fleet, device by device."""
    if model_name not in platform.variants:
        raise KeyError(f"model {model_name!r} has not been released")
    variants = platform.variants[model_name]
    # Deploy the production-staged version when the lifecycle has promoted
    # one; otherwise (no lifecycle in play) the newest base.
    version = platform.registry.production(model_name) or platform.registry.latest(model_name, kind="base")
    targets = [platform.fleet.get(d) for d in device_ids] if device_ids else list(platform.fleet)
    per_variant: Dict[str, int] = {}
    failures: List[str] = []
    for device in targets:
        result = platform.selector.select(
            variants, device.profile, network=device.network, context=device.context()
        )
        if result.chosen is None:
            failures.append(device.device_id)
            continue
        chosen = result.chosen
        graph = from_sequential(chosen.model)
        try:
            artifact = platform.compiler.compile(graph, device.profile, bits=chosen.bits)
        except Exception:
            failures.append(device.device_id)
            continue
        pipeline = Pipeline([model_module(chosen.model, bits=chosen.bits), softmax_module()], name=model_name, version=chosen.name)
        decisions = platform.orchestrator.place(pipeline, [device.device_id])
        if not decisions[0].placed:
            failures.append(device.device_id)
            continue
        per_variant[chosen.name] = per_variant.get(chosen.name, 0) + 1
        platform.registry.record_deployment(device.device_id, version.version_id)
        # Observability: per-device monitor seeded with reference data.
        if reference_x is not None:
            platform.monitors[device.device_id] = EdgeMonitor(
                device.device_id,
                reference_x,
                reference_predictions=reference_predictions,
                num_classes=num_classes,
                detectors=platform.config.telemetry_detectors,
                model_version=chosen.name,
            )
        # Billing: enroll and sell the initial prepaid package.
        key = platform.billing.enroll_device(device.device_id)
        ledger = UsageLedger(device.device_id, key)
        ledger.add_grant(
            platform.billing.sell_package(device.device_id, model_name, prepaid_queries),
            backend_key=platform.billing.signing_key(),
        )
        platform.ledgers[device.device_id] = ledger
    if per_variant:
        # Server-side compiled plan for the fleet-scale serving path:
        # platform.serve / serve_fleet execute this plan instead of the
        # layer-by-layer nn forward.
        platform.serving.compile_model(model_name)
    summary = {
        "deployed": sum(per_variant.values()),
        "failed": len(failures),
        "per_variant": per_variant,
        "failures": failures,
    }
    platform._log("deployed", model=model_name, **{k: v for k, v in summary.items() if k != "failures"})
    return summary


def _reselect_per_device(platform: TinyMLOpsPlatform, model_name: str, device_ids: Sequence[str]) -> Dict[str, int]:
    """The parent commit's per-device re-selection loop of ``promote_model``."""
    per_variant: Dict[str, int] = {}
    for device_id in device_ids:
        device = platform.fleet.get(device_id)
        result = platform.selector.select(
            platform.variants.get(model_name, []),
            device.profile,
            network=device.network,
            context=device.context(),
        )
        if result.chosen is not None:
            per_variant[result.chosen.name] = per_variant.get(result.chosen.name, 0) + 1
    return per_variant


# ----------------------------------------------------------------------
# Twin platforms and what "the same state" means
# ----------------------------------------------------------------------
def build_platform(fleet: Fleet, model, x_eval: np.ndarray, y_eval: np.ndarray, seed: int = 0) -> TinyMLOpsPlatform:
    """A platform over ``fleet`` with a private weight-copy of ``model`` released."""
    platform = TinyMLOpsPlatform(fleet, PlatformConfig(seed=seed))
    platform.release(model.clone(copy_weights=True), x_eval, y_eval)
    return platform


def _twins(make_fleet: Callable[[], Fleet], model, test) -> Tuple[TinyMLOpsPlatform, TinyMLOpsPlatform]:
    return tuple(build_platform(make_fleet(), model, test.x, test.y) for _ in range(2))


def _ordered(mapping) -> List[Tuple[object, object]]:
    """Dict equality ignores insertion order; the deploy contract does not."""
    return list(mapping.items())


def platform_state(platform: TinyMLOpsPlatform) -> Dict[str, object]:
    """Everything a deploy writes, in the order it wrote it."""
    registry, billing, fleet = platform.registry, platform.billing, platform.fleet
    return {
        "registry.deployments": [(dev, _ordered(models)) for dev, models in registry.deployments.items()],
        "registry.stats": registry.stats(),
        "orchestrator.log": list(platform.orchestrator.log),
        "orchestrator.placements": _ordered(platform.orchestrator.placements),
        "installed": {d.device_id: _ordered(d.installed) for d in fleet},
        "used_flash": fleet.state.used_flash.tolist(),
        "ledgers": [
            (
                device_id,
                ledger.device_id,
                ledger._key,
                [(g.grant_id, g.device_id, g.model_name, g.n_queries, g.signature) for g in ledger.grants.values()],
                ledger.head_mac(),
            )
            for device_id, ledger in platform.ledgers.items()
        ],
        "billing.device_keys": _ordered(billing.device_keys),
        "billing.issued_grants": _ordered(billing.issued_grants),
        "billing.revenue": billing.revenue,
        "monitors": [(device_id, m.telemetry.model_version, m.any_drift()) for device_id, m in platform.monitors.items()],
        "serving.plans": sorted(platform.serving.plans),
        "events": platform.events,
    }


def assert_summaries_equal(by_class: Dict[str, object], per_device: Dict[str, object]) -> None:
    assert by_class == per_device
    assert list(by_class["per_variant"]) == list(per_device["per_variant"])  # key order too


def assert_twins_equal(by_class: TinyMLOpsPlatform, per_device: TinyMLOpsPlatform) -> None:
    a, b = platform_state(by_class), platform_state(per_device)
    for key in a:
        assert a[key] == b[key], f"twin platforms differ in {key}"


def _candidate(platform: TinyMLOpsPlatform):
    """A slightly different model registered as a promotable version."""
    candidate = platform.deployed_models[MODEL].clone(copy_weights=True)
    for layer in candidate.layers:
        for value in layer.params.values():
            value *= 1.01
    parent = platform.registry.latest(MODEL, kind="base").version_id
    version = platform.registry.register_model(candidate, kind="federated", parents=(parent,))
    return candidate, version.version_id


def _drive_twins(
    twins: Tuple[TinyMLOpsPlatform, TinyMLOpsPlatform],
    test,
    rollouts: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Deploy each rollout on both twins (one path each), then promote and serve.

    Returns the by-class summaries so a caller can assert on the case itself.
    """
    by_class, per_device = twins
    summaries = []
    for kwargs in rollouts:
        summary = by_class.deploy(MODEL, **kwargs)
        assert_summaries_equal(summary, _deploy_per_device(per_device, MODEL, **kwargs))
        assert_twins_equal(by_class, per_device)
        summaries.append(summary)
    audits = []
    for platform in twins:
        candidate, version_id = _candidate(platform)
        audit = platform.promote_model(MODEL, candidate, version_id, x_eval=test.x, y_eval=test.y)
        assert _ordered(audit["per_variant"]) == _ordered(_reselect_per_device(platform, MODEL, audit["flipped_devices"]))
        audits.append(audit)
    assert audits[0] == audits[1]
    assert_twins_equal(by_class, per_device)
    served_ids = list(by_class.ledgers)
    if served_ids:
        windows = list(make_scenario("steady", served_ids, 3, test.x, seed=5, rate=6.0))
        reports = [[p.serve_fleet(MODEL, window) for window in windows] for p in twins]
        assert reports[0] == reports[1]
        assert_twins_equal(by_class, per_device)
    return summaries


def _monitoring(model, train) -> Dict[str, object]:
    reference = train.x[:120]
    return dict(reference_x=reference, reference_predictions=model.predict_classes(reference), num_classes=4)


# ----------------------------------------------------------------------
# Drawn fleets
# ----------------------------------------------------------------------
class TestDrawnFleets:
    @settings(max_examples=20, deadline=None)
    @given(
        n_devices=st.integers(1, 40),
        fleet_seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_random_fleet_shuffled_targets(self, trained_mlp, blobs, n_devices, fleet_seed, data):
        train, test = blobs
        twins = _twins(lambda: Fleet.random(n_devices, seed=fleet_seed), trained_mlp, test)
        ids = list(twins[0].fleet.devices)
        targets = data.draw(st.permutations(ids))
        subset = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids)))
        rollouts = [dict(device_ids=targets, prepaid_queries=200)]
        if subset:  # a monitored re-deploy of a drawn subset, in drawn order
            rollouts.append(dict(device_ids=subset, prepaid_queries=50, **_monitoring(trained_mlp, train)))
        _drive_twins(twins, test, rollouts)

    def test_whole_fleet_default_targets(self, trained_mlp, blobs):
        train, test = blobs
        twins = _twins(lambda: Fleet.random(60, seed=3), trained_mlp, test)
        monitored = list(twins[0].fleet.devices)[::4]
        summaries = _drive_twins(
            twins,
            test,
            [dict(prepaid_queries=300), dict(device_ids=monitored, **_monitoring(trained_mlp, train))],
        )
        assert summaries[0]["deployed"] == 60 and summaries[1]["deployed"] == len(monitored)
        assert list(twins[0].monitors) == monitored


# ----------------------------------------------------------------------
# Handcrafted fleets: one named case per way the class key could be wrong
# ----------------------------------------------------------------------
def _device(device_id: str, profile="phone-mid", network=None, battery=None) -> EdgeDevice:
    if isinstance(profile, str):
        profile = get_profile(profile)
    return EdgeDevice(device_id, profile, network=network or NetworkCondition.of("wifi"), battery=battery)


class TestHandcraftedFleets:
    def test_same_link_kind_different_bandwidth(self, trained_mlp, blobs):
        # Fails if the key is weakened to ``network.kind``: the slow link's
        # device would inherit plain wifi's (larger) variant.
        _, test = blobs

        def make_fleet():
            slow = NetworkCondition.of("wifi", bandwidth_bps=2e3)
            return Fleet([_device("fast-0"), _device("slow-0", network=slow), _device("fast-1"), _device("slow-1", network=slow)])

        twins = _twins(make_fleet, trained_mlp, test)
        (summary,) = _drive_twins(twins, test, [dict()])
        assert summary["deployed"] == 4 and len(summary["per_variant"]) == 2
        installed = {d.device_id: d.installed[MODEL].version for d in twins[0].fleet}
        assert installed["fast-0"] == installed["fast-1"] != installed["slow-0"] == installed["slow-1"]

    def test_power_states_on_one_profile(self, trained_mlp, blobs):
        # Fails if ``policy`` is dropped from the key: plugged-in, low-battery
        # and normal devices share profile and link.
        _, test = blobs
        capacity = get_profile("phone-mid").battery_capacity_j

        def make_fleet():
            return Fleet(
                [
                    _device("normal"),
                    _device("plugged", battery=Battery(capacity_j=capacity, plugged_in=True)),
                    _device("low", battery=Battery(capacity_j=capacity, level_j=0.1 * capacity)),
                    _device("plugged-2", battery=Battery(capacity_j=capacity, plugged_in=True)),
                ]
            )

        twins = _twins(make_fleet, trained_mlp, test)
        policies = {d.device_id: twins[0].selector.policy_for_context(d.context()) for d in twins[0].fleet}
        assert len(set(policies.values())) == 3
        (summary,) = _drive_twins(twins, test, [dict()])
        installed = {d.device_id: d.installed[MODEL].version for d in twins[0].fleet}
        assert installed["plugged"] == installed["plugged-2"] != installed["normal"]
        assert summary["deployed"] == 4

    def test_unfit_and_uncompilable_classes_fail_in_target_order(self, trained_mlp, blobs):
        _, test = blobs
        no_flash = get_profile("mcu-m0").with_overrides(name="mcu-noflash", flash_bytes=64)  # select -> None
        no_ram = get_profile("mcu-m4").with_overrides(name="mcu-noram", ram_bytes=16)  # compile raises

        def make_fleet():
            return Fleet(
                [
                    _device("ok-0"),
                    _device("noram-0", profile=no_ram),
                    _device("noflash-0", profile=no_flash),
                    _device("ok-1", profile="mcu-m4"),
                    _device("noflash-1", profile=no_flash),
                    _device("noram-1", profile=no_ram),
                ]
            )

        twins = _twins(make_fleet, trained_mlp, test)
        variants = twins[0].variants[MODEL]
        assert twins[0].selector.select(variants, no_flash).chosen is None
        chosen = twins[0].selector.select(variants, no_ram).chosen
        with pytest.raises(CompilationError):
            twins[0].compiler.compile(from_sequential(chosen.model), no_ram, bits=chosen.bits)
        order = ["noram-1", "ok-1", "noflash-1", "ok-0", "noflash-0", "noram-0"]
        (summary,) = _drive_twins(twins, test, [dict(device_ids=order)])
        assert summary["failures"] == ["noram-1", "noflash-1", "noflash-0", "noram-0"]
        assert summary["deployed"] == 2 and list(twins[0].ledgers) == ["ok-1", "ok-0"]

    def test_one_full_device_fails_alone(self, trained_mlp, blobs):
        # Placement is per device: a class shares its pipeline, not its verdict.
        _, test = blobs

        def make_fleet():
            fleet = Fleet([_device(f"dev-{i}", profile="mcu-m4") for i in range(4)])
            full = fleet.get("dev-2")
            full.install(InstalledArtifact("filler", "1", size_bytes=full.free_flash() - 100))
            return fleet

        twins = _twins(make_fleet, trained_mlp, test)
        (summary,) = _drive_twins(twins, test, [dict()])
        assert summary["failures"] == ["dev-2"] and summary["deployed"] == 3
        assert [(d.device_id, d.placed) for d in twins[0].orchestrator.log] == [
            ("dev-0", True), ("dev-1", True), ("dev-2", False), ("dev-3", True)
        ]

    def test_monitored_redeploy_of_a_subset(self, trained_mlp, blobs):
        train, test = blobs
        twins = _twins(lambda: Fleet.random(30, seed=11), trained_mlp, test)
        ids = list(twins[0].fleet.devices)
        subset = ids[5:20:3][::-1]
        first, second = _drive_twins(
            twins,
            test,
            [dict(prepaid_queries=400), dict(device_ids=subset, prepaid_queries=40, **_monitoring(trained_mlp, train))],
        )
        assert first["deployed"] == 30 and second["deployed"] == len(subset)
        assert list(twins[0].monitors) == subset
        # grants are numbered in call order across both deploys
        assert list(twins[0].billing.issued_grants) == [f"grant-{i:06d}" for i in range(1, 31 + len(subset))]


# ----------------------------------------------------------------------
# The clock-free form of the speedup: calls == distinct keys
# ----------------------------------------------------------------------
def count_calls(owner, attr: str) -> List[tuple]:
    calls: List[tuple] = []
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(owner, attr, counting)
    return calls


def selection_classes(platform: TinyMLOpsPlatform, device_ids: Optional[Sequence[str]] = None) -> set:
    devices = platform.fleet if device_ids is None else [platform.fleet.get(d) for d in device_ids]
    return {(d.profile, d.network, platform.selector.policy_for_context(d.context())) for d in devices}


class TestBuildsOncePerClass:
    def test_select_and_compile_calls_equal_distinct_keys(self, trained_mlp, blobs):
        train, test = blobs
        platform = build_platform(Fleet.random(400, seed=0), trained_mlp, test.x, test.y)
        selects = count_calls(platform.selector, "select")
        compiles = count_calls(platform.compiler, "compile")
        classes = selection_classes(platform)
        assert len(classes) == 36

        summary = platform.deploy(MODEL)
        assert summary["deployed"] == 400 and summary["failed"] == 0
        assert len(selects) == len(classes)
        targets = {(d.installed[MODEL].version, d.profile) for d in platform.fleet}
        assert len(compiles) == len(targets) <= 12

        monitored = list(platform.fleet.devices)[::5]
        del selects[:], compiles[:]
        platform.deploy(MODEL, device_ids=monitored, **_monitoring(trained_mlp, train))
        assert len(selects) == len(selection_classes(platform, monitored))
        assert len(compiles) == len({(platform.fleet.get(d).installed[MODEL].version, platform.fleet.get(d).profile) for d in monitored})

        del selects[:]
        candidate, version_id = _candidate(platform)
        audit = platform.promote_model(MODEL, candidate, version_id, x_eval=test.x, y_eval=test.y)
        assert len(audit["flipped_devices"]) == 400
        assert len(selects) == len(classes)

    def test_nothing_survives_the_call(self, trained_mlp, blobs):
        # The memo is call-local: a link that changes between two deploys is
        # re-selected, and the platform grows no cache attribute.
        _, test = blobs
        platform = build_platform(Fleet([_device("a"), _device("b")]), trained_mlp, test.x, test.y)
        before = set(vars(platform))
        platform.deploy(MODEL)
        first = platform.fleet.get("a").installed[MODEL].version
        platform.fleet.get("a").network = NetworkCondition.of("wifi", bandwidth_bps=2e3)
        platform.deploy(MODEL)
        assert platform.fleet.get("a").installed[MODEL].version != first
        assert platform.fleet.get("b").installed[MODEL].version == first
        assert set(vars(platform)) == before


# ----------------------------------------------------------------------
# Regressions that ride along
# ----------------------------------------------------------------------
class TestDeployRegressions:
    def test_empty_selection_deploys_to_nobody(self, trained_mlp, blobs):
        _, test = blobs
        platform = build_platform(Fleet.random(6, seed=2), trained_mlp, test.x, test.y)
        plans = count_calls(platform.serving, "compile_model")
        summary = platform.deploy(MODEL, device_ids=[])
        assert summary == {"deployed": 0, "failed": 0, "per_variant": {}, "failures": []}
        assert platform.ledgers == {} and platform.registry.deployments == {}
        assert platform.billing.issued_grants == {} and not plans
        assert all(MODEL not in d.installed for d in platform.fleet)

    def test_compile_bug_propagates_compilation_error_is_recorded(self, trained_mlp, blobs):
        _, test = blobs
        platform = build_platform(Fleet([_device("a"), _device("b", profile="mcu-m4")]), trained_mlp, test.x, test.y)

        def broken_pass(graph, profile, bits=None):
            raise TypeError("a bug in a lowering pass")

        platform.compiler.compile = broken_pass
        with pytest.raises(TypeError, match="lowering pass"):
            platform.deploy(MODEL)

        def refuses_mcu(graph, profile, bits=None):
            if profile.name == "mcu-m4":
                raise CompilationError("unsupported op")

        platform.compiler.compile = refuses_mcu
        summary = platform.deploy(MODEL)
        assert summary["failures"] == ["b"] and summary["deployed"] == 1
