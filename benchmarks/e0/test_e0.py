"""Self-test of the e0 benchmark harness (not part of tier-1).

Run from the repository root: ``python -m pytest benchmarks/e0 -q``.
Everything runs at ``--smoke`` scale; the numbers are meaningless, the
plumbing is what is checked.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from benchmarks.e0 import compare as e0_compare
from benchmarks.e0.cli import HERE, ROOT, load_spec
from benchmarks.e0.trace import TARGETS, Tracer

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counters that read 0 whenever the platform is healthy (or the workload is
# fault-free), at any scale.
ZERO_WHEN_HEALTHY = {
    "failed_share",
    "runtime.sharded.recoveries",
    "federated.engine.fallback_clients",
    "devices.state.battery_failed_share",
    "faults.injector.lost_delivery_share",
}


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


def test_every_declared_metric_is_emitted_with_its_unit(results):
    for (workload, trace), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in declared}, (workload, trace)
        for metric in declared:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
            if not trace:
                assert emitted["value"] > 0, (workload, metric["name"])
    # a per-layer metric no workload ever moves is a typo in BENCHMARK.json
    for metric in SPEC["per_layer"]:
        if metric["name"] in ZERO_WHEN_HEALTHY:
            continue
        assert any(results[(w, 1)]["metrics"][metric["name"]]["value"] for w in WORKLOADS), metric["name"]


def test_self_times_add_up_to_the_root_span(results):
    for workload in WORKLOADS:
        with open(os.path.join(HERE, "out", f"trace_{workload}.json")) as handle:
            trace = json.load(handle)
        assert trace["spans"], workload
        for kind, table in trace["units"].items():
            assert table["root_ms"], (workload, kind)
            for unit, root in enumerate(table["root_ms"]):
                selfs = [column[unit] for column in table["self_ms"].values()]
                assert all(-1e-6 <= s <= root + 1e-6 for s in selfs), (workload, kind, unit)
                assert sum(selfs) == pytest.approx(root, rel=1e-6, abs=1e-6)


def test_wrappers_are_fully_removed():
    import copy

    from repro.lifecycle import pipeline
    from repro.runtime import sharded

    names = [target.resolve() for target in TARGETS]
    before = [vars(owner).get(attr) for owner, attr in names]
    tracer = Tracer()
    tracer.install()
    assert tracer.installed
    assert all(vars(owner)[attr] is not original for (owner, attr), original in zip(names, before))
    assert sharded.copy is not copy and pipeline.copy is not copy
    tracer.remove()
    assert not tracer.installed
    assert [vars(owner).get(attr) for owner, attr in names] == before
    assert sharded.copy is copy and pipeline.copy is copy


def test_a_span_outside_a_unit_is_not_recorded():
    from repro.billing import BillingBackend

    tracer = Tracer()
    tracer.install()
    try:
        BillingBackend().reconcile({"device_id": "nobody", "entries": [], "grants": {}})
        assert tracer.spans == []
        tracer.begin("sync")
        BillingBackend().reconcile({"device_id": "nobody", "entries": [], "grants": {}})
        tracer.end()
    finally:
        tracer.remove()
    table = tracer.tables()["sync"]
    assert table.calls["billing.backend.reconcile"] == [1]
    assert table.self_ms["billing.backend.reconcile"][0] <= table.root_ms[0]


def _result_set(tmp_path, name: str, scale: float = 1.0, jitter=(1.0, 1.0, 1.0)) -> str:
    runs = []
    for round_index, wobble in enumerate(jitter):
        runs.append(dict(workload="serve_metered", round=round_index, trace=0, metrics={
            "unit_p25_ms": {"value": 50.0 * scale * wobble, "unit": "ms"},
            "work_per_s": {"value": 8.0e5 / (scale * wobble), "unit": "1/s"},
            "setup_s": {"value": 3.0, "unit": "s"},
            "peak_rss_mb": {"value": 300.0, "unit": "MB"},
        }))
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def _verdicts(base: str, candidate: str) -> dict:
    rows = e0_compare.compare_sets(e0_compare.load_values(base), e0_compare.load_values(candidate), SPEC)
    return {row["metric"]: row["verdict"] for row in rows}


def test_compare_passes_identical_sets_and_flags_a_slowdown(tmp_path):
    base = _result_set(tmp_path, "base.json")
    assert set(_verdicts(base, base).values()) == {"ok"}
    slow = _result_set(tmp_path, "slow.json", scale=1.3)
    verdicts = _verdicts(base, slow)
    assert verdicts["unit_p25_ms"] == "regression" and verdicts["work_per_s"] == "ok"
    assert verdicts["setup_s"] == "ok" and verdicts["peak_rss_mb"] == "ok"
    cli = [sys.executable, os.path.join(HERE, "run.py"), "compare"]
    assert subprocess.run(cli + [base, base], capture_output=True).returncode == 0
    assert subprocess.run(cli + [base, slow], capture_output=True).returncode == 1


def test_compare_says_unresolved_when_the_base_is_noisier_than_the_bound(tmp_path):
    noisy = _result_set(tmp_path, "noisy.json", jitter=(0.7, 1.0, 1.4))
    same = _result_set(tmp_path, "same.json")
    assert _verdicts(noisy, same)["unit_p25_ms"] == "unresolved"
    # ... unless every candidate run beats every base run
    fast = _result_set(tmp_path, "fast.json", scale=0.5)
    assert _verdicts(noisy, fast)["unit_p25_ms"] == "ok"
