"""Tests for the artifact store, model registry, lineage and pipeline triggers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import make_mlp
from repro.registry import (
    ArtifactStore,
    ModelRegistry,
    OptimizationPipeline,
    TriggerManager,
    VariantRecipe,
)


class TestArtifactStore:
    def test_put_get_roundtrip(self):
        store = ArtifactStore()
        record = store.put(b"hello", kind="blob", name="greeting")
        assert store.get(record.digest) == b"hello"
        assert record.size_bytes == 5

    def test_deduplication(self):
        store = ArtifactStore()
        a = store.put(b"same")
        b = store.put(b"same")
        assert a.digest == b.digest and len(store) == 1

    def test_total_bytes_counts_each_distinct_payload_once(self):
        store = ArtifactStore()
        assert store.total_bytes() == 0
        store.put(b"abc")
        store.put(b"abc", name="again")
        store.put(b"defgh")
        assert store.total_bytes() == 8

    def test_object_roundtrip(self):
        store = ArtifactStore()
        record = store.put_object({"a": 1})
        assert store.get_object(record.digest) == {"a": 1}

    def test_missing_digest(self):
        with pytest.raises(KeyError):
            ArtifactStore().get("0" * 64)

    def test_verify_integrity(self):
        store = ArtifactStore()
        record = store.put(b"data")
        assert store.verify(record.digest)
        assert not store.verify("0" * 64)

    def test_disk_persistence(self, tmp_path):
        store = ArtifactStore(root=str(tmp_path))
        record = store.put(b"persisted")
        fresh = ArtifactStore(root=str(tmp_path))
        assert fresh.get(record.digest) == b"persisted"

    def test_type_check(self):
        with pytest.raises(TypeError):
            ArtifactStore().put("not-bytes")  # type: ignore[arg-type]

    def test_collision_preserves_second_name_as_alias(self):
        # Regression: identical bytes under a different name used to return
        # the first record unchanged, silently dropping the second identity.
        store = ArtifactStore()
        store.put(b"same-bytes", kind="blob", name="first")
        record = store.put(b"same-bytes", kind="blob", name="second")
        assert record.name == "first"
        assert record.names() == ("first", "second")
        assert store.record(record.digest).aliases == ("second",)
        assert len(store) == 1

    def test_collision_with_conflicting_kind_raises(self):
        store = ArtifactStore()
        store.put(b"payload", kind="model")
        with pytest.raises(ValueError, match="kind"):
            store.put(b"payload", kind="calibration-batch")

    def test_collision_merges_metadata(self):
        store = ArtifactStore()
        store.put(b"payload", kind="blob", metadata={"bits": 8, "origin": "ci"})
        record = store.put(b"payload", kind="blob", metadata={"bits": 4, "owner": "acme"})
        meta = record.meta()
        assert meta["origin"] == "ci"  # untouched key survives
        assert meta["owner"] == "acme"  # new key merges in
        assert meta["bits"] == (8, 4)  # conflict accumulates distinct values in put order

    def test_collision_identical_metadata_is_stable(self):
        store = ArtifactStore()
        first = store.put(b"payload", kind="blob", name="n", metadata={"bits": 8})
        second = store.put(b"payload", kind="blob", name="n", metadata={"bits": 8})
        assert first == second


class TestModelRegistry:
    def test_register_and_load_model(self, trained_mlp, blobs):
        _, test = blobs
        registry = ModelRegistry()
        version = registry.register_model(trained_mlp)
        loaded = registry.load_model(version.version_id)
        np.testing.assert_allclose(loaded.forward(test.x[:4]), trained_mlp.forward(test.x[:4]))

    def test_version_ids_increment(self, trained_mlp):
        registry = ModelRegistry()
        v1 = registry.register_model(trained_mlp)
        v2 = registry.register_model(trained_mlp)
        assert v1.version_id.endswith(":1") and v2.version_id.endswith(":2")

    def test_lineage_queries(self, trained_mlp):
        registry = ModelRegistry()
        base = registry.register_model(trained_mlp)
        child = registry.register_model(trained_mlp, kind="quantized", parents=(base.version_id,))
        grandchild = registry.register_model(trained_mlp, kind="watermarked", parents=(child.version_id,))
        descendants = {v.version_id for v in registry.derived_from(base.version_id)}
        assert descendants == {child.version_id, grandchild.version_id}

    def test_versions_of_oldest_first_and_load_bytes(self, trained_mlp):
        registry = ModelRegistry()
        other = make_mlp(4, 2, hidden=(3,), seed=0, name="other")
        base = registry.register_model(trained_mlp)
        registry.register_model(other)
        quant = registry.register_model(trained_mlp, kind="quantized", parents=(base.version_id,))
        base2 = registry.register_model(trained_mlp)
        assert [v.version_id for v in registry.versions_of(trained_mlp.name)] == [
            base.version_id, quant.version_id, base2.version_id
        ]
        assert [v.version_id for v in registry.versions_of(trained_mlp.name, kind="base")] == [
            base.version_id, base2.version_id
        ]
        assert registry.versions_of("nobody") == []
        assert registry.load_bytes(quant.version_id) == trained_mlp.to_bytes()
        with pytest.raises(KeyError):
            registry.load_bytes("ghost:1")

    def test_tags_merge_and_stage_selects_production(self, trained_mlp):
        registry = ModelRegistry()
        v1 = registry.register_model(trained_mlp, tags={"owner": "ml"})
        v2 = registry.register_model(trained_mlp)
        assert registry.production(trained_mlp.name) is None
        registry.tag_version(v1.version_id, accuracy=0.9)
        assert registry.set_stage(v1.version_id, "production").tags == {"owner": "ml", "accuracy": 0.9, "stage": "production"}
        registry.set_stage(v2.version_id, "candidate")
        assert registry.production(trained_mlp.name).version_id == v1.version_id
        registry.set_stage(v2.version_id, "production")
        assert registry.production(trained_mlp.name).version_id == v2.version_id
        with pytest.raises(KeyError):
            registry.set_stage("ghost:1", "production")

    def test_unknown_parent_rejected(self, trained_mlp):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.register_model(trained_mlp, parents=("ghost:1",))

    def test_latest_and_kind_filter(self, trained_mlp):
        registry = ModelRegistry()
        base = registry.register_model(trained_mlp)
        registry.register_model(trained_mlp, kind="quantized", parents=(base.version_id,))
        assert registry.latest(trained_mlp.name, kind="base").version_id == base.version_id

    def test_deployments(self, trained_mlp):
        registry = ModelRegistry()
        v = registry.register_model(trained_mlp)
        registry.record_deployment("dev-1", v.version_id)
        registry.record_deployment("dev-2", v.version_id)
        assert registry.deployments == {"dev-1": {trained_mlp.name: v.version_id}, "dev-2": {trained_mlp.name: v.version_id}}
        assert registry.deployment_histogram(trained_mlp.name) == {v.version_id: 2}
        assert registry.deployed_version("dev-1", trained_mlp.name) == v.version_id

    def test_stale_variants_after_retrain(self, trained_mlp):
        registry = ModelRegistry()
        base1 = registry.register_model(trained_mlp)
        derived = registry.register_model(trained_mlp, kind="quantized", parents=(base1.version_id,))
        registry.register_model(trained_mlp)  # new base (retrained)
        stale = registry.stale_variants(trained_mlp.name)
        assert [v.version_id for v in stale] == [derived.version_id]

    def test_stats(self, trained_mlp):
        registry = ModelRegistry()
        registry.register_model(trained_mlp)
        stats = registry.stats()
        assert stats["n_versions"] == 1 and stats["n_models"] == 1

    def test_stale_cleared_by_rederived_equivalent(self, trained_mlp):
        # Regression: staleness used to be filtered by version id, which a
        # re-derived variant never shares — so re-running the pipeline could
        # never clear it.  Equivalence is (kind, recipe, pipeline) identity.
        registry = ModelRegistry()
        base1 = registry.register_model(trained_mlp)
        registry.register_model(
            trained_mlp, kind="quantized", parents=(base1.version_id,),
            tags={"recipe": "quant-8bit", "pipeline": "standard"},
        )
        base2 = registry.register_model(trained_mlp)
        assert len(registry.stale_variants(trained_mlp.name)) == 1
        registry.register_model(
            trained_mlp, kind="quantized", parents=(base2.version_id,),
            tags={"recipe": "quant-8bit", "pipeline": "standard"},
        )
        assert registry.stale_variants(trained_mlp.name) == []

    def test_stale_requires_matching_recipe(self, trained_mlp):
        # A *different* recipe derived from the new base does not clear the
        # old one's staleness.
        registry = ModelRegistry()
        base1 = registry.register_model(trained_mlp)
        old = registry.register_model(
            trained_mlp, kind="quantized", parents=(base1.version_id,),
            tags={"recipe": "quant-8bit", "pipeline": "standard"},
        )
        base2 = registry.register_model(trained_mlp)
        registry.register_model(
            trained_mlp, kind="quantized", parents=(base2.version_id,),
            tags={"recipe": "quant-4bit", "pipeline": "standard"},
        )
        stale = registry.stale_variants(trained_mlp.name)
        assert [v.version_id for v in stale] == [old.version_id]

    def test_stale_dedup_across_multiple_old_bases(self, trained_mlp):
        # A variant chain reachable from several old bases is reported once.
        registry = ModelRegistry()
        base1 = registry.register_model(trained_mlp)
        derived = registry.register_model(
            trained_mlp, kind="quantized", parents=(base1.version_id,),
            tags={"recipe": "quant-8bit"},
        )
        registry.register_model(trained_mlp, parents=(base1.version_id,))  # base2, child of base1
        registry.register_model(trained_mlp)  # base3 (latest)
        stale = registry.stale_variants(trained_mlp.name)
        assert [v.version_id for v in stale] == [derived.version_id]

    def test_flip_deployments_returns_previous_map(self, trained_mlp):
        registry = ModelRegistry()
        v1 = registry.register_model(trained_mlp)
        v2 = registry.register_model(trained_mlp)
        registry.record_deployment("dev-1", v1.version_id)
        previous = registry.flip_deployments(["dev-1", "dev-2"], v2.version_id)
        assert previous == {"dev-1": v1.version_id, "dev-2": None}
        assert registry.deployed_version("dev-1", trained_mlp.name) == v2.version_id
        assert registry.deployed_version("dev-2", trained_mlp.name) == v2.version_id

    def test_promote_retires_previous_production(self, trained_mlp):
        registry = ModelRegistry()
        v1 = registry.register_model(trained_mlp)
        v2 = registry.register_model(trained_mlp)
        assert registry.production(trained_mlp.name) is None
        registry.promote(v1.version_id)
        assert registry.production(trained_mlp.name).version_id == v1.version_id
        registry.promote(v2.version_id)
        assert registry.production(trained_mlp.name).version_id == v2.version_id
        assert registry.get(v1.version_id).tags["stage"] == "retired"


class TestTriggers:
    def test_standard_pipeline_generates_variants(self, trained_mlp):
        registry = ModelRegistry()
        manager = TriggerManager(registry)
        manager.subscribe(trained_mlp.name, OptimizationPipeline.standard(bit_widths=(8, 4), sparsities=(0.5,)))
        base, derived = manager.register_and_trigger(trained_mlp)
        assert len(derived) == 3
        kinds = {v.kind for v in derived}
        assert kinds == {"quantized", "pruned"}
        for v in derived:
            assert v.parents == (base.version_id,)

    def test_trigger_without_subscription_is_noop(self, trained_mlp):
        manager = TriggerManager(ModelRegistry())
        base, derived = manager.register_and_trigger(trained_mlp)
        assert derived == []

    def test_custom_recipe(self, trained_mlp):
        registry = ModelRegistry()
        manager = TriggerManager(registry)

        def builder(model):
            return model.to_bytes(), {"note": "identity"}

        manager.subscribe(trained_mlp.name, OptimizationPipeline("custom", [VariantRecipe("copy", "mirrored", builder)]))
        _, derived = manager.register_and_trigger(trained_mlp)
        assert derived[0].kind == "mirrored" and derived[0].tags["recipe"] == "copy"

    def test_retrain_retriggers_and_marks_stale(self, trained_mlp):
        registry = ModelRegistry()
        manager = TriggerManager(registry)
        manager.subscribe(trained_mlp.name, OptimizationPipeline.standard(bit_widths=(8,), sparsities=()))
        manager.register_and_trigger(trained_mlp)
        retrained = trained_mlp.clone(copy_weights=True)
        retrained.layers[0].params["W"] += 0.01
        # Registering the retrained base alone leaves the old variant stale...
        base2 = registry.register_model(retrained)
        assert len(registry.stale_variants(trained_mlp.name)) == 1
        # ...and re-running the pipeline from the new base clears it.
        derived = manager.on_base_registered(base2)
        assert len(derived) == 1
        assert registry.stale_variants(trained_mlp.name) == []
        assert len(manager.trigger_log) == 2

    def test_trigger_log_records_no_pipeline_events(self, trained_mlp):
        # Regression: the no-subscription early return used to skip the
        # trigger log, so lifecycle audits missed those triggers entirely.
        registry = ModelRegistry()
        manager = TriggerManager(registry)
        base = registry.register_model(trained_mlp)
        assert manager.on_base_registered(base) == []
        assert manager.trigger_log == [
            {"base": base.version_id, "n_derived": 0, "pipelines": []}
        ]

    def test_on_base_registered_requires_base(self, trained_mlp):
        registry = ModelRegistry()
        manager = TriggerManager(registry)
        base = registry.register_model(trained_mlp)
        derived = registry.register_model(trained_mlp, kind="quantized", parents=(base.version_id,))
        with pytest.raises(ValueError):
            manager.on_base_registered(derived)
