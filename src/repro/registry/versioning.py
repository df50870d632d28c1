"""Model registry: versions, lineage and per-device variant tracking.

Paper Section III-A: "Existing solutions for storing models in a centralized
repository will … have to be extended to track the relationship between
different versions of the models, recording what optimizations are applied
to every instance."

The :class:`ModelRegistry` implements exactly that:

* every registered model/graph becomes an immutable :class:`ModelVersion`
  backed by the content-addressed :class:`~repro.registry.store.ArtifactStore`;
* derivation edges ("quantized-8bit of", "pruned-75% of", "watermarked for
  user X of", "federated-round-12 of") form a lineage DAG (``parents``);
* deployment records map fleet devices to the exact version they run;
* when a base model is re-registered (retrained), the registry reports which
  derived variants are stale and need their optimization pipelines re-run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .store import ArtifactStore

__all__ = ["ModelVersion", "ModelRegistry"]


@dataclass
class ModelVersion:
    """One immutable version of a logical model.

    Attributes
    ----------
    version_id:
        Unique id ``<model_name>:<n>``.
    model_name:
        Logical model family name (e.g. ``"wakeword"``).
    digest:
        Content digest of the stored artifact.
    kind:
        ``"base"`` for trained models, or the optimization kind for derived
        versions (``"quantized"``, ``"pruned"``, ``"watermarked"``, ...).
    parents:
        Version ids this version was derived from.
    tags:
        Free-form key/value annotations (bit width, target device, accuracy).
    created_at:
        Logical timestamp (monotonic counter) for ordering.
    """

    version_id: str
    model_name: str
    digest: str
    kind: str = "base"
    parents: Tuple[str, ...] = ()
    tags: Dict[str, object] = field(default_factory=dict)
    created_at: int = 0

    def is_base(self) -> bool:
        return self.kind == "base"


class ModelRegistry:
    """Tracks model versions, their lineage and their deployments."""

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store or ArtifactStore()
        self.versions: Dict[str, ModelVersion] = {}
        self._counters: Dict[str, itertools.count] = {}
        self._clock = itertools.count()
        # deployment map: device_id -> {model_name: version_id}
        self.deployments: Dict[str, Dict[str, str]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _next_version_id(self, model_name: str) -> str:
        counter = self._counters.setdefault(model_name, itertools.count(1))
        return f"{model_name}:{next(counter)}"

    def register(
        self,
        model_name: str,
        artifact_bytes: bytes,
        kind: str = "base",
        parents: Sequence[str] = (),
        tags: Optional[Dict[str, object]] = None,
    ) -> ModelVersion:
        """Register a new version of ``model_name`` from serialized bytes."""
        for parent in parents:
            if parent not in self.versions:
                raise KeyError(f"unknown parent version {parent!r}")
        record = self.store.put(artifact_bytes, kind="model", name=model_name, metadata={"kind": kind})
        version = ModelVersion(
            version_id=self._next_version_id(model_name),
            model_name=model_name,
            digest=record.digest,
            kind=kind,
            parents=tuple(parents),
            tags=dict(tags or {}),
            created_at=next(self._clock),
        )
        self.versions[version.version_id] = version
        return version

    def register_model(self, model, kind: str = "base", parents: Sequence[str] = (), tags: Optional[Dict[str, object]] = None, model_name: Optional[str] = None) -> ModelVersion:
        """Register a :class:`repro.nn.Sequential` (serialized with ``to_bytes``)."""
        return self.register(model_name or model.name, model.to_bytes(), kind=kind, parents=parents, tags=tags)

    # ------------------------------------------------------------------
    # retrieval / queries
    # ------------------------------------------------------------------
    def get(self, version_id: str) -> ModelVersion:
        """Version record by id."""
        if version_id not in self.versions:
            raise KeyError(f"unknown version {version_id!r}")
        return self.versions[version_id]

    def load_bytes(self, version_id: str) -> bytes:
        """Raw artifact bytes for a version."""
        return self.store.get(self.get(version_id).digest)

    def load_model(self, version_id: str):
        """Deserialize a registered Sequential model."""
        from repro.nn.model import Sequential

        return Sequential.from_bytes(self.load_bytes(version_id))

    def versions_of(self, model_name: str, kind: Optional[str] = None) -> List[ModelVersion]:
        """All versions of a logical model, oldest first."""
        out = [v for v in self.versions.values() if v.model_name == model_name]
        if kind is not None:
            out = [v for v in out if v.kind == kind]
        return sorted(out, key=lambda v: v.created_at)

    def latest(self, model_name: str, kind: Optional[str] = None) -> ModelVersion:
        """Most recent version of a model (optionally of a given kind)."""
        versions = self.versions_of(model_name, kind=kind)
        if not versions:
            raise KeyError(f"no versions registered for {model_name!r}")
        return versions[-1]

    def derived_from(self, version_id: str, recursive: bool = True) -> List[ModelVersion]:
        """Versions derived from ``version_id`` (children or full descendants)."""
        found, out = {self.get(version_id).version_id}, []
        for v in self.versions.values():  # registration order: parents come first
            if found.intersection(v.parents):
                out.append(v)
                if recursive:
                    found.add(v.version_id)
        return out

    # ------------------------------------------------------------------
    # deployments
    # ------------------------------------------------------------------
    def record_deployment(self, device_id: str, version_id: str) -> None:
        """Record that a device now runs ``version_id``."""
        version = self.get(version_id)
        self.deployments.setdefault(device_id, {})[version.model_name] = version_id

    def deployed_version(self, device_id: str, model_name: str) -> Optional[str]:
        """Version a device currently runs for a model (None if not deployed)."""
        return self.deployments.get(device_id, {}).get(model_name)

    def deployment_histogram(self, model_name: str) -> Dict[str, int]:
        """Count of devices per deployed version of a model."""
        hist: Dict[str, int] = {}
        for models in self.deployments.values():
            vid = models.get(model_name)
            if vid:
                hist[vid] = hist.get(vid, 0) + 1
        return hist

    def flip_deployments(self, device_ids: Sequence[str], version_id: str) -> Dict[str, Optional[str]]:
        """Atomically point every device at ``version_id``; returns the previous map.

        The lifecycle promotion/rollback primitive: the returned
        ``{device_id: previous_version_id_or_None}`` mapping is the audit
        trail (and the exact input needed to flip back).
        """
        version = self.get(version_id)
        previous: Dict[str, Optional[str]] = {}
        for device_id in device_ids:
            previous[device_id] = self.deployments.get(device_id, {}).get(version.model_name)
            self.deployments.setdefault(device_id, {})[version.model_name] = version_id
        return previous

    # ------------------------------------------------------------------
    # stages (lifecycle: candidate -> production / rejected)
    # ------------------------------------------------------------------
    def tag_version(self, version_id: str, **tags: object) -> ModelVersion:
        """Merge tags into an existing version (lifecycle gate metrics, stages)."""
        version = self.get(version_id)
        version.tags.update(tags)
        return version

    def set_stage(self, version_id: str, stage: str) -> ModelVersion:
        """Set the lifecycle stage tag (``candidate``/``production``/``rejected``/...)."""
        return self.tag_version(version_id, stage=stage)

    def production(self, model_name: str) -> Optional[ModelVersion]:
        """The newest version of a model staged ``production`` (None if unstaged)."""
        staged = [
            v
            for v in self.versions.values()
            if v.model_name == model_name and v.tags.get("stage") == "production"
        ]
        return max(staged, key=lambda v: v.created_at) if staged else None

    def promote(self, version_id: str) -> ModelVersion:
        """Stage a version ``production``, retiring the previous production one."""
        version = self.get(version_id)
        current = self.production(version.model_name)
        if current is not None and current.version_id != version_id:
            self.set_stage(current.version_id, "retired")
        return self.set_stage(version_id, "production")

    # ------------------------------------------------------------------
    # staleness / retriggering (Section III-A optimization pipeline)
    # ------------------------------------------------------------------
    @staticmethod
    def _variant_key(version: ModelVersion) -> Tuple[str, object, object]:
        """Logical identity of a derived variant across base retrains.

        Pipeline-produced variants carry ``recipe``/``pipeline`` tags
        (:class:`~repro.registry.triggers.TriggerManager` stamps them), so a
        re-derived int8 variant of the new base matches the int8 variant of
        the old base even though their version ids differ.
        """
        return (version.kind, version.tags.get("recipe"), version.tags.get("pipeline"))

    def stale_variants(self, model_name: str) -> List[ModelVersion]:
        """Derived variants whose base is no longer the latest base version.

        When a base model is retrained and re-registered, every variant
        derived from an *older* base is stale and the optimization pipeline
        that produced it must be re-run (paper Section III-A).

        A variant stops being stale once an *equivalent* variant — same
        ``kind`` and same ``recipe``/``pipeline`` tags — has been re-derived
        from the latest base.  Matching by version id here would be a no-op
        (re-derived variants always mint fresh ids), which is exactly the
        bug this filter used to have: re-running a pipeline never cleared
        staleness.
        """
        bases = self.versions_of(model_name, kind="base")
        if len(bases) < 2:
            return []
        latest_base = bases[-1].version_id
        older_bases = {b.version_id for b in bases[:-1]}
        stale: List[ModelVersion] = []
        seen: Set[str] = set()
        for base_id in older_bases:
            for v in self.derived_from(base_id):
                if not v.is_base() and v.version_id not in seen:
                    seen.add(v.version_id)
                    stale.append(v)
        fresh_keys = {
            self._variant_key(v) for v in self.derived_from(latest_base) if not v.is_base()
        }
        return sorted(
            (v for v in stale if self._variant_key(v) not in fresh_keys),
            key=lambda v: v.created_at,
        )

    def stats(self) -> Dict[str, object]:
        """Registry-wide statistics for dashboards and the E3 benchmark."""
        kinds: Dict[str, int] = {}
        for v in self.versions.values():
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
        return {
            "n_versions": len(self.versions),
            "n_models": len({v.model_name for v in self.versions.values()}),
            "n_edges": sum(len(set(v.parents)) for v in self.versions.values()),
            "by_kind": kinds,
            "store_bytes": self.store.total_bytes(),
            "n_deployed_devices": len(self.deployments),
        }
