"""Engine-dispatch convention shared by every dual-path surface.

The platform keeps two kernels for each hot stage: the vectorized
production kernel and the scalar predecessor, preserved as the differential
oracle (standing invariant in ROADMAP.md).  Where a surface has one
transaction around those stages — a served window
(``ServingEngine._serve_fleet_window(per_device=...)``), a federated round
(``FederatedEngine._collect_deltas(per_client=...)``) — the oracle swaps
only the kernels, never the control flow.  Every dual-path entry point
accepts one toggle:

``engine="batched"``
    the vectorized kernels (default everywhere);
``engine="oracle"``
    the scalar reference kernels.

Fleet-scale surfaces that can distribute work over a
:class:`~repro.runtime.sharded.ShardedFleetRunner` additionally accept

``engine="sharded"``
    the multi-process backend: the fleet is partitioned into per-worker
    shards, each shard runs the *batched* path independently, and the
    results are merged at a barrier so the outcome is byte-identical to
    ``engine="batched"`` (which in turn stays equivalent to the oracle).
    Currently offered by :meth:`~repro.core.serving.ServingEngine.serve_fleet`
    and :meth:`~repro.federated.engine.FederatedEngine.run_round`, both of
    which take a ``workers=`` count and fall back to the single-process
    batched path when a pool is unavailable, the shards would be
    degenerate (one worker, one shard, an unreplayable compiled plan) or,
    for rounds, a checkpoint store is attached.

``"sharded"`` is *opt-in per surface*: a call site declares support by
passing ``extra=(ENGINE_SHARDED,)`` to :func:`resolve_engine`; surfaces
that have no distributed implementation keep rejecting it.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["ENGINE_BATCHED", "ENGINE_ORACLE", "ENGINE_SHARDED", "resolve_engine"]

ENGINE_BATCHED = "batched"
ENGINE_ORACLE = "oracle"
ENGINE_SHARDED = "sharded"
_ENGINES = (ENGINE_BATCHED, ENGINE_ORACLE)


def resolve_engine(
    engine: Optional[str] = None,
    *,
    default: str = ENGINE_BATCHED,
    owner: str = "",
    extra: Sequence[str] = (),
) -> str:
    """Validate the ``engine=`` keyword of the ``owner`` call site.

    ``None`` means ``default``; anything else must be ``"batched"``,
    ``"oracle"`` or one of the surface-specific ``extra`` engines (e.g.
    ``"sharded"`` on surfaces that pass ``extra=(ENGINE_SHARDED,)``).
    """
    if engine is None:
        return default
    allowed = _ENGINES + tuple(extra)
    if engine not in allowed:
        raise ValueError(f"{owner or 'call'}: unknown engine {engine!r}; expected one of {allowed}")
    return engine
