"""Edge device runtime state and fleet construction.

An :class:`EdgeDevice` combines a static :class:`DeviceProfile` with dynamic
state: battery level, current network condition, installed model artifacts,
local query counters and telemetry hooks.  A :class:`Fleet` is a collection
of devices with helpers for sampling heterogeneous populations and for
querying devices matching a predicate (e.g. "currently on WiFi and charging"
— the federated-client eligibility rule from Section III-D).

Since the columnar fleet-state redesign (ROADMAP item 1), the dynamic state
lives in a :class:`~repro.devices.state.FleetState` structure-of-arrays
store and every :class:`EdgeDevice` is a thin row view into it: the object
API keeps its exact historical semantics (it is the differential oracle for
the vectorized paths), while :class:`Fleet` exposes the fleet-wide queries —
:meth:`Fleet.training_eligible_mask`, :meth:`Fleet.context_table`,
:meth:`Fleet.advance_all`, :meth:`Fleet.draw_batch_all` — as pure array ops.
Device views are materialized lazily, so a million-device fleet is ~15 NumPy
planes plus only the view objects actually touched.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from .battery import Battery, PowerState
from .cost import CostModel, ExecutionCost
from .network import NetworkCondition, NetworkType
from .profiles import DeviceProfile, random_fleet_profiles
from .state import BatteryView, FleetState

__all__ = ["EdgeDevice", "Fleet", "InstalledArtifact"]


@dataclass(frozen=True)
class InstalledArtifact:
    """A model (or pipeline) artifact currently installed on a device.

    Immutable: one placement installs the same object on every device it
    places, and an update installs a new one in its place.
    """

    artifact_id: str
    version: str
    size_bytes: int
    bits: int = 32
    metadata: Dict[str, object] = field(default_factory=dict)


class EdgeDevice:
    """Dynamic state of a single simulated edge device.

    A row view into a :class:`~repro.devices.state.FleetState`: a standalone
    device owns a one-row store; a device obtained from a :class:`Fleet`
    shares the fleet's consolidated store.  Either way, every accessor below
    reads and writes the store planes, so scalar mutations and the fleet's
    vectorized queries observe the same state.
    """

    def __init__(
        self,
        device_id: str,
        profile: DeviceProfile,
        network: Optional[NetworkCondition] = None,
        battery: Optional[Battery] = None,
        seed: int = 0,
        user_id: Optional[str] = None,
    ) -> None:
        self.device_id = device_id
        self.profile = profile
        self.user_id = user_id or f"user-{device_id}"
        self._seed = int(seed)
        self.installed: Dict[str, InstalledArtifact] = {}
        self.telemetry_log: List[Dict[str, float]] = []
        self._cost_model_obj: Optional[CostModel] = None
        state = FleetState([device_id], [profile], seeds=[self._seed])
        if battery is not None:
            state.set_battery(0, battery)
        if network is not None:
            state.set_network(0, network)
        self._bind(state, 0)

    @classmethod
    def _from_state(cls, state: FleetState, idx: int) -> "EdgeDevice":
        """Materialize the view for one existing store row (no new store)."""
        device = object.__new__(cls)
        device.device_id = state.device_ids[idx]
        device.profile = state.profile_at(idx)
        device.user_id = f"user-{device.device_id}"
        device._seed = int(state.seeds[idx])
        device.installed = {}
        device.telemetry_log = []
        device._cost_model_obj = None
        device._bind(state, idx)
        return device

    def _bind(self, state: FleetState, idx: int) -> None:
        """(Re)attach this view to a store row; Fleet adoption uses this."""
        self._state = state
        self._idx = int(idx)
        self._battery = BatteryView(state, idx)

    # -- store-backed attributes -----------------------------------------
    @property
    def battery(self) -> Battery:
        """The device's battery (a row view; assignment copies fields in)."""
        return self._battery

    @battery.setter
    def battery(self, battery: Battery) -> None:
        self._state.set_battery(self._idx, battery)

    @property
    def network(self) -> NetworkCondition:
        """Current link snapshot (reconstructed from the network planes)."""
        return self._state.network_at(self._idx)

    @network.setter
    def network(self, condition: NetworkCondition) -> None:
        self._state.set_network(self._idx, condition)

    @property
    def idle(self) -> bool:
        return bool(self._state.idle[self._idx])

    @idle.setter
    def idle(self, value: bool) -> None:
        self._state.idle[self._idx] = bool(value)

    @property
    def query_count(self) -> int:
        return int(self._state.query_count[self._idx])

    @query_count.setter
    def query_count(self, value: int) -> None:
        self._state.query_count[self._idx] = int(value)

    @property
    def rng(self) -> np.random.Generator:
        """Per-device RNG stream, stored in the fleet's ``rng_streams`` plane.

        Materialized lazily from the seed plane on first use.  Because the
        *stream* (not just the seed) lives in the store, a sharded worker's
        sub-store carries the live generator state out and back — the view
        keeps its exact historical semantics while the plane makes the state
        splittable/mergeable (:meth:`~repro.devices.state.FleetState.extract_rows`).
        """
        return self._state.rng_at(self._idx)

    @rng.setter
    def rng(self, generator: np.random.Generator) -> None:
        self._state.set_rng(self._idx, generator)

    @property
    def _cost_model(self) -> CostModel:
        if self._cost_model_obj is None:
            self._cost_model_obj = CostModel()
        return self._cost_model_obj

    # -- capabilities ----------------------------------------------------
    def free_flash(self) -> int:
        """Flash bytes still available for new artifacts."""
        return int(self.profile.flash_bytes - self._state.used_flash[self._idx])

    def can_install(self, size_bytes: int) -> bool:
        """Whether an artifact of the given size fits in free storage."""
        return size_bytes <= self.free_flash()

    def install(self, artifact: InstalledArtifact) -> None:
        """Install (or replace) an artifact; raises if it does not fit."""
        existing = self.installed.get(artifact.artifact_id)
        freed = existing.size_bytes if existing else 0
        if artifact.size_bytes > self.free_flash() + freed:
            raise MemoryError(
                f"artifact {artifact.artifact_id} ({artifact.size_bytes} B) does not fit "
                f"on {self.device_id} (free {self.free_flash() + freed} B)"
            )
        self.installed[artifact.artifact_id] = artifact
        self._state.used_flash[self._idx] += artifact.size_bytes - freed

    # -- execution -------------------------------------------------------
    def execute(self, cost: ExecutionCost, record: bool = True) -> bool:
        """Account for one model execution: drain battery, log telemetry.

        Returns False when the battery cannot supply the required energy
        (the inference is considered failed / skipped).
        """
        ok = self.battery.draw(cost.energy_j)
        if ok:
            self.query_count += 1
            if record:
                self.telemetry_log.append(
                    {
                        "latency_s": cost.latency_s,
                        "energy_j": cost.energy_j,
                        "memory_bytes": cost.peak_memory_bytes,
                        "soc": self.battery.state_of_charge,
                    }
                )
        return ok

    def execute_batch(
        self, cost: ExecutionCost, n: int, record: bool = True, exact: bool = False
    ) -> int:
        """Account for up to ``n`` executions of the same cost in one step.

        Uses :meth:`Battery.draw_batch` so battery accounting for a whole
        traffic window is one arithmetic operation instead of a Python loop
        (``exact=True`` selects the iterated-subtraction oracle semantics —
        see :meth:`Battery.draw_batch`).  Returns the number of executions
        that actually ran (the rest failed on a depleted battery).  When
        ``record`` is set, one aggregated telemetry sample carrying a
        ``count`` field is appended instead of ``n`` identical rows.
        """
        ran = self.battery.draw_batch(cost.energy_j, n, exact=exact)
        if ran:
            self.query_count += ran
            if record:
                self.telemetry_log.append(
                    {
                        "latency_s": cost.latency_s,
                        "energy_j": cost.energy_j,
                        "memory_bytes": cost.peak_memory_bytes,
                        "soc": self.battery.state_of_charge,
                        "count": float(ran),
                    }
                )
        return ran

    # -- context signals -------------------------------------------------
    def context(self) -> Dict[str, object]:
        """Context snapshot used by model selection and client scheduling."""
        return {
            "device_id": self.device_id,
            "device_class": self.profile.device_class,
            "power_state": self.battery.state,
            "state_of_charge": self.battery.state_of_charge,
            "network": self.network.kind,
            "network_online": self.network.online,
            "metered": self.network.metered,
            "idle": self.idle,
            "free_flash": self.free_flash(),
        }

    def is_eligible_for_training(self) -> bool:
        """FedAvg-style eligibility: idle, on unmetered network, charging or well charged."""
        charged = self.battery.state == PowerState.PLUGGED_IN or self.battery.state_of_charge > 0.6
        return self.idle and self.network.online and not self.network.metered and charged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeDevice({self.device_id}, {self.profile.name}, soc={self.battery.state_of_charge:.2f})"


class _DeviceMap(MappingABC):
    """Lazy ``device_id -> EdgeDevice`` mapping over a fleet's store."""

    def __init__(self, fleet: "Fleet") -> None:
        self._fleet = fleet

    def __getitem__(self, device_id: str) -> EdgeDevice:
        return self._fleet._device(device_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self._fleet._rows)

    def __len__(self) -> int:
        return len(self._fleet._rows)

    def __contains__(self, device_id: object) -> bool:
        return device_id in self._fleet._rows


class Fleet:
    """A collection of edge devices under management by the platform.

    Backed by one consolidated :class:`~repro.devices.state.FleetState`
    (``fleet.state``); device views are created on demand, so fleet-wide
    queries never materialize objects.
    """

    def __init__(self, devices: Sequence[EdgeDevice]) -> None:
        ids = [d.device_id for d in devices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate device ids in fleet")
        self.state = FleetState.from_devices(devices)
        self._rows: Dict[str, int] = {device_id: i for i, device_id in enumerate(ids)}
        self._cache: Dict[str, EdgeDevice] = {}
        for i, device in enumerate(devices):
            device._bind(self.state, i)
            self._cache[device.device_id] = device
        self._device_map = _DeviceMap(self)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_state(cls, state: FleetState) -> "Fleet":
        """Wrap an existing columnar store without materializing devices."""
        if len(set(state.device_ids)) != len(state.device_ids):
            raise ValueError("duplicate device ids in fleet")
        fleet = object.__new__(cls)
        fleet.state = state
        fleet._rows = {device_id: i for i, device_id in enumerate(state.device_ids)}
        fleet._cache = {}
        fleet._device_map = _DeviceMap(fleet)
        return fleet

    @classmethod
    def random(
        cls,
        n_devices: int,
        mix: Optional[Dict[str, float]] = None,
        seed: int = 0,
        connectivity_states: Sequence[str] = (NetworkType.OFFLINE, NetworkType.CELLULAR, NetworkType.WIFI),
    ) -> "Fleet":
        """Sample a heterogeneous fleet with randomized battery and network state.

        The columnar store is built directly — battery and network planes are
        sampled as whole arrays — so a million-device fleet costs a handful
        of vectorized draws instead of N object constructions.
        """
        rng = np.random.default_rng(seed)
        profiles = random_fleet_profiles(n_devices, mix=mix, seed=seed)
        state = FleetState(
            [f"dev-{i:04d}" for i in range(n_devices)],
            profiles,
            seeds=seed + np.arange(n_devices),
        )
        finite = ~np.isinf(state.capacity_j)
        levels = state.capacity_j * rng.uniform(0.2, 1.0, n_devices)
        state.level_j[finite] = levels[finite]
        state.plugged_in[finite] = rng.random(n_devices)[finite] < 0.3
        kind_codes = rng.integers(0, len(connectivity_states), n_devices)
        for j, kind in enumerate(connectivity_states):
            mask = kind_codes == j
            if mask.any():
                state.set_network_rows(mask, NetworkCondition.of(kind))
        state.idle[:] = rng.random(n_devices) < 0.7
        return cls.from_state(state)

    # -- access --------------------------------------------------------------
    @property
    def devices(self) -> MappingABC:
        """Mapping of ``device_id`` to (lazily materialized) device views."""
        return self._device_map

    def _device(self, device_id: str) -> EdgeDevice:
        device = self._cache.get(device_id)
        if device is None:
            device = EdgeDevice._from_state(self.state, self._rows[device_id])
            self._cache[device_id] = device
        return device

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[EdgeDevice]:
        return (self._device(device_id) for device_id in self._rows)

    def get(self, device_id: str) -> EdgeDevice:
        """Device by id, raising ``KeyError`` if unknown."""
        return self._device(device_id)

    def row_of(self, device_id: str) -> int:
        """Store row index for a device id (``KeyError`` if unknown)."""
        return self._rows[device_id]

    def rows_for(self, device_ids: Sequence[str]) -> np.ndarray:
        """Store row indices for many device ids, in the given order."""
        return np.fromiter(
            (self._rows[device_id] for device_id in device_ids),
            dtype=np.intp,
            count=len(device_ids),
        )

    def select(self, predicate: Callable[[EdgeDevice], bool]) -> List[EdgeDevice]:
        """Devices matching a predicate."""
        return [d for d in self if predicate(d)]

    def by_class(self, device_class: str) -> List[EdgeDevice]:
        """Devices whose profile belongs to the given class."""
        return self.select(lambda d: d.profile.device_class == device_class)

    def _devices_at(self, mask: np.ndarray) -> List[EdgeDevice]:
        ids = self.state.device_ids
        return [self._device(ids[i]) for i in np.flatnonzero(mask)]

    def online(self) -> List[EdgeDevice]:
        """Devices that currently have connectivity."""
        return self._devices_at(self.state.online_mask())

    def training_eligible(self) -> List[EdgeDevice]:
        """Devices eligible to participate in a federated round right now."""
        return self._devices_at(self.state.training_eligible_mask())

    # -- vectorized fleet queries ---------------------------------------------
    def training_eligible_mask(self) -> np.ndarray:
        """Per-device federated eligibility as one boolean plane."""
        return self.state.training_eligible_mask()

    def context_table(self) -> Dict[str, np.ndarray]:
        """The whole fleet's scheduling context as one columnar table."""
        return self.state.context_table()

    def context_rows(self, device_ids: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, object]]:
        """Materialized :meth:`EdgeDevice.context` dicts keyed by device id."""
        rows = None if device_ids is None else self.rows_for(device_ids)
        return {ctx["device_id"]: ctx for ctx in self.state.context_rows(rows)}

    def advance_all(self, seconds: float) -> None:
        """Advance simulated time for every device in one sweep."""
        self.state.advance_all(seconds)

    def draw_batch_all(self, energies, counts) -> np.ndarray:
        """Fleet-wide :meth:`Battery.draw_batch` (row order); returns served counts."""
        return self.state.draw_batch_all(energies, counts)

    # -- aggregate statistics -------------------------------------------------
    def class_histogram(self) -> Dict[str, int]:
        """Count of devices per device class."""
        return self.state.class_histogram()

    def summary(self) -> Dict[str, object]:
        """Fleet-level summary used by reports and the platform dashboard."""
        return self.state.summary()
