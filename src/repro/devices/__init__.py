"""Simulated edge-device substrate: profiles, cost models, fleets, fleet state."""

from .battery import Battery, PowerState
from .cost import CostModel, ExecutionCost, model_flops_and_bytes
from .fleet import EdgeDevice, Fleet, InstalledArtifact
from .network import ConnectivityTrace, NetworkCondition, NetworkType, transfer_time_s
from .profiles import (
    STANDARD_PROFILES,
    DeviceClass,
    DeviceProfile,
    get_profile,
    list_profiles,
    random_fleet_profiles,
)
from .state import BatteryView, FleetState

__all__ = [
    "Battery",
    "PowerState",
    "CostModel",
    "ExecutionCost",
    "model_flops_and_bytes",
    "EdgeDevice",
    "Fleet",
    "InstalledArtifact",
    "ConnectivityTrace",
    "NetworkCondition",
    "NetworkType",
    "transfer_time_s",
    "DeviceClass",
    "DeviceProfile",
    "STANDARD_PROFILES",
    "get_profile",
    "list_profiles",
    "random_fleet_profiles",
    "BatteryView",
    "FleetState",
]
