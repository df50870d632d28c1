"""Offloading marketplace and edge-cloud split execution.

Paper Section IV: "We could then envision a marketplace where every device
in the network can potentially execute a certain machine learning workload
… Owners of the device will be incentivized to run workloads as they
receive a monetary compensation … It is even possible to split a model
between edge and cloud."

* :class:`OffloadMarketplace` — devices advertise capacity and a price; a
  workload (FLOPs + payload size) is placed on the bidder minimizing
  latency (or cost) including the network transfer to reach it.
* :func:`find_best_split` — choose the layer after which to cut a graph so
  that edge-compute + transfer + cloud-compute latency is minimized, using
  :func:`repro.exchange.analysis.split_point_costs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.devices.cost import CostModel
from repro.devices.network import NetworkCondition
from repro.devices.profiles import DeviceProfile
from repro.exchange.analysis import split_point_costs
from repro.exchange.graph import GraphIR

__all__ = ["OffloadBid", "OffloadMarketplace", "SplitDecision", "find_best_split"]


@dataclass
class OffloadBid:
    """One device's offer to execute workloads."""

    device_id: str
    profile: DeviceProfile
    price_per_gflop: float
    network: NetworkCondition
    available: bool = True


@dataclass
class OffloadDecision:
    """Chosen executor for a workload, with the predicted cost breakdown."""

    device_id: str
    latency_s: float
    transfer_s: float
    compute_s: float
    price: float


class OffloadMarketplace:
    """Matches workloads to the cheapest/fastest available executor."""

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.bids: Dict[str, OffloadBid] = {}
        self.ledger: List[OffloadDecision] = []

    def register_bid(self, bid: OffloadBid) -> None:
        """Add or update a device's offer."""
        self.bids[bid.device_id] = bid

    def place_workload(
        self,
        flops: float,
        payload_bytes: float,
        objective: str = "latency",
        max_price: Optional[float] = None,
    ) -> Optional[OffloadDecision]:
        """Choose the best executor for a workload.

        ``objective`` is ``"latency"`` (transfer + compute) or ``"price"``.
        Returns None when no available bidder satisfies the constraints.
        """
        if objective not in ("latency", "price"):
            raise ValueError("objective must be 'latency' or 'price'")
        best: Optional[OffloadDecision] = None
        for bid in self.bids.values():
            if not bid.available or not bid.network.online:
                continue
            price = bid.price_per_gflop * flops / 1e9
            if max_price is not None and price > max_price:
                continue
            transfer = bid.network.transfer_time(payload_bytes)
            compute = flops / bid.profile.peak_flops
            latency = transfer + compute
            decision = OffloadDecision(bid.device_id, latency, transfer, compute, round(price, 9))
            key = decision.latency_s if objective == "latency" else decision.price
            best_key = (best.latency_s if objective == "latency" else best.price) if best else None
            if best is None or key < best_key:
                best = decision
        if best is not None:
            self.ledger.append(best)
        return best

    def payouts(self) -> Dict[str, float]:
        """Accumulated compensation owed to each executing device."""
        out: Dict[str, float] = {}
        for decision in self.ledger:
            out[decision.device_id] = out.get(decision.device_id, 0.0) + decision.price
        return {k: round(v, 9) for k, v in out.items()}


@dataclass
class SplitDecision:
    """Best edge/cloud split for a graph under given conditions."""

    split_after: int
    edge_latency_s: float
    transfer_s: float
    cloud_latency_s: float
    total_latency_s: float
    all_edge_latency_s: float
    all_cloud_latency_s: float


def find_best_split(
    graph: GraphIR,
    edge_profile: DeviceProfile,
    cloud_profile: DeviceProfile,
    network: NetworkCondition,
    bits: int = 32,
) -> SplitDecision:
    """Minimize end-to-end latency over all possible split points.

    ``split_after = -1`` means everything runs in the cloud (raw input is
    transferred); ``split_after = len(graph) - 1`` means everything runs on
    the edge.  The optimum typically sits after a layer that shrinks the
    activation volume (pooling / bottleneck), which is the behaviour the
    split-computing literature cited by the paper reports.
    """
    candidates = split_point_costs(graph, default_bits=bits)
    best: Optional[SplitDecision] = None
    all_edge = None
    all_cloud = None
    for row in candidates:
        edge_t = row["edge_flops"] / edge_profile.peak_flops
        cloud_t = row["cloud_flops"] / cloud_profile.peak_flops
        transfer_t = network.transfer_time(row["transfer_bytes"]) if row["cloud_flops"] > 0 else 0.0
        total = edge_t + transfer_t + cloud_t
        decision = SplitDecision(
            split_after=int(row["split_after"]),
            edge_latency_s=edge_t,
            transfer_s=transfer_t,
            cloud_latency_s=cloud_t,
            total_latency_s=total,
            all_edge_latency_s=0.0,
            all_cloud_latency_s=0.0,
        )
        if int(row["split_after"]) == len(graph) - 1:
            all_edge = total
        if int(row["split_after"]) == -1:
            all_cloud = total
        if best is None or total < best.total_latency_s:
            best = decision
    assert best is not None
    best.all_edge_latency_s = all_edge if all_edge is not None else best.total_latency_s
    best.all_cloud_latency_s = all_cloud if all_cloud is not None else best.total_latency_s
    return best
