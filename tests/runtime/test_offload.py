"""Focused tests for runtime/offload.py: split decisions and marketplace
placement, including tie-breaking — previously the least-covered runtime
module."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.devices import NetworkCondition, NetworkType, get_profile
from repro.exchange import from_sequential
from repro.nn import make_mlp, make_tiny_cnn
from repro.runtime import OffloadBid, OffloadMarketplace, find_best_split


def _wifi():
    return NetworkCondition.of(NetworkType.WIFI)


class TestPlaceWorkload:
    def test_tie_breaks_to_first_registered_bid(self):
        """Identical offers: strict '<' comparison keeps the earliest bidder."""
        market = OffloadMarketplace()
        for name in ("first", "second", "third"):
            market.register_bid(OffloadBid(name, get_profile("edge-server"), 0.01, _wifi()))
        for objective in ("latency", "price"):
            decision = market.place_workload(1e9, 1e4, objective=objective)
            assert decision.device_id == "first"

    def test_tie_break_is_registration_order_not_name_order(self):
        market = OffloadMarketplace()
        market.register_bid(OffloadBid("zzz", get_profile("edge-server"), 0.01, _wifi()))
        market.register_bid(OffloadBid("aaa", get_profile("edge-server"), 0.01, _wifi()))
        assert market.place_workload(1e9, 1e4).device_id == "zzz"

    def test_reregistering_updates_bid_in_place(self):
        market = OffloadMarketplace()
        market.register_bid(OffloadBid("dev", get_profile("edge-server"), 0.01, _wifi()))
        market.register_bid(OffloadBid("dev", get_profile("edge-server"), 5.0, _wifi()))
        decision = market.place_workload(1e9, 1e4, objective="price")
        assert decision.price == pytest.approx(5.0 * 1e9 / 1e9)

    def test_max_price_is_inclusive(self):
        market = OffloadMarketplace()
        market.register_bid(OffloadBid("dev", get_profile("edge-server"), 1.0, _wifi()))
        exact_price = 1.0 * 1e9 / 1e9
        assert market.place_workload(1e9, 1e4, max_price=exact_price) is not None
        assert market.place_workload(1e9, 1e4, max_price=exact_price * 0.999) is None

    def test_unavailable_and_offline_bidders_skipped(self):
        market = OffloadMarketplace()
        market.register_bid(OffloadBid("busy", get_profile("edge-server"), 0.01, _wifi(), available=False))
        market.register_bid(OffloadBid("island", get_profile("edge-server"), 0.01, NetworkCondition.of(NetworkType.OFFLINE)))
        market.register_bid(OffloadBid("up", get_profile("phone-mid"), 0.01, _wifi()))
        assert market.place_workload(1e9, 1e4).device_id == "up"

    def test_latency_objective_includes_transfer(self):
        """A fast device behind a slow link loses to a slower local one."""
        market = OffloadMarketplace()
        market.register_bid(OffloadBid("remote", get_profile("cloud"), 0.01, NetworkCondition.of(NetworkType.LPWAN)))
        market.register_bid(OffloadBid("local", get_profile("phone-mid"), 0.01, _wifi()))
        decision = market.place_workload(1e9, 1e6, objective="latency")
        assert decision.device_id == "local"
        assert decision.latency_s == pytest.approx(decision.transfer_s + decision.compute_s)

    def test_invalid_objective_rejected(self):
        with pytest.raises(ValueError):
            OffloadMarketplace().place_workload(1e9, 1e4, objective="karma")

    def test_payouts_accumulate_over_ledger(self):
        market = OffloadMarketplace()
        market.register_bid(OffloadBid("dev", get_profile("edge-server"), 2.0, _wifi()))
        for _ in range(3):
            market.place_workload(5e8, 1e3)
        payouts = market.payouts()
        assert payouts == {"dev": pytest.approx(3 * 2.0 * 5e8 / 1e9)}
        assert len(market.ledger) == 3


class TestFindBestSplit:
    def _graph(self):
        return from_sequential(make_tiny_cnn((12, 12, 1), 4, filters=(4, 8), dense_width=16, seed=0))

    def test_total_never_worse_than_pure_strategies(self):
        decision = find_best_split(
            self._graph(), get_profile("mcu-m4"), get_profile("cloud"), NetworkCondition.of(NetworkType.CELLULAR)
        )
        assert decision.total_latency_s <= decision.all_edge_latency_s + 1e-12
        assert decision.total_latency_s <= decision.all_cloud_latency_s + 1e-12
        assert decision.all_edge_latency_s / max(decision.total_latency_s, 1e-12) >= 1.0 - 1e-9
        assert decision.all_cloud_latency_s / max(decision.total_latency_s, 1e-12) >= 1.0 - 1e-9

    def test_all_cloud_when_edge_is_hopeless(self):
        """A crippled edge device over a fast link offloads everything."""
        slow_edge = dataclasses.replace(get_profile("mcu-m4"), peak_flops=1e3)
        decision = find_best_split(self._graph(), slow_edge, get_profile("cloud"), _wifi())
        assert decision.split_after == -1
        assert decision.edge_latency_s == 0.0

    def test_all_edge_when_network_is_hopeless(self):
        decision = find_best_split(
            self._graph(), get_profile("phone-flagship"), get_profile("cloud"), NetworkCondition.of(NetworkType.LPWAN)
        )
        assert decision.split_after == len(self._graph()) - 1
        assert decision.transfer_s == 0.0
        assert decision.cloud_latency_s == 0.0

    def test_mlp_split_bounds_and_edge_monotonicity(self):
        graph = from_sequential(make_mlp(16, 4, hidden=(32, 16), seed=1))
        decision = find_best_split(
            graph, get_profile("phone-mid"), get_profile("cloud"), NetworkCondition.of(NetworkType.CELLULAR)
        )
        assert -1 <= decision.split_after < len(graph)
        assert decision.total_latency_s == pytest.approx(
            decision.edge_latency_s + decision.transfer_s + decision.cloud_latency_s
        )
