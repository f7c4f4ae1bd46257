"""IPv4 addressing plan."""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, TopologyError
from repro.net.addressing import AddressPlan


class TestAllocation:
    def test_distinct_blocks_per_as(self):
        plan = AddressPlan()
        a = plan.allocate_as(100)
        b = plan.allocate_as(101)
        assert not a.network.overlaps(b.network)
        assert plan.allocate_as(100) is a  # idempotent

    def test_router_addresses_unique_and_inside_block(self):
        plan = AddressPlan()
        addresses = {plan.assign_router(rid, 100) for rid in range(1, 50)}
        assert len(addresses) == 49
        block = plan.allocate_as(100).network
        for address in addresses:
            assert ipaddress.ip_address(address) in block

    def test_host_addresses_from_top_of_block(self):
        plan = AddressPlan()
        router = plan.assign_router(1, 100)
        host = plan.assign_host("h1", 100)
        block = plan.allocate_as(100).network
        assert ipaddress.ip_address(host) in block
        assert ipaddress.ip_address(host) > ipaddress.ip_address(router)

    def test_assignments_idempotent(self):
        plan = AddressPlan()
        assert plan.assign_router(7, 100) == plan.assign_router(7, 100)
        assert plan.assign_host("x", 100) == plan.assign_host("x", 100)

    def test_owner_lookup(self):
        plan = AddressPlan()
        other = plan.allocate_as(124)
        address = ipaddress.ip_address(plan.assign_host("x", 123))
        assert address in plan.allocate_as(123).network
        assert address not in other.network

    def test_unassigned_lookups_rejected(self):
        plan = AddressPlan()
        with pytest.raises(TopologyError):
            plan.router_address(1)

    def test_negative_indices_rejected(self):
        plan = AddressPlan()
        allocation = plan.allocate_as(5)
        with pytest.raises(ConfigError):
            allocation.router_address(-1)
        with pytest.raises(ConfigError):
            allocation.host_address(-1)

    @given(st.lists(st.integers(min_value=1, max_value=5_000), min_size=1,
                    max_size=150, unique=True))
    def test_all_router_addresses_distinct(self, router_ids):
        """Across several ASes, every router address is unique."""
        plan = AddressPlan()
        addresses = [plan.assign_router(rid, 100 + rid % 7) for rid in router_ids]
        assert len(set(addresses)) == len(addresses)


class TestWorldIntegration:
    def test_hosts_get_addresses(self, small_internet):
        for host in small_internet.hosts.values():
            assert host.ip_address != "0.0.0.0"
            block = small_internet.addresses.allocate_as(host.asn).network
            assert ipaddress.ip_address(host.ip_address) in block

    def test_routers_get_addresses(self, small_internet):
        for router in small_internet.routers:
            address = small_internet.addresses.router_address(router.router_id)
            block = small_internet.addresses.allocate_as(router.asn).network
            assert ipaddress.ip_address(address) in block

    def test_traceroute_shows_addresses(self, small_internet):
        from repro.measure import traceroute

        path = small_internet.resolve_path("client", "server")
        hops = traceroute(small_internet, path, 0.0)
        assert all(hop.address != "0.0.0.0" for hop in hops)
        assert hops[0].address == small_internet.host("client").ip_address
