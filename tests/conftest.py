"""Shared fixtures: a small deterministic world reused across tests."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.net import Internet, TopologyConfig, generate_topology
from repro.net.asn import ASKind
from repro.rand import RandomStreams

#: A long search for manual runs: ``pytest --hypothesis-profile thorough``.
settings.register_profile("thorough", max_examples=2_000)


@pytest.fixture(scope="session")
def small_topology():
    """A small generated topology (session-scoped: generation is pure)."""
    streams = RandomStreams(seed=1234)
    return generate_topology(TopologyConfig.small(), streams)


@pytest.fixture()
def small_internet():
    """A freshly built small Internet with a cloud AS and three hosts.

    Function-scoped because tests mutate link state (failures) and
    attach hosts.
    """
    streams = RandomStreams(seed=1234)
    topo = generate_topology(TopologyConfig.small(), streams)
    t1s = [a.asn for a in topo.ases_of_kind(ASKind.TIER1)]
    transits = [a.asn for a in topo.ases_of_kind(ASKind.TRANSIT)]
    cloud = topo.add_cloud_as(
        "softcloud",
        ("dallas", "amsterdam", "tokyo", "san_jose", "washington_dc"),
        t1s[:2],
        transits,
    )
    net = Internet(topo, streams)
    stubs = topo.ases_of_kind(ASKind.STUB)
    net.attach_host("client", stubs[0].asn, kind="planetlab")
    net.attach_host("server", stubs[-1].asn, kind="server")
    net.attach_host("vm", cloud.asn, kind="cloud_vm")
    net.cloud_asn = cloud.asn  # convenience for tests
    return net
