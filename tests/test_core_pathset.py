"""PathSet, four-way measurements, CRONet construction."""

from __future__ import annotations

import pytest

from repro.cloud.provider import CloudProvider
from repro.control.controller import OverlayController
from repro.control.policy import BestPathPolicy
from repro.control.probes import ProbeConfig, ProbeScheduler
from repro.core import CRONet, PathSet, PathType, measure_four_ways
from repro.errors import ConfigError, MeasurementError
from repro.net import Internet, TopologyConfig, generate_topology
from repro.rand import RandomStreams
from repro.tunnel.node import NodeMode

T0 = 6 * 3_600.0


@pytest.fixture()
def cronet_world():
    streams = RandomStreams(seed=31)
    topo = generate_topology(TopologyConfig.small(), streams)
    provider = CloudProvider.deploy(topo, ("dallas", "amsterdam", "tokyo"), streams)
    internet = Internet(topo, streams)
    from repro.net.asn import ASKind

    stubs = topo.ases_of_kind(ASKind.STUB)
    internet.attach_host("srv", stubs[0].asn, kind="server", rwnd_bytes=4_194_304)
    internet.attach_host("cli", stubs[-1].asn, kind="planetlab")
    cronet = CRONet.build(internet, provider, ["dallas", "amsterdam", "tokyo"])
    return internet, provider, cronet


class TestCRONetBuild:
    def test_one_node_per_dc(self, cronet_world):
        _net, _provider, cronet = cronet_world
        assert len(cronet.nodes) == 3
        cities = {node.host.city_name for node in cronet.nodes}
        assert cities == {"dallas", "amsterdam", "tokyo"}

    def test_monthly_cost_positive(self, cronet_world):
        _net, provider, cronet = cronet_world
        assert cronet.monthly_cost_usd() == pytest.approx(provider.monthly_bill_usd())
        assert cronet.monthly_cost_usd() > 0

    def test_node_lookup_and_subset(self, cronet_world):
        _net, _provider, cronet = cronet_world
        name = cronet.node_names[1]
        assert cronet.node(name).name == name
        subset = cronet.subset([name])
        assert subset.node_names == [name]
        with pytest.raises(ConfigError):
            cronet.node("missing")

    def test_build_validation(self, cronet_world):
        net, provider, _cronet = cronet_world
        with pytest.raises(ConfigError):
            CRONet.build(net, provider, [])
        with pytest.raises(ConfigError):
            CRONet.build(net, provider, ["dallas", "dallas"])


class TestPathSet:
    def test_build_shape(self, cronet_world):
        _net, _provider, cronet = cronet_world
        pathset = cronet.path_set("srv", "cli")
        assert pathset.direct.src_name == "srv"
        assert len(pathset.options) == 3
        assert len(pathset.all_candidate_paths()) == 4

    def test_tunnels_established_toward_receiver(self, cronet_world):
        _net, _provider, cronet = cronet_world
        cronet.path_set("srv", "cli")
        for node in cronet.nodes:
            assert node.tunnel_for("cli")

    def test_node_cannot_be_endpoint(self, cronet_world):
        net, _provider, cronet = cronet_world
        node_name = cronet.node_names[0]
        with pytest.raises(ConfigError):
            PathSet.build(net, node_name, "cli", cronet.nodes)

    def test_throughput_modes(self, cronet_world):
        _net, _provider, cronet = cronet_world
        pathset = cronet.path_set("srv", "cli")
        direct = pathset.throughput(PathType.DIRECT, T0)
        assert set(direct) == {"direct"}
        for mode in (PathType.OVERLAY, PathType.SPLIT_OVERLAY, PathType.DISCRETE_OVERLAY):
            per_node = pathset.throughput(mode, T0)
            assert set(per_node) == set(cronet.node_names)
            assert all(v > 0 for v in per_node.values())

    def test_discrete_bounds_split(self, cronet_world):
        """Discrete overlay is the split-overlay's upper bound (Sec. II)."""
        _net, _provider, cronet = cronet_world
        pathset = cronet.path_set("srv", "cli")
        split = pathset.throughput(PathType.SPLIT_OVERLAY, T0)
        discrete = pathset.throughput(PathType.DISCRETE_OVERLAY, T0)
        for name in split:
            assert split[name] <= discrete[name] + 1e-9

    def test_overlay_mss_reduced_by_tunnel(self, cronet_world):
        _net, _provider, cronet = cronet_world
        pathset = cronet.path_set("srv", "cli")
        conn = pathset.overlay_connection(pathset.options[0])
        assert conn.params.mss_bytes < 1_460

    def test_best_overlay(self, cronet_world):
        _net, _provider, cronet = cronet_world
        pathset = cronet.path_set("srv", "cli")
        name, value = pathset.best_overlay(PathType.SPLIT_OVERLAY, T0)
        per_node = pathset.throughput(PathType.SPLIT_OVERLAY, T0)
        assert value == max(per_node.values())
        assert per_node[name] == value
        with pytest.raises(ConfigError):
            pathset.best_overlay(PathType.DIRECT, T0)


def _factory_rate(pathset: PathSet, mode: PathType, label: str, t: float) -> float:
    """The rate straight from the connection factories, no memo."""
    if label == "direct":
        return pathset.direct_connection().throughput_at(t)
    option = next(option for option in pathset.options if option.name == label)
    if mode is PathType.OVERLAY:
        return pathset.overlay_connection(option).throughput_at(t)
    chain = pathset.split_chain(option)
    if mode is PathType.DISCRETE_OVERLAY:
        return chain.discrete_bound_at(t)
    return chain.throughput_at(t)


def _labels(pathset: PathSet, mode: PathType) -> list[str]:
    if mode is PathType.DIRECT:
        return ["direct"]
    return ["direct", *(option.name for option in pathset.options)]


class TestRate:
    def test_equals_the_connection_factories(self, cronet_world):
        _net, _provider, cronet = cronet_world
        pathset = cronet.path_set("srv", "cli")
        dead = pathset.options[0]
        for t in (0.0, T0, T0 + 1_800.0):
            for mode in PathType:
                for label in _labels(pathset, mode):
                    got = pathset.rate(mode, label, t)
                    assert repr(got) == repr(_factory_rate(pathset, mode, label, t))
        # The relay's access link carries both legs of its option only.
        dead.node.host.access_link.fail()
        try:
            for mode in PathType:
                for label in _labels(pathset, mode):
                    got = pathset.rate(mode, label, T0)
                    assert repr(got) == repr(_factory_rate(pathset, mode, label, T0))
                    if label == dead.name:
                        assert repr(got) == "0.0"
                    else:
                        assert got > 0.0
        finally:
            dead.node.host.access_link.restore()
        assert pathset.rate(PathType.SPLIT_OVERLAY, dead.name, T0) > 0.0

    def test_probe_at_a_tick_instant_evaluates_nothing(self, cronet_world, monkeypatch):
        net, _provider, cronet = cronet_world
        pathset = cronet.path_set("srv", "cli")
        probes = ProbeScheduler(pathset, ProbeConfig(), RandomStreams(seed=5).stream("probe"))
        controller = OverlayController(
            net, pathset, BestPathPolicy(), scheduler=probes, track_oracle=True
        )
        controller.run(60.0)  # ticks every 5 s; the oracle rates every label
        evaluated = []
        cold = PathSet._rate_cold

        def counting(self, *args):
            evaluated.append(args)
            return cold(self, *args)

        monkeypatch.setattr(PathSet, "_rate_cold", counting)
        for t in (0.0, 30.0, 55.0):
            for label in probes.labels:
                result = probes.probe(label, t)
                assert result.throughput_mbps == pathset.rate(PathType.SPLIT_OVERLAY, label, t)
        assert evaluated == []
        pathset.rate(PathType.OVERLAY, "direct", 57.5)  # off the tick grid
        assert len(evaluated) == 1

    def test_unknown_label_rejected(self, cronet_world):
        _net, _provider, cronet = cronet_world
        pathset = cronet.path_set("srv", "cli")
        with pytest.raises(ConfigError, match="ghost"):
            pathset.rate(PathType.SPLIT_OVERLAY, "ghost", T0)
        overlay = pathset.options[0].name
        with pytest.raises(ConfigError, match=overlay):
            pathset.rate(PathType.DIRECT, overlay, T0)
        # "direct" is one path under every mode.
        assert pathset.rate(PathType.DIRECT, "direct", T0) == pathset.rate(
            PathType.DISCRETE_OVERLAY, "direct", T0
        )


class TestFourWay:
    def test_measurement_fields(self, cronet_world):
        _net, _provider, cronet = cronet_world
        pathset = cronet.path_set("srv", "cli")
        m = measure_four_ways(pathset, T0, duration_s=10.0)
        assert m.direct.throughput_mbps > 0
        assert set(m.overlay) == set(cronet.node_names)
        assert set(m.split_overlay) == set(cronet.node_names)
        assert m.best_discrete_mbps() >= m.best_split_mbps() - 1e-9
        assert m.improvement_ratio(m.best_split_mbps()) > 0
        assert m.min_overlay_rtt_ms() > 0

    def test_no_options_rejected(self, cronet_world):
        net, _provider, _cronet = cronet_world
        pathset = PathSet.build(net, "srv", "cli", [])
        with pytest.raises(MeasurementError):
            measure_four_ways(pathset, T0)


class TestNodeModes:
    def test_split_mode_cronet(self, cronet_world):
        net, provider, _cronet = cronet_world
        split_net = CRONet.build(net, provider, ["dallas"], mode=NodeMode.SPLIT)
        assert split_net.nodes[0].mode is NodeMode.SPLIT
