"""Ablation benches for the design choices DESIGN.md calls out.

* split-TCP vs plain tunnel (the paper's own headline ablation),
* GRE vs IPsec encapsulation overhead,
* overlay port speed: 100 Mbps vs 1 Gbps nodes (Sec. VII-C),
* probing vs MPTCP path selection (overhead + staleness, Sec. VI),
* one-hop vs two-hop overlay paths (Sec. VII-B),
* greedy placement vs naive placement (Sec. VII-A).
"""

from __future__ import annotations

import numpy as np

from repro.cloud.datacenter import PortSpeed
from repro.core.pathset import PathType
from repro.core.selection import MptcpSelector, ProbingSelector
from repro.experiments.multihop_exp import run_multihop
from repro.experiments.placement_exp import run_placement
from repro.experiments.scenario import build_world
from repro.tunnel import TunnelSpec, TunnelType

AT = 6 * 3_600.0


def test_ablation_split_vs_plain(benchmark):
    """Split-TCP is the mechanism that makes CRONets work."""

    def run():
        world = build_world(seed=29, scale="small")
        cronet = world.cronet()
        plain_wins = split_wins = 0
        for client in world.client_names():
            for server in world.server_names:
                pathset = cronet.path_set(server, client)
                direct = pathset.direct_connection().throughput_at(AT)
                plain = pathset.best_overlay(PathType.OVERLAY, AT)[1]
                split = pathset.best_overlay(PathType.SPLIT_OVERLAY, AT)[1]
                plain_wins += plain > direct
                split_wins += split > direct
        return plain_wins, split_wins

    plain_wins, split_wins = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nplain tunnel wins: {plain_wins}, split-TCP wins: {split_wins}")
    assert split_wins > plain_wins


def test_ablation_encapsulation_overhead(benchmark):
    """IPsec's bigger header costs measurable MSS (and thus Mathis rate)."""

    def run():
        gre = TunnelSpec(tunnel_type=TunnelType.GRE)
        ipsec = TunnelSpec(tunnel_type=TunnelType.IPSEC_ESP)
        return gre.inner_mss_bytes, ipsec.inner_mss_bytes

    gre_mss, ipsec_mss = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nGRE inner MSS: {gre_mss}, IPsec inner MSS: {ipsec_mss}")
    assert gre_mss > ipsec_mss
    # The throughput impact is proportional to the MSS ratio.
    assert ipsec_mss / gre_mss > 0.9  # small, but real


def test_ablation_port_speed(benchmark):
    """Sec. VII-C: 1 Gbps overlay nodes lift the relay ceiling."""

    def run():
        world = build_world(seed=37, scale="small")
        slow = world.cronet(["washington_dc"])
        from repro.core.cronet import CRONet

        fast = CRONet.build(
            world.internet, world.cloud, ["dallas"], port_speed=PortSpeed.GBPS_1
        )
        client = world.client_names()[0]
        server = world.server_names[0]
        slow_best = slow.path_set(server, client).best_overlay(
            PathType.DISCRETE_OVERLAY, AT
        )[1]
        fast_best = fast.path_set(server, client).best_overlay(
            PathType.DISCRETE_OVERLAY, AT
        )[1]
        return slow_best, fast_best

    slow_best, fast_best = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n100 Mbps node: {slow_best:.2f} Mbps, 1 Gbps node: {fast_best:.2f} Mbps")
    # The fast node never does worse; the endpoints' own 100 Mbps NICs
    # still cap the end-to-end rate (which is the paper's observation
    # that 100 Mbps relays were "high enough" for these paths).
    assert fast_best >= slow_best * 0.8
    assert fast_best <= 100.0


def test_ablation_selection_strategies(benchmark):
    """Sec. VI: probing costs bytes and goes stale; MPTCP does neither."""

    def run():
        world = build_world(seed=41, scale="small")
        cronet = world.cronet()
        client = world.client_names()[1]
        server = world.server_names[0]
        pathset = cronet.path_set(server, client)

        prober = ProbingSelector(pathset)
        prober.probe(AT)
        stale = prober.select(AT + 12 * 3_600.0)

        mptcp = MptcpSelector(pathset)
        fresh = mptcp.select(AT + 12 * 3_600.0, 15.0, np.random.default_rng(2))
        return prober.total_overhead_bytes, stale, fresh

    overhead, stale, fresh = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nprobing overhead: {overhead / 1e6:.1f} MB; "
          f"stale choice {stale.chosen!r} at {stale.stale_s / 3600:.0f} h; "
          f"mptcp {fresh.throughput_mbps:.2f} Mbps with 0 probe bytes")
    assert overhead > 0
    assert stale.stale_s > 0
    assert fresh.probe_overhead_bytes == 0
    assert fresh.stale_s == 0.0


def test_ablation_multihop(benchmark):
    """Sec. VII-B: a second relay helps a real fraction of pairs."""
    result = benchmark.pedantic(
        lambda: run_multihop(seed=7, scale="small", n_pairs=10), rounds=1, iterations=1
    )
    print()
    print(result.render())
    # Two-hop paths help some pairs but are no panacea.
    assert 0.0 < result.fraction_two_hop_wins() < 1.0


def test_ablation_placement(benchmark):
    """Sec. VII-A: greedy placement front-loads the gain."""
    result = benchmark.pedantic(
        lambda: run_placement(seed=7, scale="small", budget=5), rounds=1, iterations=1
    )
    print()
    print(result.render())
    assert result.first_two_capture() >= 0.75
    gains = result.marginal_gains()
    assert gains[0] > gains[-1]
