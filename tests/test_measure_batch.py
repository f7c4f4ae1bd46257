"""The batched measurement plane: folds, rates and four-way samples.

Every batched value must equal its per-path counterpart *bit for bit*
(``==`` on raw floats): the studies that batch are pinned by golden
files and by the object-mode identity suite.  The per-path counterparts
are the frozen scalar walk (``tests/reference/link_metrics.py``) and the
frozen timed transfers (``tests/reference/model_transfer.py``).
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from reference import link_metrics, model_transfer
from repro.cloud.provider import CloudProvider
from repro.core import CRONet
from repro.core.measure_plan import PathSetBatch, measure_four_ways_batch
from repro.errors import ConfigError, RoutingError, TransportError
from repro.net import Internet, TopologyConfig, generate_topology
from repro.net.asn import ASKind
from repro.net.diurnal import SECONDS_PER_DAY
from repro.net.fastpath import LegBatch
from repro.net.path import LegMetrics, PathMetrics, RouterPath
from repro.rand import RandomStreams
from repro.transport.throughput import (
    MIN_THROUGHPUT_MBPS,
    TcpParams,
    steady_state_rates,
    steady_state_throughput_mbps,
)

TIMES = (0.0, 1_800.0, 43_200.0, 90_000.0, 3 * SECONDS_PER_DAY + 7_777.0)
HOSTS = ("server", "client", "c2", "c3", "vm")


@pytest.fixture()
def net(small_internet):
    stubs = small_internet.topology.ases_of_kind(ASKind.STUB)
    small_internet.attach_host("c2", stubs[1].asn, kind="planetlab")
    small_internet.attach_host("c3", stubs[len(stubs) // 2].asn, kind="planetlab")
    return small_internet


def _walk(leg: tuple[RouterPath, ...], t: float) -> PathMetrics:
    """The frozen scalar walk over a leg's links, end to end."""
    return link_metrics.path_metrics(
        RouterPath(
            src_name=leg[0].src_name,
            dst_name=leg[-1].dst_name,
            router_ids=(),
            links=tuple(itertools.chain.from_iterable(seg.links for seg in leg)),
        ),
        t,
    )


def _legs(net) -> list[tuple[RouterPath, ...]]:
    """Direct legs between every host pair, and relayed legs via the VM."""
    direct = [
        (net.resolve_path(a, b),) for a, b in itertools.permutations(HOSTS, 2)
    ]
    relayed = [
        (net.resolve_path(a, "vm"), net.resolve_path("vm", b))
        for a, b in itertools.permutations(HOSTS[:4], 2)
    ]
    return direct + relayed


def _assert_matches_walk(metrics: LegMetrics, legs, t: float) -> None:
    for i, leg in enumerate(legs):
        expected = _walk(leg, t)
        assert metrics.rtt_ms[i] == expected.rtt_ms
        assert metrics.loss[i] == expected.loss
        assert metrics.bulk_loss[i] == expected.bulk_loss
        assert metrics.available_bw_mbps[i] == expected.available_bw_mbps
        assert metrics.capacity_mbps[i] == expected.capacity_mbps


class TestFold:
    def test_random_batches_match_the_object_walk(self, net):
        legs = _legs(net)
        # Mixed lengths: the relayed legs run about twice as long.
        assert len({sum(len(seg.links) for seg in leg) for leg in legs}) > 3
        rng = random.Random(5)
        for t in TIMES:
            # Repeated legs, in shuffled order, each batch fresh.
            batch = [rng.choice(legs) for _ in range(25)]
            _assert_matches_walk(LegBatch(batch).metrics(t), batch, t)

    def test_rows_never_read_before(self, net):
        legs = _legs(net)
        assert net.fastpath._read == []
        _assert_matches_walk(LegBatch(legs).metrics(TIMES[2]), legs, TIMES[2])
        assert net.fastpath._read

    def test_one_batch_over_many_instants(self, net):
        legs = _legs(net)
        batch = LegBatch(legs)
        for t in TIMES:
            _assert_matches_walk(batch.metrics(t), legs, t)

    def test_failed_and_impaired_links(self, net):
        legs = _legs(net)
        failed = legs[0][0].links[-1]
        failed.fail()
        # Impair links of legs the failure spares, so each impairment shows.
        spared = {
            link.link_id: link
            for leg in legs
            if all(failed.link_id != link.link_id for seg in leg for link in seg.links)
            for seg in leg
            for link in seg.links
        }
        impaired = list(spared.values())
        impaired[0].impair(extra_loss=0.2)
        impaired[1].impair(extra_delay_ms=40.0)
        impaired[2].impair(util_surge=0.9)
        impaired[3].impair(bulk_extra_loss=0.5)
        for t in TIMES:
            metrics = LegBatch(legs).metrics(t)
            _assert_matches_walk(metrics, legs, t)
        assert (metrics.loss == 1.0).any()
        assert (metrics.bulk_loss > metrics.loss).any()

    def test_links_inside_an_episode(self, net):
        legs = _legs(net)
        links = {
            link.link_id: link for leg in legs for seg in leg for link in seg.links
        }.values()
        in_episode = [
            t
            for t in np.arange(0.0, 7 * SECONDS_PER_DAY, 1_800.0).tolist()
            if any(link.load._episodes.extra_at(t) > 0.0 for link in links)
        ]
        assert in_episode
        for t in in_episode[:5]:
            _assert_matches_walk(LegBatch(legs).metrics(t), legs, t)

    def test_object_mode_and_hand_built_paths(self, net):
        legs = _legs(net)
        bare = [
            tuple(
                RouterPath(seg.src_name, seg.dst_name, seg.router_ids, seg.links)
                for seg in leg
            )
            for leg in legs
        ]
        for t in TIMES:
            _assert_matches_walk(LegBatch(bare).metrics(t), legs, t)

    def test_negative_time_raises_the_scalar_error(self, net):
        legs = _legs(net)
        with pytest.raises(ConfigError) as scalar:
            legs[0][0].metrics(-1.0)
        with pytest.raises(ConfigError) as batched:
            LegBatch(legs).metrics(-1.0)
        assert str(batched.value) == str(scalar.value)


class TestDrawCount:
    def test_fresh_instant_draws_only_the_batch_links(self, net):
        batch_path = net.resolve_path("server", "client")
        other = net.resolve_path("vm", "c2")
        # Both paths' rows are read, so an all-rows pass would draw both.
        batch_path.metrics(3_600.0)
        other.metrics(3_600.0)
        off_batch = {link.link_id for link in other.links} - {
            link.link_id for link in batch_path.links
        }
        assert off_batch

        t = 5 * SECONDS_PER_DAY + 3_600.0
        day = int(t // SECONDS_PER_DAY)
        LegBatch([(batch_path,)]).metrics(t)
        drawn = {
            link.link_id
            for link in net.links_by_id.values()
            if day in link.load._episodes._cache
        }
        assert drawn == {link.link_id for link in batch_path.links}


class TestRangeChecks:
    @pytest.mark.parametrize(
        "rtt, loss, bulk",
        [(-1.0, 0.0, 0.0), (10.0, 1.5, 1.5), (10.0, 0.0, -0.25), (10.0, float("nan"), 0.0)],
    )
    def test_same_error_as_path_metrics(self, rtt, loss, bulk):
        with pytest.raises(RoutingError) as scalar:
            PathMetrics(rtt, loss, 5.0, 10.0, bulk)
        arrays = LegMetrics(
            rtt_ms=np.array([20.0, rtt]),
            loss=np.array([0.0, loss]),
            bulk_loss=np.array([0.0, bulk]),
            available_bw_mbps=np.array([5.0, 5.0]),
            capacity_mbps=np.array([10.0, 10.0]),
        )
        with pytest.raises(RoutingError) as batched:
            arrays.checked()
        assert str(batched.value) == str(scalar.value)


def _rate_grid():
    """(rtt, loss, bulk, avail, capacity, mss, rwnd, efficiency) rows."""
    named = [
        (50.0, 0.0, 0.0, 100.0, 1_000.0, 1460, 1 << 20, 1.0),  # loss 0
        (50.0, 1.0, 1.0, 100.0, 1_000.0, 1460, 1 << 20, 1.0),  # dead
        (0.0, 1.0, 1.0, 0.0, 1_000.0, 1460, 1 << 20, 1.0),  # dead, zero RTT
        (50.0, 0.0, 0.05, 100.0, 1_000.0, 1460, 1 << 20, 1.0),  # bulk-only
        (200.0, 0.0, 0.0, 1_000.0, 1_000.0, 1460, 65_536, 1.0),  # rwnd-limited
        (10.0, 0.0, 0.0, 1_000.0, 5.0, 1460, 1 << 22, 1.0),  # capacity-limited
        (100.0, 0.02, 0.02, 1_000.0, 1_000.0, 1400, 1 << 22, 1.0),  # Mathis
        (50.0, 0.0, 0.0, 1e-6, 1_000.0, 1460, 1 << 20, 1.0),  # the floor
        (50.0, 0.01, 0.03, 80.0, 1_000.0, 1380, 1 << 20, 0.9),  # efficiency
    ]
    rng = random.Random(11)
    for _ in range(300):
        loss = rng.choice([0.0, 1.0, rng.random() * 0.1, rng.random()])
        named.append(
            (
                rng.uniform(0.5, 600.0),
                loss,
                rng.choice([loss, min(1.0, loss + rng.random() * 0.3)]),
                rng.choice([rng.uniform(0.0, 5.0), rng.uniform(0.0, 2_000.0)]),
                rng.uniform(1.0, 10_000.0),
                rng.choice([1460, 1400, 1380]),
                rng.choice([65_536, 1 << 20, 1 << 22]),
                rng.choice([1.0, 0.98, 0.9]),
            )
        )
    return named


class TestSteadyStateRates:
    def test_grid_matches_the_scalar_function(self):
        rows = _rate_grid()
        columns = [np.array(c, dtype=np.float64) for c in zip(*rows)]
        metrics = LegMetrics(*columns[:5])
        rates = steady_state_rates(metrics, *columns[5:])
        for row, rate in zip(rows, rates.tolist()):
            rtt, loss, bulk, avail, capacity, mss, rwnd, efficiency = row
            expected = steady_state_throughput_mbps(
                PathMetrics(rtt, loss, avail, capacity, bulk),
                TcpParams(mss_bytes=mss, rwnd_bytes=rwnd, efficiency=efficiency),
            )
            assert rate == expected, row
        assert MIN_THROUGHPUT_MBPS in rates.tolist()
        assert 0.0 in rates.tolist()

    def test_non_positive_rtt_on_a_live_leg_raises(self):
        scalar_metrics = PathMetrics(0.0, 0.1, 10.0, 10.0)
        with pytest.raises(TransportError) as scalar:
            steady_state_throughput_mbps(scalar_metrics, TcpParams())
        metrics = LegMetrics.stack([PathMetrics(20.0, 0.0, 10.0, 10.0), scalar_metrics])
        ones = np.ones(2)
        with pytest.raises(TransportError) as batched:
            steady_state_rates(metrics, ones * 1460, ones * (1 << 20), ones)
        assert str(batched.value) == str(scalar.value)


@pytest.fixture()
def cronet():
    streams = RandomStreams(seed=31)
    topo = generate_topology(TopologyConfig.small(), streams)
    dcs = ("dallas", "amsterdam", "tokyo")
    provider = CloudProvider.deploy(topo, dcs, streams)
    internet = Internet(topo, streams)
    stubs = topo.ases_of_kind(ASKind.STUB)
    internet.attach_host("srv", stubs[0].asn, kind="server", rwnd_bytes=4_194_304)
    internet.attach_host("cli", stubs[-1].asn, kind="planetlab")
    internet.attach_host("cli2", stubs[1].asn, kind="planetlab")
    return CRONet.build(internet, provider, list(dcs))


class TestFourWay:
    def test_batch_equals_the_per_connection_runs(self, cronet):
        pathsets = [
            cronet.path_set(a, b)
            for a, b in (("srv", "cli"), ("cli", "srv"), ("srv", "cli2"), ("cli2", "cli"))
        ]
        at_time, duration = 6 * 3_600.0, 30.0
        for pathset, got in zip(
            pathsets, measure_four_ways_batch(pathsets, at_time, duration)
        ):
            direct = pathset.direct_connection()
            assert got.direct == model_transfer.tcp_run(direct, at_time, duration)
            for option in pathset.options:
                name = option.name
                chain = pathset.split_chain(option)
                tunnel = pathset.overlay_connection(option)
                assert got.overlay[name] == model_transfer.tcp_run(tunnel, at_time, duration)
                assert got.split_overlay[name] == model_transfer.split_run(
                    chain, at_time, duration
                )
                assert got.discrete_mbps[name] == chain.discrete_bound_at(
                    at_time + duration / 2
                )

    def test_sample_equals_instantaneous_throughputs(self, cronet):
        pathsets = [cronet.path_set("srv", "cli"), cronet.path_set("cli2", "srv")]
        for t in TIMES:
            for pathset, sample in zip(pathsets, PathSetBatch(pathsets).sample(t)):
                assert sample.direct.rate_mbps == pathset.direct_connection().throughput_at(t)
                for option in pathset.options:
                    name = option.name
                    chain = pathset.split_chain(option)
                    tunnel = pathset.overlay_connection(option)
                    assert sample.overlay[name].rate_mbps == tunnel.throughput_at(t)
                    assert sample.split[name].rate_mbps == chain.throughput_at(t)
                    assert sample.discrete[name] == chain.discrete_bound_at(t)
