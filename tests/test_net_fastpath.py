"""Unit tests of the struct-of-arrays link-state mirror.

Identity assertions use ``==`` on raw floats on purpose: the mirror's
contract with the frozen scalar walk (``tests/reference/link_metrics.py``)
is *bit* equality, not approximate equality — a one-ulp drift would
break the study-level byte-identity guarantee downstream.
"""

from __future__ import annotations

import dataclasses

import pytest

from reference import link_metrics
from repro.control.controller import OverlayController
from repro.control.health import HealthConfig
from repro.control.metrics import MetricsRegistry
from repro.control.policy import BestPathPolicy
from repro.core.pathset import PathSet
from repro.errors import ConfigError, RoutingError
from repro.net.asn import ASKind
from repro.net.path import RouterPath
from repro.tunnel.node import OverlayNode

TIMES = (0.0, 1_800.0, 43_200.0, 90_000.0)


@pytest.fixture()
def fastpath(small_internet):
    return small_internet.fastpath


def _assert_lists_match_links(fastpath, t: float) -> None:
    # The lists only cover rows some path has read: read every row
    # first, so no link drops out of the check.
    state = fastpath.state_key()
    positions = fastpath._positions(range(len(fastpath._links)))
    one_way, loss, bulk, avail, util = fastpath.metric_lists(t, state)
    for p, link in zip(positions, fastpath._links, strict=True):
        assert one_way[p] == link_metrics.one_way_delay_ms(link, t)
        assert loss[p] == link_metrics.loss(link, t)
        assert bulk[p] == link_metrics.bulk_loss(link, t)
        assert avail[p] == link_metrics.available_bw_mbps(link, t)
        assert util[p] == link_metrics.utilization(link, t)


def _bare(path: RouterPath) -> RouterPath:
    """The same path without the world's mirror: it builds a private one."""
    return RouterPath(
        src_name=path.src_name,
        dst_name=path.dst_name,
        router_ids=path.router_ids,
        links=path.links,
    )


class TestMetricIdentity:
    def test_metric_lists_match_scalar_links_over_time(self, fastpath):
        for t in TIMES:
            _assert_lists_match_links(fastpath, t)

    def test_identity_holds_under_failures_and_impairments(
        self, small_internet, fastpath
    ):
        links = sorted(small_internet.links_by_id.values(), key=lambda l: l.link_id)
        links[0].fail()
        links[1].impair(
            extra_loss=0.2, extra_delay_ms=40.0, util_surge=0.3, bulk_extra_loss=0.5
        )
        links[2].impair(util_surge=0.9)
        for t in TIMES:
            _assert_lists_match_links(fastpath, t)

    def test_path_metrics_match_object_walk(self, small_internet):
        path = small_internet.resolve_live_path("server", "client")
        for t in TIMES:
            assert path.metrics(t) == link_metrics.path_metrics(path, t)
            assert path.hop_metrics(t) == link_metrics.hop_metrics(path, t)
            assert path.is_alive() == link_metrics.path_alive(path)

    def test_cached_instant_extends_to_unread_links(self, small_internet, fastpath):
        first = small_internet.resolve_live_path("server", "client")
        second = small_internet.resolve_live_path("vm", "client")
        first_ids = {link.link_id for link in first.links}
        unread = [link for link in second.links if link.link_id not in first_ids]
        assert len(unread) >= 2
        # An instant inside one of an unread link's episodes.
        t = next(
            ep.start_s + ep.duration_s / 2.0
            for day in range(30)
            for ep in unread[0].load._episodes.episodes_for_day(day)
        )
        assert unread[0].load._episodes.extra_at(t) > 0.0
        unread[1].impair(extra_loss=0.1, extra_delay_ms=15.0, util_surge=0.2)
        first.metrics(t)
        state = fastpath.state_key()
        entry = fastpath._mcache[(t, state)]
        assert len(entry[0]) == len(first_ids)
        assert second.metrics(t) == link_metrics.path_metrics(second, t)
        assert fastpath.state_key() == state
        assert fastpath._mcache[(t, state)] is entry  # extended in place
        assert len(entry[0]) == len(first_ids) + len(unread)
        assert first.metrics(t) == link_metrics.path_metrics(first, t)


class TestPrivateMirrors:
    """Hand-built paths read a mirror over their own links."""

    def test_hand_built_path_matches_the_world_mirror(self, small_internet):
        path = small_internet.resolve_live_path("server", "client")
        bare = _bare(path)
        path.links[1].impair(extra_loss=0.1, util_surge=0.5, bulk_extra_loss=0.2)
        for t in TIMES:
            assert bare.metrics(t) == path.metrics(t)
            assert bare.hop_metrics(t) == path.hop_metrics(t)
        assert bare.__dict__["_fastpath"] is not small_internet.fastpath

    def test_concatenate_keeps_only_a_shared_mirror(self, small_internet):
        to_vm = small_internet.resolve_path("server", "vm")
        from_vm = small_internet.resolve_path("vm", "client")
        joined = to_vm.concatenate(from_vm)
        assert joined.__dict__["_fastpath"] is small_internet.fastpath
        mixed = to_vm.concatenate(_bare(from_vm))
        assert "_fastpath" not in mixed.__dict__
        assert mixed.metrics(600.0) == joined.metrics(600.0)
        assert mixed.__dict__["_fastpath"] is not small_internet.fastpath

    def test_two_links_with_one_id_are_refused(self, small_internet):
        path = small_internet.resolve_live_path("server", "client")
        twin = dataclasses.replace(path.links[0])
        bare = RouterPath("a", "b", (), (path.links[0], twin))
        with pytest.raises(RoutingError, match="reuses a link id"):
            bare.metrics(0.0)

    def test_negative_time_raises_even_on_a_dead_path(self, small_internet):
        path = small_internet.resolve_live_path("server", "client")
        for link in path.links:
            link.fail()
        for read in (path.metrics, path.hop_metrics, _bare(path).metrics):
            with pytest.raises(ConfigError, match="time must be >= 0"):
                read(-1.0)


class TestRowsRead:
    """Only the links some path folds are evaluated or draw episodes."""

    def test_fold_reads_only_its_path(self, small_internet, fastpath):
        path = small_internet.resolve_live_path("server", "client")
        t = 43_200.0
        path.metrics(t)
        rows = [fastpath._row[link.link_id] for link in path.links]
        distinct = list(dict.fromkeys(rows))
        lists = fastpath.metric_lists(t, fastpath.state_key())
        assert [len(values) for values in lists] == [len(distinct)] * 5
        assert fastpath._read == distinct
        on_path = {link.link_id for link in path.links}
        drawn = [
            link.link_id
            for link in small_internet.links_by_id.values()
            if link.link_id not in on_path and link.load._episodes._cache
        ]
        assert drawn == []

    def test_liveness_registers_no_rows(self, small_internet, fastpath):
        path = small_internet.resolve_live_path("server", "client")
        path.links[0].fail()
        assert not path.is_alive()
        assert fastpath._read == []


class TestInvalidation:
    """Direct link mutations (no invalidate_path_cache call) must be
    visible on the very next query — the epoch compare is the contract."""

    def test_direct_fail_restore_tracked(self, small_internet):
        path = small_internet.resolve_live_path("server", "client")
        t = 1_200.0
        before = path.metrics(t)
        assert path.is_alive()
        link = path.links[0]
        link.fail()
        assert not path.is_alive()
        assert path.metrics(t).loss == 1.0
        link.restore()
        assert path.is_alive()
        assert path.metrics(t) == before

    def test_direct_impairment_tracked(self, small_internet):
        path = small_internet.resolve_live_path("server", "client")
        t = 1_200.0
        before = path.metrics(t)
        link = path.links[0]
        link.impair(extra_delay_ms=25.0)
        assert path.metrics(t).rtt_ms == before.rtt_ms + 50.0
        link.clear_impairment()
        assert path.metrics(t) == before


class TestStateInterning:
    def test_rewound_state_reuses_its_id(self, small_internet, fastpath):
        clean = fastpath.state_key()
        link = sorted(small_internet.links_by_id.values(), key=lambda l: l.link_id)[0]
        link.fail()
        failed = fastpath.state_key()
        assert failed != clean
        link.restore()
        assert fastpath.state_key() == clean
        link.fail()
        assert fastpath.state_key() == failed

    def test_rows_stable_across_host_attach(self, small_internet, fastpath):
        fastpath.sync()
        rows_before = dict(fastpath._row)
        stub = small_internet.topology.ases_of_kind(ASKind.STUB)[1]
        small_internet.attach_host("late-probe", stub.asn, kind="planetlab")
        fastpath.sync()
        for link_id, row in rows_before.items():
            assert fastpath._row[link_id] == row

    def test_positions_and_cached_instants_survive_host_attach(
        self, small_internet, fastpath
    ):
        path = small_internet.resolve_live_path("server", "client")
        t = 1_800.0
        before = path.metrics(t)
        state = fastpath.state_key()
        read = list(fastpath._read)
        positions = list(path.__dict__["_fp_pos"])
        entry = fastpath._mcache[(t, state)]
        values = [list(v) for v in entry]
        stub = small_internet.topology.ases_of_kind(ASKind.STUB)[1]
        small_internet.attach_host("late-probe", stub.asn, kind="planetlab")
        assert fastpath.state_key() != state  # one more link in the state
        assert fastpath._read == read
        assert path.__dict__["_fp_pos"] == positions
        assert fastpath._mcache[(t, state)] is entry
        assert [list(v) for v in entry] == values
        late = small_internet.resolve_live_path("late-probe", "server")
        assert late.metrics(t) == link_metrics.path_metrics(late, t)
        assert path.metrics(t) == before


class TestDecisionMemoInvalidation:
    """Regression: injector-style mutations bypass invalidate_path_cache
    entirely, yet the memoized rates the controller reads through
    ``PathSet.rate`` must not serve a stale decision across the flip."""

    def _controller(self, small_internet):
        node = OverlayNode(host=small_internet.host("vm"))
        pathset = PathSet.build(small_internet, "server", "client", [node])
        return OverlayController(
            internet=small_internet,
            pathset=pathset,
            policy=BestPathPolicy(),
            scheduler=None,
            health_config=HealthConfig(),
            metrics=MetricsRegistry(),
            tick_s=5.0,
        )

    def test_link_flip_mid_episode_invalidates_rate_memo(self, small_internet):
        controller = self._controller(small_internet)
        controller.active = ("direct",)
        now = 600.0
        warm = controller._goodput(now)
        assert warm > 0.0
        assert controller._goodput(now) == warm  # memo hit
        overlay_ids = {
            link.link_id
            for option in controller.pathset.options
            for link in option.concatenated.links
        }
        link = next(
            link
            for link in controller.pathset.direct.links
            if link.link_id not in overlay_ids
        )
        link.fail()  # no invalidate_path_cache, exactly like a fault event
        assert controller._goodput(now) == 0.0
        link.restore()
        assert controller._goodput(now) == warm
