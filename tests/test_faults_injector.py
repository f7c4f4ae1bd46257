"""FaultInjector: correlated events applied against a live Internet."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults.events import (
    AsOutage,
    GrayFailure,
    LinkOutage,
    ProbeFaultEvent,
    ProbeFaultKind,
    RouteFlap,
    Window,
)
from repro.faults.injector import FaultInjector, ProbeFaultModel
from repro.net.path import RouterPath
from repro.rand import RandomStreams


def _hop(link, t: float):
    """(one-way delay, loss, bulk loss) of a link at ``t``, via a one-link path."""
    metrics = RouterPath("a", "b", (link.router_a, link.router_b), (link,)).hop_metrics(t)
    return metrics.one_way_ms[0], metrics.loss[0], metrics.bulk_loss[0]


def any_link(small_internet):
    return next(iter(small_internet.links_by_id.values()))


class TestInjection:
    def test_outage_follows_clock(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(100.0, 50.0)))
        injector.install()
        assert not link.failed
        small_internet.set_time(120.0)
        assert link.failed
        small_internet.set_time(160.0)
        assert not link.failed

    def test_unknown_link_rejected(self, small_internet):
        injector = FaultInjector(small_internet)
        with pytest.raises(ConfigError):
            injector.add(LinkOutage(link_ids=(999_999,), window=Window(0.0, 1.0)))

    def test_as_outage_fails_every_as_link(self, small_internet):
        asn = next(iter(small_internet.topology.ases))
        event = AsOutage.for_as(small_internet, asn, Window(50.0, 100.0))
        injector = FaultInjector(small_internet)
        injector.add(event)
        injector.install()
        small_internet.set_time(75.0)
        assert all(
            small_internet.links_by_id[link_id].failed for link_id in event.link_ids
        )
        small_internet.set_time(200.0)
        assert not any(
            small_internet.links_by_id[link_id].failed for link_id in event.link_ids
        )

    def test_gray_failure_impairs_without_failing(self, small_internet):
        link = any_link(small_internet)
        clean_delay, clean_loss, _ = _hop(link, 120.0)
        injector = FaultInjector(small_internet)
        injector.add(
            GrayFailure(
                link_ids=(link.link_id,), window=Window(100.0, 50.0),
                drop_fraction=0.3, extra_delay_ms=25.0,
            )
        )
        injector.install()
        small_internet.set_time(120.0)
        assert not link.failed
        assert (link.extra_loss, link.extra_delay_ms) == (0.3, 25.0)
        delay, loss, _ = _hop(link, 120.0)
        assert loss > clean_loss
        assert delay == pytest.approx(clean_delay + 25.0)
        small_internet.set_time(200.0)
        assert (link.extra_loss, link.extra_delay_ms) == (0.0, 0.0)

    def test_uninstall_restores_everything(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(0.0, 100.0)))
        injector.add(
            GrayFailure(
                link_ids=(link.link_id,), window=Window(0.0, 100.0), drop_fraction=0.5
            )
        )
        injector.install()
        assert link.failed
        injector.uninstall()
        assert not link.failed
        assert link.extra_loss == 0.0
        assert injector.apply not in small_internet.clock_hooks

    def test_rewind_replays_identically(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(100.0, 50.0)))
        injector.install()

        def states():
            out = []
            small_internet.set_time(0.0)
            for _ in range(20):
                small_internet.advance(10.0)
                out.append(link.failed)
            return out

        assert states() == states()


def outage(link, start_s: float, duration_s: float) -> LinkOutage:
    return LinkOutage(link_ids=(link.link_id,), window=Window(start_s, duration_s))


class TestOverlappingEvents:
    def test_overlap_keeps_link_down_through_union(self, small_internet):
        # [100, 200) and [150, 300): the first event's end must not
        # restore the link while the second still covers the instant.
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(outage(link, 100.0, 100.0))
        injector.add(outage(link, 150.0, 150.0))
        injector.install()
        for t, down in ((99.0, False), (120.0, True), (250.0, True), (300.0, False)):
            small_internet.set_time(t)
            assert link.failed is down, f"at t={t}"

    def test_adjacent_windows_merge_seamlessly(self, small_internet):
        # [100, 200) then [200, 300): no one-instant blip in between.
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(outage(link, 100.0, 100.0))
        injector.add(outage(link, 200.0, 100.0))
        injector.install()
        for t in (199.0, 200.0, 201.0, 299.0):
            small_internet.set_time(t)
            assert link.failed, f"at t={t}"
        small_internet.set_time(300.0)
        assert not link.failed

    def test_second_injector_never_restores_a_link_the_first_holds(
        self, small_internet
    ):
        # The outer injector holds [100, 300); the inner one's event
        # ends at 200 and must not bring the link up early.
        link = any_link(small_internet)
        outer = FaultInjector(small_internet)
        outer.add(outage(link, 100.0, 200.0))
        outer.install()
        inner = FaultInjector(small_internet)
        inner.add(outage(link, 150.0, 50.0))
        inner.install()
        small_internet.set_time(175.0)
        assert link.failed
        small_internet.set_time(250.0)  # inner event over, outer still active
        assert link.failed
        small_internet.set_time(350.0)
        assert not link.failed


class TestOwnership:
    """The injector restores only links *it* failed."""

    def test_manual_failure_survives_window_end(self, small_internet):
        # A link failed by hand before an overlapping window ends must
        # stay down: the injector never owned it.
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(outage(link, 100.0, 100.0))
        injector.install()
        link.fail()  # manual, outside any apply()
        small_internet.set_time(150.0)  # window active; link already down
        assert link.failed
        small_internet.set_time(250.0)  # window over; manual failure persists
        assert link.failed
        link.restore()

    def test_injected_failure_still_restored(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(outage(link, 100.0, 100.0))
        injector.install()
        small_internet.set_time(150.0)  # the injector itself fails the link
        assert link.failed
        small_internet.set_time(250.0)
        assert not link.failed

    def test_ownership_resets_each_window(self, small_internet):
        # Own the link in window one, release it, then respect a manual
        # failure that lands between the windows.
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(outage(link, 100.0, 50.0))
        injector.add(outage(link, 300.0, 50.0))
        injector.install()
        small_internet.set_time(120.0)
        assert link.failed
        small_internet.set_time(200.0)
        assert not link.failed
        link.fail()  # manual failure between the two windows
        small_internet.set_time(320.0)
        assert link.failed
        small_internet.set_time(400.0)  # second window ends: manual owner keeps it
        assert link.failed
        link.restore()

    def test_install_keeps_a_manually_failed_link_down(self, small_internet):
        # Installing at t=0, before the event's window, must not bring
        # up a link someone else failed.
        link = any_link(small_internet)
        link.fail()
        injector = FaultInjector(small_internet)
        injector.add(outage(link, 100.0, 50.0))
        injector.install()
        assert link.failed
        link.restore()

    def test_uninstall_keeps_a_manually_failed_link_down(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(outage(link, 100.0, 50.0))
        injector.install()
        link.fail()  # manual failure before the window opens
        small_internet.set_time(120.0)
        injector.uninstall()
        assert link.failed
        link.restore()

    def test_unmanaged_links_left_alone(self, small_internet):
        links = iter(small_internet.links_by_id.values())
        scheduled, bystander = next(links), next(links)
        injector = FaultInjector(small_internet)
        injector.add(outage(scheduled, 100.0, 50.0))
        injector.install()
        bystander.fail()  # manual failure on a link no event names
        small_internet.set_time(200.0)
        injector.uninstall()
        assert bystander.failed
        bystander.restore()


class TestRouteFlapEdges:
    def test_each_edge_invalidates_path_cache(self, small_internet):
        link = any_link(small_internet)
        path = small_internet.resolve_path("client", "server")
        assert small_internet.resolve_path("client", "server") is path  # cached
        injector = FaultInjector(small_internet)
        injector.add(
            RouteFlap(
                link_ids=(link.link_id,), window=Window(100.0, 100.0), period_s=20.0
            )
        )
        injector.install()
        small_internet.set_time(105.0)  # idle -> withdrawn edge
        recomputed = small_internet.resolve_path("client", "server")
        assert recomputed is not path
        assert injector.route_recomputations >= 1
        before = injector.route_recomputations
        small_internet.set_time(115.0)  # withdrawn -> announced edge
        assert injector.route_recomputations == before + 1
        small_internet.set_time(116.0)  # no edge: same half-cycle
        assert injector.route_recomputations == before + 1


class TestProbeFaultModel:
    def test_first_matching_event_wins_and_counts(self):
        events = [
            ProbeFaultEvent(window=Window(0.0, 10.0), fault=ProbeFaultKind.LOST),
            ProbeFaultEvent(window=Window(0.0, 100.0), fault=ProbeFaultKind.STALE),
        ]
        model = ProbeFaultModel(events, RandomStreams(seed=2).stream("pf"))
        assert model.outcome("direct", 5.0) is ProbeFaultKind.LOST
        assert model.outcome("direct", 50.0) is ProbeFaultKind.STALE
        assert model.outcome("direct", 200.0) is None
        assert model.struck["lost"] == 1
        assert model.struck["stale"] == 1


class TestBulkOnlyGray:
    def test_bulk_only_gray_spares_pings(self, small_internet):
        link = any_link(small_internet)
        _, clean_loss, _ = _hop(link, 120.0)
        injector = FaultInjector(small_internet)
        injector.add(
            GrayFailure(
                link_ids=(link.link_id,), window=Window(100.0, 50.0),
                drop_fraction=0.4, bulk_only=True,
            )
        )
        injector.install()
        small_internet.set_time(120.0)
        assert not link.failed
        # Pings see nothing; bulk segments pay the silent drop.
        _, loss, bulk_loss = _hop(link, 120.0)
        assert loss == pytest.approx(clean_loss)
        assert bulk_loss > loss
        small_internet.set_time(200.0)
        _, loss, bulk_loss = _hop(link, 200.0)
        assert bulk_loss == loss
        injector.uninstall()


class TestFaultHistoryQueries:
    def test_down_windows_merges_outages_and_flaps(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(500.0, 50.0)))
        injector.add(
            RouteFlap(
                link_ids=(link.link_id,), window=Window(100.0, 100.0), period_s=20.0
            )
        )
        windows = injector.down_windows(link.link_id)
        # 5 withdraw phases of the flap plus the outage, sorted by start.
        assert len(windows) == 6
        assert [w.start_s for w in windows[:5]] == [100.0, 120.0, 140.0, 160.0, 180.0]
        assert windows[-1].start_s == 500.0

    def test_down_windows_range_filter(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(
            RouteFlap(
                link_ids=(link.link_id,), window=Window(100.0, 100.0), period_s=20.0
            )
        )
        assert len(injector.down_windows(link.link_id)) == 5
        assert len(injector.down_windows(link.link_id, since=150.0)) == 2
        assert len(injector.down_windows(link.link_id, since=150.0, until=170.0)) == 1
        assert len(injector.down_windows(link.link_id, since=300.0)) == 0

    def test_repeated_pop_outages_count_as_flaps(self, small_internet):
        from repro.faults.events import PopOutage

        asys = next(
            a for a in small_internet.topology.ases.values() if len(a.pop_cities) >= 2
        )
        city = asys.pop_cities[0]
        injector = FaultInjector(small_internet)
        episodes = [
            PopOutage.for_pop(
                small_internet, asys.asn, city, Window(start, 50.0)
            )
            for start in (100.0, 300.0, 500.0)
        ]
        for episode in episodes:
            injector.add(episode)
        for link_id in episodes[0].link_ids:
            assert [w.start_s for w in injector.down_windows(link_id)] == [
                100.0, 300.0, 500.0,
            ]

    def test_pop_outage_follows_clock(self, small_internet):
        from repro.faults.events import PopOutage
        from repro.net.world import HOST_ID_BASE

        asys = next(
            a for a in small_internet.topology.ases.values() if len(a.pop_cities) >= 2
        )
        event = PopOutage.for_pop(
            small_internet, asys.asn, asys.pop_cities[0], Window(100.0, 50.0)
        )
        injector = FaultInjector(small_internet)
        injector.add(event)
        injector.install()
        links = [small_internet.links_by_id[lid] for lid in event.link_ids]
        small_internet.set_time(120.0)
        assert all(link.failed for link in links)
        # Partial outage: the AS keeps other live links (sibling PoPs).
        survivors = [
            link
            for link in small_internet.links_by_id.values()
            if not link.failed
            and any(
                small_internet.routers.get(rid).asn == asys.asn
                for rid in (link.router_a, link.router_b)
                if rid < HOST_ID_BASE
            )
        ]
        assert survivors
        small_internet.set_time(200.0)
        assert not any(link.failed for link in links)

    def test_gray_failures_have_no_down_windows(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(
            GrayFailure(
                link_ids=(link.link_id,), window=Window(0.0, 100.0), drop_fraction=0.5
            )
        )
        assert injector.down_windows(link.link_id) == ()

    def test_unknown_link_query_rejected(self, small_internet):
        with pytest.raises(ConfigError):
            FaultInjector(small_internet).down_windows(999_999)


class TestPathFaultHistory:
    def test_counts_per_label_within_window(self, small_internet):
        from repro.faults.injector import PathFaultHistory

        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(
            RouteFlap(
                link_ids=(link.link_id,), window=Window(100.0, 100.0), period_s=20.0
            )
        )
        history = PathFaultHistory(
            injector, {"flappy": (link.link_id,)}, window_s=150.0
        )
        # At t=250 the 150 s window covers the flap onsets at 100..180.
        assert history.recent_failures("flappy", 250.0) == 5
        # At t=500 every onset has aged out of the window.
        assert history.recent_failures("flappy", 500.0) == 0
        # Labels the injector never touched have no history.
        assert history.recent_failures("unknown", 250.0) == 0

    def test_window_validated(self, small_internet):
        from repro.faults.injector import PathFaultHistory

        with pytest.raises(ConfigError):
            PathFaultHistory(FaultInjector(small_internet), {}, window_s=0.0)
