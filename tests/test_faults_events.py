"""Fault-event taxonomy: effects as pure functions of time."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults.events import (
    NO_EFFECT,
    AsOutage,
    CongestionStorm,
    GrayFailure,
    LinkEffect,
    LinkOutage,
    PopOutage,
    ProbeFaultEvent,
    ProbeFaultKind,
    RouteFlap,
    Window,
)
from repro.rand import RandomStreams


class TestWindow:
    def test_half_open(self):
        window = Window(start_s=10.0, duration_s=5.0)
        assert not window.covers(9.999)
        assert window.covers(10.0)
        assert window.covers(14.999)
        assert not window.covers(15.0)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            Window(start_s=-1.0, duration_s=5.0)
        with pytest.raises(ConfigError):
            Window(start_s=0.0, duration_s=0.0)


class TestLinkEffect:
    def test_merge_outage_dominates(self):
        merged = LinkEffect(failed=True).merge(LinkEffect(extra_loss=0.2))
        assert merged.failed
        assert merged.extra_loss == pytest.approx(0.2)

    def test_merge_losses_combine_independently(self):
        merged = LinkEffect(extra_loss=0.5).merge(LinkEffect(extra_loss=0.5))
        assert merged.extra_loss == pytest.approx(0.75)

    def test_merge_delay_adds_and_surge_caps(self):
        merged = LinkEffect(extra_delay_ms=10.0, util_surge=0.7).merge(
            LinkEffect(extra_delay_ms=5.0, util_surge=0.7)
        )
        assert merged.extra_delay_ms == pytest.approx(15.0)
        assert merged.util_surge == pytest.approx(1.0)


class TestDataPlaneEvents:
    def test_link_outage_only_inside_window(self):
        event = LinkOutage(link_ids=(3, 1), window=Window(100.0, 50.0))
        assert event.link_ids == (1, 3)  # sorted
        assert event.effect_at(99.0) is NO_EFFECT
        assert event.effect_at(100.0).failed
        assert event.effect_at(150.0) is NO_EFFECT

    def test_duplicate_and_empty_links_rejected(self):
        with pytest.raises(ConfigError):
            LinkOutage(link_ids=(), window=Window(0.0, 1.0))
        with pytest.raises(ConfigError):
            LinkOutage(link_ids=(1, 1), window=Window(0.0, 1.0))

    def test_as_outage_collects_as_links(self, small_internet):
        asn = next(iter(small_internet.topology.ases))
        event = AsOutage.for_as(small_internet, asn, Window(0.0, 10.0))
        routers = {r.router_id for r in small_internet.routers.of_as(asn)}
        for link_id in event.link_ids:
            link = small_internet.links_by_id[link_id]
            assert link.router_a in routers or link.router_b in routers
        assert f"AS{asn}" in event.describe()

    def test_pop_outage_collects_only_pop_links(self, small_internet):
        asys = next(
            a for a in small_internet.topology.ases.values() if len(a.pop_cities) >= 2
        )
        city = asys.pop_cities[0]
        router = small_internet.routers.at(asys.asn, city)
        event = PopOutage.for_pop(small_internet, asys.asn, city, Window(0.0, 10.0))
        for link_id in event.link_ids:
            link = small_internet.links_by_id[link_id]
            assert router.router_id in (link.router_a, link.router_b)
        assert f"AS{asys.asn}@{city}" in event.describe()
        assert event.down_windows() == (event.window,)

    def test_pop_outage_unknown_city_rejected(self, small_internet):
        asn = next(iter(small_internet.topology.ases))
        with pytest.raises(ConfigError):
            PopOutage.for_pop(small_internet, asn, "atlantis", Window(0.0, 10.0))


class TestOutageAlgebra:
    """Per-PoP outages partition an AS outage's link set."""

    def multi_pop_as(self, small_internet):
        return next(
            a for a in small_internet.topology.ases.values() if len(a.pop_cities) >= 3
        )

    def test_union_of_pop_outages_is_the_as_outage(self, small_internet):
        asys = self.multi_pop_as(small_internet)
        window = Window(0.0, 10.0)
        whole = set(AsOutage.for_as(small_internet, asys.asn, window).link_ids)
        union: set[int] = set()
        for city in asys.pop_cities:
            union |= set(
                PopOutage.for_pop(small_internet, asys.asn, city, window).link_ids
            )
        assert union == whole

    def test_non_adjacent_pops_fail_disjoint_links(self, small_internet):
        # Two PoPs of one AS with no direct backbone link between them
        # must take down disjoint link sets — the partial outages are
        # independent events.
        for asys in small_internet.topology.ases.values():
            if len(asys.pop_cities) < 5:
                continue
            routers = {
                city: small_internet.routers.at(asys.asn, city)
                for city in asys.pop_cities
            }
            for i, city_a in enumerate(asys.pop_cities):
                for city_b in asys.pop_cities[i + 1 :]:
                    pair = (
                        routers[city_a].router_id,
                        routers[city_b].router_id,
                    )
                    if pair in small_internet._internal:
                        continue
                    window = Window(0.0, 10.0)
                    first = set(
                        PopOutage.for_pop(
                            small_internet, asys.asn, city_a, window
                        ).link_ids
                    )
                    second = set(
                        PopOutage.for_pop(
                            small_internet, asys.asn, city_b, window
                        ).link_ids
                    )
                    assert not (first & second)
                    return
        pytest.skip("no non-adjacent PoP pair in this topology")


class TestImpairmentEvents:
    def test_gray_failure_effect(self):
        event = GrayFailure(
            link_ids=(1,), window=Window(0.0, 10.0), drop_fraction=0.3,
            extra_delay_ms=20.0,
        )
        effect = event.effect_at(5.0)
        assert not effect.failed
        assert effect.extra_loss == pytest.approx(0.3)
        assert effect.extra_delay_ms == pytest.approx(20.0)

    def test_gray_failure_validation(self):
        with pytest.raises(ConfigError):
            GrayFailure(link_ids=(1,), window=Window(0.0, 1.0), drop_fraction=0.0)
        with pytest.raises(ConfigError):
            GrayFailure(
                link_ids=(1,), window=Window(0.0, 1.0), drop_fraction=0.5,
                extra_delay_ms=-1.0,
            )

    def test_storm_effect(self):
        event = CongestionStorm(link_ids=(1,), window=Window(0.0, 10.0), surge=0.4)
        assert event.effect_at(1.0).util_surge == pytest.approx(0.4)
        with pytest.raises(ConfigError):
            CongestionStorm(link_ids=(1,), window=Window(0.0, 1.0), surge=0.0)


class TestRouteFlap:
    def flap(self) -> RouteFlap:
        return RouteFlap(
            link_ids=(1,), window=Window(100.0, 100.0), period_s=20.0, duty=0.5
        )

    def test_cycles_withdraw_then_announce(self):
        event = self.flap()
        assert event.effect_at(105.0).failed  # first half: withdrawn
        assert event.effect_at(115.0) is NO_EFFECT  # second half: announced
        assert event.effect_at(125.0).failed  # next cycle
        assert event.effect_at(99.0) is NO_EFFECT
        assert event.effect_at(200.0) is NO_EFFECT

    def test_phase_changes_at_every_edge(self):
        event = self.flap()
        phases = [event.phase_at(t) for t in (99.0, 105.0, 115.0, 125.0, 135.0, 200.0)]
        assert phases[0] == 0
        assert len(set(phases[:5])) == 5  # every sampled half-cycle distinct
        assert phases[-1] == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            RouteFlap(link_ids=(1,), window=Window(0.0, 10.0), period_s=20.0)
        with pytest.raises(ConfigError):
            RouteFlap(link_ids=(1,), window=Window(0.0, 10.0), period_s=5.0, duty=1.0)


class TestProbeFaultEvent:
    def test_window_and_label_scoping(self):
        rng = RandomStreams(seed=1).stream("t")
        event = ProbeFaultEvent(
            window=Window(0.0, 10.0), fault=ProbeFaultKind.LOST, labels=("direct",)
        )
        assert event.applies("direct", 5.0, rng)
        assert not event.applies("vm", 5.0, rng)
        assert not event.applies("direct", 10.0, rng)

    def test_intermittent_fault_draws_from_stream(self):
        event = ProbeFaultEvent(
            window=Window(0.0, 1000.0), fault=ProbeFaultKind.TIMEOUT, probability=0.5
        )
        rng = RandomStreams(seed=1).stream("t")
        hits = sum(event.applies("direct", float(t), rng) for t in range(200))
        assert 60 < hits < 140
        rng2 = RandomStreams(seed=1).stream("t")
        hits2 = sum(event.applies("direct", float(t), rng2) for t in range(200))
        assert hits == hits2  # same stream, same faults

    def test_probability_validated(self):
        with pytest.raises(ConfigError):
            ProbeFaultEvent(
                window=Window(0.0, 1.0), fault=ProbeFaultKind.LOST, probability=0.0
            )


class TestBulkExtraLoss:
    def test_effects_compose_multiplicatively(self):
        merged = LinkEffect(bulk_extra_loss=0.5).merge(
            LinkEffect(bulk_extra_loss=0.5)
        )
        assert merged.bulk_extra_loss == pytest.approx(0.75)

    def test_bulk_only_gray_effect(self):
        event = GrayFailure(
            link_ids=(1,),
            window=Window(0.0, 100.0),
            drop_fraction=0.4,
            extra_delay_ms=25.0,
            bulk_only=True,
        )
        effect = event.effect_at(50.0)
        assert effect.extra_loss == 0.0
        assert effect.bulk_extra_loss == pytest.approx(0.4)
        assert effect.extra_delay_ms == pytest.approx(25.0)

    def test_visible_gray_leaves_bulk_channel_alone(self):
        event = GrayFailure(
            link_ids=(1,), window=Window(0.0, 100.0), drop_fraction=0.4
        )
        effect = event.effect_at(50.0)
        assert effect.extra_loss == pytest.approx(0.4)
        assert effect.bulk_extra_loss == 0.0


class TestDownWindows:
    def test_outage_reports_its_window(self):
        window = Window(100.0, 50.0)
        event = LinkOutage(link_ids=(1,), window=window)
        assert event.down_windows() == (window,)

    def test_route_flap_reports_each_withdraw_phase(self):
        event = RouteFlap(
            link_ids=(1,), window=Window(100.0, 100.0), period_s=30.0, duty=0.5
        )
        windows = event.down_windows()
        assert [w.start_s for w in windows] == [100.0, 130.0, 160.0, 190.0]
        assert [w.duration_s for w in windows[:3]] == [15.0, 15.0, 15.0]
        # Final phase is truncated at the event window's end.
        assert windows[-1].duration_s == pytest.approx(10.0)

    def test_soft_events_report_none(self):
        gray = GrayFailure(
            link_ids=(1,), window=Window(0.0, 100.0), drop_fraction=0.5
        )
        storm = CongestionStorm(link_ids=(1,), window=Window(0.0, 100.0), surge=0.3)
        assert gray.down_windows() == ()
        assert storm.down_windows() == ()
