"""End-to-end failover: controller + FaultInjector + policies.

The acceptance scenario: a link on the active path fails mid-run; the
health machine degrades it; the policy switches; the path recovers
with hysteresis and no flapping.
"""

from __future__ import annotations

import math

import pytest

from repro.control.controller import OverlayController
from repro.control.health import HealthConfig, PathState
from repro.control.policy import BestPathPolicy, MptcpSubflowPolicy, StaticPolicy
from repro.control.probes import ProbeConfig, ProbeScheduler
from repro.core.pathset import PathSet
from repro.errors import ControlError
from repro.faults import FaultInjector, LinkOutage, Window
from repro.rand import RandomStreams
from repro.tunnel.node import OverlayNode

PROBE_INTERVAL = 30.0
TICK = 5.0


@pytest.fixture()
def pathset(small_internet) -> PathSet:
    node = OverlayNode(host=small_internet.host("vm"))
    return PathSet.build(small_internet, "server", "client", [node])


def direct_only_link(pathset: PathSet):
    overlay_ids = {
        link.link_id for o in pathset.options for link in o.concatenated.links
    }
    for link in pathset.direct.links:
        if link.link_id not in overlay_ids:
            return link
    raise AssertionError("no direct-only link in this world")


def fail_during(small_internet, link, start_s: float, duration_s: float) -> None:
    injector = FaultInjector(small_internet)
    injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(start_s, duration_s)))
    injector.install()


def controller_for(small_internet, pathset, policy, probed=True) -> OverlayController:
    sched = None
    if probed:
        sched = ProbeScheduler(
            pathset,
            ProbeConfig(interval_s=PROBE_INTERVAL, jitter_frac=0.0),
            RandomStreams(seed=9).stream("failover"),
        )
    return OverlayController(
        internet=small_internet,
        pathset=pathset,
        policy=policy,
        scheduler=sched,
        health_config=HealthConfig(recovery_hold_s=2 * PROBE_INTERVAL),
        tick_s=TICK,
    )


def active_at(report, t: float) -> tuple[str, ...]:
    """The active set after the last decision at or before ``t``."""
    records = reversed(report.decisions.records)
    return next((record.new_active for record in records if record.at_time <= t), ())


class TestFailoverScenario:
    def test_controller_switches_and_recovers_without_flapping(self, small_internet, pathset):
        link = direct_only_link(pathset)
        # Outage covers [300, 900) of an 1800 s run.
        fail_during(small_internet, link, 300.0, 600.0)
        controller = controller_for(small_internet, pathset, BestPathPolicy())
        report = controller.run(1800.0)

        # The direct path was declared FAILED during the outage...
        transitions = controller.health["direct"].transitions
        assert PathState.FAILED in [t.new for t in transitions]
        # ...and recovered afterwards (hysteresis + hold timer).
        assert controller.health["direct"].state is not PathState.FAILED

        # If the controller was ever on direct, it moved off within the
        # detection bound (fail_after probes + one tick).
        active_during_outage = {
            active_at(report, s.at_time) for s in report.samples if 400.0 <= s.at_time < 900.0
        }
        assert ("direct",) not in active_during_outage

        # No flapping: direction changes stay bounded over the run.
        assert len(report.decisions.changes()) <= 4

        # Goodput during the outage stayed up on the overlay.
        mid_outage = [s for s in report.samples if 500.0 <= s.at_time < 900.0]
        assert all(s.goodput_mbps > 0 for s in mid_outage)

    def test_downtime_bounded_by_detection(self, small_internet, pathset):
        link = direct_only_link(pathset)
        fail_during(small_internet, link, 300.0, 600.0)
        controller = controller_for(small_internet, pathset, BestPathPolicy())
        report = controller.run(1800.0)
        # fail_after=2 probes at 30 s plus one decision tick, rounded up.
        detection_bound = 2 * PROBE_INTERVAL + 2 * TICK
        assert report.downtime_s <= detection_bound

    def test_static_policy_eats_the_whole_outage(self, small_internet, pathset):
        link = direct_only_link(pathset)
        fail_during(small_internet, link, 300.0, 600.0)
        controller = controller_for(
            small_internet, pathset, StaticPolicy("direct"), probed=False
        )
        report = controller.run(1800.0)
        assert report.downtime_s == pytest.approx(600.0, abs=TICK)
        assert report.probe_bytes == 0
        assert report.failovers == 0

    def test_mptcp_policy_prunes_and_readds_subflow(self, small_internet, pathset):
        link = direct_only_link(pathset)
        fail_during(small_internet, link, 300.0, 600.0)
        controller = controller_for(small_internet, pathset, MptcpSubflowPolicy())
        report = controller.run(1800.0)
        active_sets = [active_at(report, s.at_time) for s in report.samples]
        assert ("direct", "vm") in active_sets  # both subflows up initially
        assert ("vm",) in active_sets  # direct pruned during the outage
        assert active_sets[-1] == ("direct", "vm")  # re-added after recovery
        # The aggregate never went dark.
        assert report.downtime_s == 0.0

    def test_metrics_account_for_the_run(self, small_internet, pathset):
        link = direct_only_link(pathset)
        fail_during(small_internet, link, 300.0, 600.0)
        controller = controller_for(small_internet, pathset, BestPathPolicy())
        report = controller.run(1800.0)
        metrics = report.metrics
        assert metrics["probes_sent_total{path=direct}"] >= 1800.0 / PROBE_INTERVAL - 1
        assert metrics["probe_bytes_total"] == report.probe_bytes
        assert metrics["health_transitions_total{path=direct,to=failed}"] == 1.0
        prefix = "time_in_state_seconds{path=direct,state="
        time_in = {
            key[len(prefix):-1]: seconds
            for key, seconds in metrics.items()
            if key.startswith(prefix)
        }
        assert sum(time_in.values()) == pytest.approx(1800.0)
        assert time_in["failed"] > 0

    def test_controller_validates_inputs(self, small_internet, pathset):
        with pytest.raises(ControlError):
            OverlayController(small_internet, pathset, BestPathPolicy(), tick_s=0.0)
        controller = controller_for(small_internet, pathset, BestPathPolicy())
        with pytest.raises(ControlError):
            controller.run(0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_controller_rejects_non_finite_tick(self, small_internet, pathset, value):
        with pytest.raises(ControlError):
            OverlayController(small_internet, pathset, BestPathPolicy(), tick_s=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_controller_rejects_non_finite_duration(
        self, small_internet, pathset, monkeypatch, value
    ):
        controller = controller_for(small_internet, pathset, BestPathPolicy())

        def entered(*args, **kwargs):  # an infinite horizon would never end
            raise AssertionError("run entered its loop")

        monkeypatch.setattr(controller, "_decide", entered)
        with pytest.raises(ControlError):
            controller.run(value)

    def test_scheduler_pathset_mismatch_rejected(self, small_internet, pathset):
        other = PathSet.build(
            small_internet, "client", "server", [OverlayNode(host=small_internet.host("vm"))]
        )
        sched = ProbeScheduler(
            other, ProbeConfig(), RandomStreams(seed=1).stream("x")
        )
        with pytest.raises(ControlError):
            OverlayController(small_internet, pathset, BestPathPolicy(), scheduler=sched)
