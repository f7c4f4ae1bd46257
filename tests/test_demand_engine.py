"""The demand engine: epoch metrics, determinism, load feedback."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.control.policy import AnycastIngressPolicy, BestPathPolicy, QpsWeightedPolicy
from repro.demand.engine import DemandEngine, PairRoutes
from repro.demand.model import DemandModel
from repro.demand.relay import RelayCapacity
from repro.errors import ConfigError

CITY = "london"


def pair(pair_id: int, direct: float, ams: float, dc: float) -> PairRoutes:
    return PairRoutes(
        pair_id=pair_id,
        client=f"c{pair_id}",
        server=f"s{pair_id}",
        city=CITY,
        direct_mbps=direct,
        overlay_mbps=(("ams", ams), ("dc", dc)),
        overlay_rtt_ms=(("ams", 80.0), ("dc", 120.0)),
        ingress_rtt_ms=(("ams", 10.0), ("dc", 70.0)),
    )


def make_engine(policy=None, load_scale: float = 1.0, **kwargs) -> DemandEngine:
    return DemandEngine(
        pairs=[pair(0, 5.0, 12.0, 9.0), pair(1, 20.0, 15.0, 14.0)],
        relays=[
            RelayCapacity(label="ams", nic_mbps=10_000.0),
            RelayCapacity(label="dc", nic_mbps=10_000.0),
        ],
        model=DemandModel.build({CITY: 12}, seed=7),
        policy=policy if policy is not None else QpsWeightedPolicy(),
        load_scale=load_scale,
        **kwargs,
    )


class TestPairRoutes:
    def test_rejects_pair_without_overlays(self):
        with pytest.raises(ConfigError):
            PairRoutes(
                pair_id=0, client="c", server="s", city=CITY, direct_mbps=1.0,
                overlay_mbps=(), overlay_rtt_ms=(), ingress_rtt_ms=(),
            )

    def test_rejects_duplicate_relays(self):
        with pytest.raises(ConfigError):
            PairRoutes(
                pair_id=0, client="c", server="s", city=CITY, direct_mbps=1.0,
                overlay_mbps=(("ams", 1.0), ("ams", 2.0)),
                overlay_rtt_ms=(), ingress_rtt_ms=(),
            )

    @pytest.mark.parametrize("field", ["overlay_rtt_ms", "ingress_rtt_ms"])
    def test_rejects_rtts_that_miss_a_relay(self, field):
        # A missing RTT used to become rtt_ms=0.0, which made anycast
        # pick the unmeasured relay as the "nearest" ingress.
        rtts = {"overlay_rtt_ms": (("ams", 80.0), ("dc", 120.0)),
                "ingress_rtt_ms": (("ams", 10.0), ("dc", 70.0))}
        rtts[field] = (("ams", 10.0),)
        with pytest.raises(ConfigError, match=field):
            PairRoutes(
                pair_id=0, client="c", server="s", city=CITY, direct_mbps=1.0,
                overlay_mbps=(("ams", 12.0), ("dc", 9.0)), **rtts,
            )

    def test_rejects_rtts_for_relays_without_routes(self):
        with pytest.raises(ConfigError):
            PairRoutes(
                pair_id=0, client="c", server="s", city=CITY, direct_mbps=1.0,
                overlay_mbps=(("ams", 12.0),),
                overlay_rtt_ms=(("ams", 80.0), ("dc", 120.0)),
                ingress_rtt_ms=(("ams", 10.0),),
            )


class TestEngineValidation:
    def test_rejects_empty_pairs_and_relays(self):
        model = DemandModel.build({CITY: 1}, seed=1)
        with pytest.raises(ConfigError):
            DemandEngine([], [RelayCapacity(label="r", nic_mbps=1.0)], model, BestPathPolicy())
        with pytest.raises(ConfigError):
            DemandEngine([pair(0, 1.0, 2.0, 3.0)], [], model, BestPathPolicy())

    def test_rejects_duplicate_relay_labels(self):
        model = DemandModel.build({CITY: 1}, seed=1)
        with pytest.raises(ConfigError):
            DemandEngine(
                [pair(0, 1.0, 2.0, 3.0)],
                [RelayCapacity(label="r", nic_mbps=1.0)] * 2,
                model,
                BestPathPolicy(),
            )

    def test_rejects_route_via_relay_without_capacity(self):
        # A route naming a relay the engine has no capacity model for
        # used to be dropped silently.
        model = DemandModel.build({CITY: 1}, seed=1)
        with pytest.raises(ConfigError, match="dc"):
            DemandEngine(
                [pair(0, 1.0, 2.0, 3.0)],
                [RelayCapacity(label="ams", nic_mbps=1.0)],
                model,
                BestPathPolicy(),
            )

    def test_rejects_bad_epoch_duration(self):
        with pytest.raises(ConfigError):
            make_engine().epoch_metrics(0, 0.0)

    @pytest.mark.parametrize("epoch_s", [math.nan, math.inf])
    def test_rejects_non_finite_epoch_duration(self, epoch_s):
        # NaN used to fail inside the Poisson draw ("cannot convert
        # float NaN to integer").
        with pytest.raises(ConfigError, match="epoch_s"):
            make_engine().epoch_metrics(0, epoch_s)

    def test_rejects_negative_epoch_index(self):
        # Epoch -1 used to simulate t = -1800 s without complaint.
        with pytest.raises(ConfigError, match="epoch"):
            make_engine().epoch_metrics(-1, 3_600.0)
        with pytest.raises(ConfigError, match="epoch"):
            make_engine().run([0, -1], 3_600.0)

    @pytest.mark.parametrize("load_scale", [math.nan, math.inf, -1.0])
    def test_rejects_bad_load_scale(self, load_scale):
        with pytest.raises(ConfigError, match="load_scale"):
            make_engine(load_scale=load_scale)


class TestEpochMetrics:
    def test_repeat_call_is_identical(self):
        engine = make_engine()
        assert engine.epoch_metrics(4, 3_600.0) == engine.epoch_metrics(4, 3_600.0)

    # Light, nominal and crushing load; each draws its scale within a
    # factor of ten around the named one.
    @pytest.mark.parametrize("load_scale", [0.01, 1.0, 500.0])
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(
        epochs=st.lists(st.integers(0, 47), max_size=6),
        factor=st.floats(0.1, 10.0),
        make_policy=st.sampled_from([QpsWeightedPolicy, AnycastIngressPolicy, BestPathPolicy]),
    )
    def test_batch_equals_one_epoch_at_a_time(self, load_scale, epochs, factor, make_policy):
        engine = make_engine(policy=make_policy(), load_scale=load_scale * factor)
        batch = engine.run(epochs, 3_600.0)
        assert batch == [engine.epoch_metrics(e, 3_600.0) for e in epochs]

    def test_epoch_order_is_irrelevant(self):
        forward = make_engine()
        a = [forward.epoch_metrics(e, 3_600.0) for e in range(4)]
        backward = make_engine()
        b = [backward.epoch_metrics(e, 3_600.0) for e in reversed(range(4))]
        assert a == list(reversed(b))

    def test_metrics_are_json_safe(self):
        metrics = make_engine().epoch_metrics(2, 3_600.0)
        assert json.loads(json.dumps(metrics)) == metrics

    def test_low_load_win_rate_matches_split_fraction(self):
        # Pair 0's best overlay (12) beats direct (5); pair 1's (15)
        # loses to direct (20) -> half the pairs win when relays idle.
        metrics = make_engine(load_scale=0.01).epoch_metrics(0, 3_600.0)
        assert metrics["win_rate"] == pytest.approx(0.5)
        assert metrics["satisfied"] == pytest.approx(1.0)

    def test_saturation_kills_the_win(self):
        light = make_engine(load_scale=0.01).epoch_metrics(0, 3_600.0)
        crushed = make_engine(load_scale=500.0).epoch_metrics(0, 3_600.0)
        assert crushed["flows"] > light["flows"]
        assert crushed["peak_utilization"] > 1.0
        assert crushed["win_rate"] < light["win_rate"]
        assert crushed["satisfied"] < 1.0

    def test_relay_stats_cover_all_relays(self):
        metrics = make_engine().epoch_metrics(0, 3_600.0)
        assert set(metrics["relays"]) == {"ams", "dc"}
        for stats in metrics["relays"].values():
            assert set(stats) == {
                "flows", "demand_mbps", "capacity_mbps", "utilization", "loss"
            }

    def test_best_path_herds_qps_weighted_spreads(self):
        herd = make_engine(policy=BestPathPolicy(), load_scale=1.0)
        herd_metrics = herd.epoch_metrics(0, 3_600.0)
        spread_metrics = make_engine(load_scale=1.0).epoch_metrics(0, 3_600.0)
        herd_flows = [s["flows"] for s in herd_metrics["relays"].values()]
        spread_flows = [s["flows"] for s in spread_metrics["relays"].values()]
        # Herding puts everything on each pair's best relay; weighting
        # leaves no relay empty.
        assert min(herd_flows) == 0.0
        assert min(spread_flows) > 0.0
