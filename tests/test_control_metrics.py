"""MetricsRegistry: counters, gauges, histograms, snapshots."""

from __future__ import annotations

import pytest

from repro.control.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry, metric_key
from repro.errors import ControlError


class TestMetricKey:
    def test_no_labels(self):
        assert metric_key("probes_sent_total", None) == "probes_sent_total"

    def test_labels_sorted(self):
        key = metric_key("x", {"b": "2", "a": "1"})
        assert key == "x{a=1,b=2}"

    def test_empty_name_rejected(self):
        with pytest.raises(ControlError):
            metric_key("", None)


class TestCounter:
    def test_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("failovers_total")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3

    def test_decrease_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ControlError):
            counter.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("c", {"path": "direct"})
        b = registry.counter("c", {"path": "direct"})
        a.inc()
        assert b.value == 1
        assert a is b


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("goodput_mbps")
        gauge.set(5.0)
        gauge.set(3.0)
        assert gauge.value == 3.0


class TestHistogram:
    def test_observe_buckets(self):
        histogram = Histogram(key="h", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        histogram.observe(50.0)
        assert histogram.count == 3
        assert histogram.counts == [1, 2]  # cumulative buckets
        assert histogram.inf_count == 3
        assert histogram.total == pytest.approx(55.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ControlError):
            Histogram(key="h", buckets=(10.0, 1.0))

    def test_as_dict(self):
        histogram = Histogram(key="h", buckets=(2.0,))
        histogram.observe(1.0)
        data = histogram.as_dict()
        assert data["count"] == 1
        assert data["sum"] == 1.0
        assert data["buckets"] == {"le_2": 1, "le_inf": 1}


class TestRegistry:
    def test_snapshot_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.counter("a_total").inc(2)
        registry.gauge("z_gauge").set(1.5)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a_total", "b_total", "z_gauge", "lat"]
        assert snapshot["a_total"] == 2
        assert snapshot["lat"]["count"] == 1

    def test_snapshot_deterministic(self):
        def build() -> dict:
            registry = MetricsRegistry()
            registry.counter("probes", {"path": "direct"}).inc(7)
            registry.gauge("active").set(2)
            registry.histogram("h").observe(3.0)
            return registry.snapshot()

        assert build() == build()

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ControlError):
            registry.gauge("x")
        with pytest.raises(ControlError):
            registry.histogram("x")

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
