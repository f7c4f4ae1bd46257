"""In-process metrics: counters, gauges, histograms, one registry.

The control plane must be able to answer "what did it cost?" — probes
sent, probe bytes, failovers, time spent in each health state — without
any external monitoring stack.  :class:`MetricsRegistry` is a tiny,
deterministic, dependency-free metrics store in the spirit of a
Prometheus client: metrics are identified by name plus an optional
label set, and :meth:`MetricsRegistry.snapshot` renders the whole
registry as a plain sorted dict so a fixed seed always produces the
same emitted structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ControlError

#: Default histogram bucket upper bounds (seconds-ish scales; callers
#: pass their own buckets for other units).
DEFAULT_BUCKETS: tuple[float, ...] = (0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


def metric_key(name: str, labels: dict[str, str] | None) -> str:
    """Canonical metric identity: ``name{k1=v1,k2=v2}`` with sorted keys."""
    if not name:
        raise ControlError("metric name must be non-empty")
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count (probes sent, failovers...)."""

    key: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ControlError(f"counter {self.key} cannot decrease (inc {amount})")
        self.value += amount


@dataclass
class Gauge:
    """A value that goes up and down (current goodput, active paths)."""

    key: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)


@dataclass
class Histogram:
    """Cumulative-bucket histogram (switch latency, probe RTTs).

    ``buckets`` are upper bounds; an observation lands in every bucket
    whose bound is >= the value (plus the implicit ``+Inf`` count).
    """

    key: str
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    inf_count: int = 0
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ControlError(f"histogram {self.key} buckets must be sorted")
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.total += value
        self.count += 1
        self.inf_count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1

    def as_dict(self) -> dict[str, float | int | dict[str, int]]:
        """Snapshot-friendly representation."""
        per_bucket = {f"le_{bound:g}": n for bound, n in zip(self.buckets, self.counts)}
        per_bucket["le_inf"] = self.inf_count
        return {"count": self.count, "sum": self.total, "buckets": per_bucket}


class MetricsRegistry:
    """Registry of named metrics; get-or-create semantics per key."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        """The counter for ``name``/``labels``, created on first use."""
        key = metric_key(name, labels)
        self._check_unique(key, "counter", self._counters)
        if key not in self._counters:
            self._counters[key] = Counter(key=key)
        return self._counters[key]

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        """The gauge for ``name``/``labels``, created on first use."""
        key = metric_key(name, labels)
        self._check_unique(key, "gauge", self._gauges)
        if key not in self._gauges:
            self._gauges[key] = Gauge(key=key)
        return self._gauges[key]

    def histogram(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        """The histogram for ``name``/``labels``, created on first use."""
        key = metric_key(name, labels)
        self._check_unique(key, "histogram", self._histograms)
        if key not in self._histograms:
            self._histograms[key] = Histogram(key=key, buckets=buckets or DEFAULT_BUCKETS)
        return self._histograms[key]

    def _check_unique(self, key: str, kind: str, own: dict) -> None:
        """Reject registering one key as two different metric kinds."""
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is own:
                continue
            if key in table:
                raise ControlError(
                    f"metric {key!r} already registered as a {other_kind}, not a {kind}"
                )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Every metric's current value, keyed canonically and sorted.

        The same sequence of operations always yields byte-identical
        structure — the determinism the failover experiment asserts.
        """
        out: dict[str, object] = {}
        for key in sorted(self._counters):
            out[key] = self._counters[key].value
        for key in sorted(self._gauges):
            out[key] = self._gauges[key].value
        for key in sorted(self._histograms):
            out[key] = self._histograms[key].as_dict()
        return out
