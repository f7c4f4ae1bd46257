"""MeasurementCampaign error tolerance: flaky tasks do not abort runs."""

from __future__ import annotations

import pytest

from repro.errors import MeasurementError
from repro.measure import MeasurementCampaign


class TestCampaignErrorTolerance:
    def test_flaky_task_yields_error_samples_and_campaign_continues(self, small_internet):
        calls = {"n": 0}

        def flaky(now: float) -> float:
            calls["n"] += 1
            if calls["n"] == 2:
                raise MeasurementError("vantage point rebooted")
            return now

        def steady(now: float) -> float:
            return now

        campaign = MeasurementCampaign(small_internet, interval_s=10.0, iterations=3)
        results = campaign.run({"flaky": flaky, "steady": steady})

        # Every task still has one sample per iteration.
        assert len(results["flaky"]) == 3
        assert len(results["steady"]) == 3
        # The failure is an error-marked sample, not an exception.
        failed = results["flaky"][1]
        assert not failed.ok
        assert failed.value is None
        assert "vantage point rebooted" in failed.error
        assert "MeasurementError" in failed.error
        # Neighbouring iterations of the same task are untouched.
        assert results["flaky"][0].ok and results["flaky"][2].ok
        # The other task never noticed.
        assert all(sample.ok for sample in results["steady"])

    def test_ok_defaults_keep_existing_consumers_working(self, small_internet):
        campaign = MeasurementCampaign(small_internet, interval_s=10.0, iterations=2)
        results = campaign.run({"t": lambda now: 42.0})
        for sample in results["t"]:
            assert sample.ok
            assert sample.error is None
            assert sample.value == 42.0

    def test_clock_still_advances_after_errors(self, small_internet):
        def always_broken(now: float) -> float:
            raise RuntimeError("boom")

        campaign = MeasurementCampaign(small_internet, interval_s=60.0, iterations=3)
        results = campaign.run({"broken": always_broken})
        times = [sample.at_time for sample in results["broken"]]
        assert times == [0.0, 60.0, 120.0]
        assert all(not sample.ok for sample in results["broken"])

    def test_empty_campaign_still_rejected(self, small_internet):
        campaign = MeasurementCampaign(small_internet, interval_s=10.0, iterations=1)
        with pytest.raises(MeasurementError):
            campaign.run({})


class TestCampaignSummary:
    def run_mixed(self, small_internet) -> MeasurementCampaign:
        def flaky(now: float) -> float:
            if now >= 10.0:
                raise RuntimeError("boom")
            return now

        campaign = MeasurementCampaign(small_internet, interval_s=10.0, iterations=3)
        campaign.run({"flaky": flaky, "steady": lambda now: now})
        return campaign

    def test_summary_counts_per_task(self, small_internet):
        summary = self.run_mixed(small_internet).summary
        assert summary.counts["flaky"].ok == 1
        assert summary.counts["flaky"].errors == 2
        assert summary.counts["steady"].ok == 3
        assert summary.counts["steady"].errors == 0
        assert summary.total_ok == 4
        assert summary.total_errors == 2
        assert summary.flaky_tasks() == ("flaky",)

    def test_summary_none_before_any_run(self, small_internet):
        campaign = MeasurementCampaign(small_internet, interval_s=10.0, iterations=1)
        assert campaign.summary is None

    def test_metrics_registry_sees_every_sample(self, small_internet):
        from repro.control.metrics import MetricsRegistry

        metrics = MetricsRegistry()

        def broken(now: float) -> float:
            raise RuntimeError("boom")

        campaign = MeasurementCampaign(small_internet, interval_s=10.0, iterations=2)
        campaign.run({"broken": broken, "steady": lambda now: now}, metrics=metrics)
        assert (
            metrics.counter(
                "campaign_samples_total", {"task": "broken", "outcome": "error"}
            ).value
            == 2
        )
        assert (
            metrics.counter(
                "campaign_samples_total", {"task": "steady", "outcome": "ok"}
            ).value
            == 2
        )


class TestBatchedShards:
    """A shard's tasks measured together fall back task by task."""

    #: 18 tasks over at most 16 shards: the first shards hold two tasks.
    TASKS = [f"t{i:02d}" for i in range(18)]

    def _run(self, small_internet, broken: str | None):
        per_task_calls = {task_id: 0 for task_id in self.TASKS}
        batches = []

        def task(task_id):
            def measure(now: float) -> float:
                per_task_calls[task_id] += 1
                if task_id == broken:
                    raise MeasurementError("vantage point rebooted")
                return now + int(task_id[1:])

            return measure

        def batch(ids):
            batches.append(list(ids))

            def measure(now: float) -> list[float]:
                if broken in ids:
                    raise MeasurementError("one task of the batch failed")
                return [now + int(task_id[1:]) for task_id in ids]

            return measure

        campaign = MeasurementCampaign(small_internet, interval_s=10.0, iterations=3)
        results = campaign.run(
            {task_id: task(task_id) for task_id in self.TASKS}, batch=batch
        )
        return results, batches, per_task_calls

    def test_batches_replace_the_per_task_calls(self, small_internet):
        results, batches, calls = self._run(small_internet, broken=None)
        assert sorted(task_id for ids in batches for task_id in ids) == self.TASKS
        assert set(calls.values()) == {0}
        for task_id, samples in results.items():
            assert [s.value for s in samples] == [
                s.at_time + int(task_id[1:]) for s in samples
            ]
            assert all(s.ok for s in samples)

    def test_failing_task_gets_one_error_sample_per_instant(self, small_internet):
        results, batches, _calls = self._run(small_internet, broken="t01")
        (shard,) = [ids for ids in batches if "t01" in ids]
        assert len(shard) > 1  # the failing task has neighbours in its batch
        for iteration in range(3):
            errors = [
                (task_id, samples[iteration])
                for task_id, samples in results.items()
                if not samples[iteration].ok
            ]
            assert [task_id for task_id, _ in errors] == ["t01"]
            assert "vantage point rebooted" in errors[0][1].error
        for task_id in shard:
            if task_id != "t01":
                assert all(s.ok for s in results[task_id])
                assert [s.value for s in results[task_id]] == [
                    s.at_time + int(task_id[1:]) for s in results[task_id]
                ]
