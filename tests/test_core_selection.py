"""Path selection (probing baseline vs MPTCP) and placement analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.placement import (
    best_subset_average_max,
    improvement_vs_node_count,
    min_nodes_for_max_throughput,
)
from repro.core.selection import MptcpSelector, ProbingSelector
from repro.errors import AnalysisError
from repro.core.pathset import PathType

T0 = 6 * 3_600.0


@pytest.fixture()
def pathset(small_internet):
    from repro.core.pathset import PathSet
    from repro.tunnel.node import OverlayNode

    node = OverlayNode(host=small_internet.host("vm"))
    return PathSet.build(small_internet, "server", "client", [node])


class TestProbingSelector:
    def test_probe_picks_best(self, pathset):
        selector = ProbingSelector(pathset)
        result = selector.probe(T0)
        candidates = {"direct": pathset.direct_connection().throughput_at(T0)}
        candidates.update(pathset.throughput(PathType.SPLIT_OVERLAY, T0))
        assert result.chosen == max(sorted(candidates), key=lambda k: candidates[k])
        assert result.probe_overhead_bytes > 0
        assert result.stale_s == 0.0

    def test_select_goes_stale_without_probe(self, pathset):
        selector = ProbingSelector(pathset)
        selector.probe(T0)
        later = selector.select(T0 + 7_200.0)
        assert later.stale_s == pytest.approx(7_200.0)
        assert later.probe_overhead_bytes == 0

    def test_first_select_probes(self, pathset):
        selector = ProbingSelector(pathset)
        result = selector.select(T0)
        assert result.stale_s == 0.0
        assert selector.total_overhead_bytes > 0


class TestMptcpSelector:
    def test_zero_overhead_selection(self, pathset):
        selector = MptcpSelector(pathset)
        result = selector.select(T0, 10.0, np.random.default_rng(3))
        assert result.probe_overhead_bytes == 0
        assert result.stale_s == 0.0
        assert result.chosen in ["direct"] + [o.name for o in pathset.options]
        assert result.throughput_mbps > 0

    def test_subflow_count(self, pathset):
        selector = MptcpSelector(pathset)
        assert len(selector.connection.paths) == len(pathset.options) + 1


class TestPlacement:
    def test_min_nodes_single_best(self):
        samples = {"a": [10, 10, 10], "b": [5, 5, 5]}
        assert min_nodes_for_max_throughput(samples) == 1

    def test_min_nodes_alternating(self):
        # a is best at t0/t2, b at t1: both are needed.
        samples = {"a": [10, 1, 10], "b": [5, 9, 5], "c": [1, 1, 1]}
        assert min_nodes_for_max_throughput(samples) == 2

    def test_min_nodes_all_needed(self):
        samples = {"a": [9, 1, 1], "b": [1, 9, 1], "c": [1, 1, 9]}
        assert min_nodes_for_max_throughput(samples) == 3

    def test_validation(self):
        with pytest.raises(AnalysisError):
            min_nodes_for_max_throughput({})
        with pytest.raises(AnalysisError):
            min_nodes_for_max_throughput({"a": [1.0], "b": [1.0, 2.0]})
        with pytest.raises(AnalysisError):
            min_nodes_for_max_throughput({"a": []})

    def test_best_subset(self):
        samples = {"a": [10, 0], "b": [0, 10], "c": [6, 6]}
        subset, avg = best_subset_average_max(samples, 1)
        assert subset == ("c",)
        assert avg == pytest.approx(6.0)
        subset2, avg2 = best_subset_average_max(samples, 2)
        assert subset2 == ("a", "b")
        assert avg2 == pytest.approx(10.0)
        with pytest.raises(AnalysisError):
            best_subset_average_max(samples, 4)

    def test_table1_flattens(self):
        """More nodes never hurt; gains taper (Table I's shape)."""
        per_path = [
            {"a": [10, 2], "b": [2, 9], "c": [5, 5], "d": [1, 1]},
            {"a": [8, 8], "b": [3, 3], "c": [2, 2], "d": [7, 9]},
        ]
        directs = [2.0, 4.0]
        rows = improvement_vs_node_count(per_path, directs)
        assert [k for k, _m, _md in rows] == [1, 2, 3, 4]
        means = [m for _k, m, _md in rows]
        assert means == sorted(means)  # monotone non-decreasing

    def test_table1_validation(self):
        with pytest.raises(AnalysisError):
            improvement_vs_node_count([], [])
        with pytest.raises(AnalysisError):
            improvement_vs_node_count([{"a": [1.0]}], [0.0])
        with pytest.raises(AnalysisError):
            improvement_vs_node_count([{"a": [1.0]}], [1.0, 2.0])
