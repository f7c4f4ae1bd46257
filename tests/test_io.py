"""Result export (JSON)."""

from __future__ import annotations

import json

from repro.io import dump_json, to_jsonable


class TestToJsonable:
    def test_dataclass_conversion(self):
        from repro.transport.throughput import FlowStats

        stats = FlowStats(
            duration_s=30.0, bytes_acked=100, bytes_retransmitted=1,
            avg_rtt_ms=50.0, throughput_mbps=0.01,
        )
        data = to_jsonable(stats)
        assert data["bytes_acked"] == 100
        json.dumps(data)  # round-trips

    def test_enum_and_tuple(self):
        from repro.tunnel import TunnelType

        assert to_jsonable(TunnelType.GRE) == "gre"
        assert to_jsonable((1, 2.5, "x")) == [1, 2.5, "x"]

    def test_nested_experiment_result_is_serializable(self):
        from repro.experiments.weblab import WeblabConfig, run_weblab

        result = run_weblab(WeblabConfig(seed=3, scale="small", n_clients=4, n_servers=2))
        json.dumps(to_jsonable(result))


class TestDumps:
    def test_dump_json(self, tmp_path):
        target = dump_json({"a": [1, 2]}, tmp_path / "out" / "x.json")
        assert json.loads(target.read_text()) == {"a": [1, 2]}
