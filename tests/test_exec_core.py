"""Unit tests for repro.exec's identity, partitioning, cache and manifest."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExecError
from repro.exec.cache import MISS, ResultCache
from repro.exec.manifest import RunManifest, ShardRecord
from repro.exec.pool import ShardOutcome
from repro.exec.shard import default_shard_count, partition_indices
from repro.exec.spec import TaskSpec, canonical_json


class TestTaskSpec:
    def test_key_is_stable_across_param_insertion_order(self):
        a = TaskSpec("k", 7, 0, 2, params={"x": 1, "y": 2})
        b = TaskSpec("k", 7, 0, 2, params={"y": 2, "x": 1})
        assert a.key() == b.key()

    def test_key_changes_with_every_identity_component(self):
        base = TaskSpec("k", 7, 0, 2, params={"x": 1})
        variants = [
            TaskSpec("other", 7, 0, 2, params={"x": 1}),
            TaskSpec("k", 8, 0, 2, params={"x": 1}),
            TaskSpec("k", 7, 1, 2, params={"x": 1}),
            TaskSpec("k", 7, 0, 3, params={"x": 1}),
            TaskSpec("k", 7, 0, 2, params={"x": 2}),
        ]
        keys = {spec.key() for spec in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_salt_changes_key(self):
        spec = TaskSpec("k", 7, 0, 1)
        assert spec.key("epoch=1") != spec.key("epoch=2")

    def test_label(self):
        assert TaskSpec("longitudinal.samples", 7, 2, 8).label == (
            "longitudinal.samples[2/8]"
        )

    def test_invalid_specs_raise(self):
        with pytest.raises(ExecError):
            TaskSpec("", 7, 0, 1)
        with pytest.raises(ExecError):
            TaskSpec("k", 7, 2, 2)
        with pytest.raises(ExecError):
            TaskSpec("k", 7, 0, 0)
        with pytest.raises(ExecError):
            TaskSpec("k", 7, 0, 1, params={"bad": object()})

    def test_canonical_json_rejects_non_serializable(self):
        with pytest.raises(ExecError):
            canonical_json({"fn": lambda: None})


class TestPartitioning:
    def test_shard_count_is_pure_function_of_work_size(self):
        assert default_shard_count(3) == 3
        assert default_shard_count(16) == 16
        assert default_shard_count(100) == 16
        assert default_shard_count(100, max_shards=4) == 4

    def test_partition_concatenates_to_full_range(self):
        for n_items in (1, 5, 16, 33, 100):
            for n_shards in (1, 2, 7, min(n_items, 16)):
                if n_shards > n_items:
                    continue
                spans = partition_indices(n_items, n_shards)
                flat = [i for span in spans for i in span]
                assert flat == list(range(n_items))
                sizes = [len(span) for span in spans]
                assert max(sizes) - min(sizes) <= 1

    def test_partition_rejects_more_shards_than_items(self):
        with pytest.raises(ExecError):
            partition_indices(3, 4)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = TaskSpec("k", 7, 0, 1).key()
        cache.put(key, {"rows": [1, 2, 3]})
        assert cache.has(key)
        assert cache.get(key) == {"rows": [1, 2, 3]}

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("ab" + "0" * 62) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = TaskSpec("k", 7, 0, 1).key()
        path = cache.put(key, [1])
        path.write_text("{torn")
        assert cache.get(key) is None
        path.write_text(json.dumps({"key": "someone-else", "payload": [9]}))
        assert cache.get(key) is None

    def test_truncated_payload_mid_file_is_a_miss_and_quarantined(self, tmp_path):
        # The regression: a payload truncated mid-file — here mid
        # multi-byte character, the nastiest case (raises
        # UnicodeDecodeError, not JSONDecodeError) — must read as a
        # cache miss, never an error, and the bad file must be moved
        # aside so the recompute lands cleanly.
        cache = ResultCache(tmp_path)
        key = TaskSpec("k", 7, 0, 1).key()
        path = cache.put(key, {"note": "café" * 40})
        raw = json.dumps(
            {"key": key, "payload": {"note": "café" * 40}}, ensure_ascii=False
        ).encode("utf-8")
        cut = raw.index("é".encode("utf-8")) + 1  # inside the 2-byte char
        path.write_bytes(raw[:cut])
        assert cache.lookup(key) is MISS
        assert not path.exists()  # quarantined, not left to re-trip
        assert path.with_suffix(".corrupt").exists()  # evidence kept
        cache.put(key, {"note": "café" * 40})  # recompute lands cleanly
        assert cache.get(key) == {"note": "café" * 40}

    def test_has_is_existence_only_but_lookup_validates(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = TaskSpec("k", 7, 0, 1).key()
        path = cache.put(key, [1, 2])
        path.write_bytes(path.read_bytes()[:5])  # torn entry
        assert cache.has(key)  # has() is a cheap existence check...
        assert cache.lookup(key) is MISS  # ...lookup() is the truth
        assert not cache.has(key)  # and it quarantined the bad file

    def test_lookup_distinguishes_none_payload_from_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = TaskSpec("k", 7, 0, 1).key()
        cache.put(key, None)
        assert cache.lookup(key) is None
        assert cache.lookup("ab" + "0" * 62) is MISS

    def test_stats_exclude_run_manifests(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(TaskSpec("k", 7, 0, 1).key(), [1])
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "deadbeef.json").write_text("{}")
        count, size = cache.stats()
        assert count == 1
        assert size > 0


class TestManifest:
    def _manifest(self) -> RunManifest:
        outcome = ShardOutcome(
            index=0, key="a" * 64, label="k[0/2]", status="ok",
            attempts=1, duration_s=0.5,
        )
        failed = ShardOutcome(
            index=1, key="b" * 64, label="k[1/2]", status="error",
            attempts=2, duration_s=0.1, error="boom",
        )
        return RunManifest(
            workers=4,
            records=[
                ShardRecord.from_outcome("main", outcome),
                ShardRecord.from_outcome("main", failed),
            ],
            wall_s=1.25,
        )

    def test_counts_and_render(self):
        manifest = self._manifest()
        assert manifest.executed == 1
        assert manifest.errors == 1
        assert manifest.cache_hits == 0
        assert manifest.stage_counts() == {"main": (1, 0, 1)}
        text = manifest.render()
        assert "FAILED main/k[1/2]" in text
        assert "boom" in text

    def test_run_id_ignores_timing(self):
        a = self._manifest()
        b = self._manifest()
        object.__setattr__(b, "wall_s", 99.0)
        assert a.run_id == b.run_id

    def test_write_load_round_trip(self, tmp_path):
        manifest = self._manifest()
        path = manifest.write(tmp_path / "runs" / "m.json")
        loaded = RunManifest.load(path)
        assert loaded.run_id == manifest.run_id
        assert loaded.records == manifest.records
        assert loaded.workers == 4

    def test_load_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        for body in ("{}", '{"workers": 1, "wall_s": 0.0, "records": [[1, 2]]}'):
            bad.write_text(body)
            with pytest.raises(ExecError):
                RunManifest.load(bad)
        with pytest.raises(ExecError):
            RunManifest.load(tmp_path / "missing.json")

    def test_load_reads_manifests_with_retired_backend_keys(self, tmp_path):
        # Written while exec had two backends: a top-level "backend" and
        # a per-record "worker" (null on the local-fork pool).
        old = tmp_path / "old.json"
        old.write_text(
            """{
  "backend": "local-fork",
  "records": [
    {"attempts": 1, "duration_s": 0.5, "error": null, "index": 0,
     "key": "aaaa", "label": "k[0/1]", "stage": "main", "status": "ok",
     "worker": null}
  ],
  "run_id": "0123456789abcdef",
  "wall_s": 1.25,
  "workers": 2
}"""
        )
        loaded = RunManifest.load(old)
        assert loaded.workers == 2
        assert loaded.records == [
            ShardRecord(
                stage="main", index=0, label="k[0/1]", key="aaaa",
                status="ok", attempts=1, duration_s=0.5,
            )
        ]
        assert "1 executed" in loaded.render()
