"""The run manifest: what ran where, how long, and from which cache.

A manifest is the operational record of one exec run — shard
assignment, per-shard timing, cache hits, ok/error counts — written
as JSON next to the cache so ``repro exec manifest`` (and the
campaign-health table in ``repro report``) can render it later.  It
is a *log*, not a result: timings vary run to run while the result
files stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.tables import format_table
from repro.errors import ExecError
from repro.exec.pool import STATUS_CACHED, STATUS_ERROR, STATUS_OK, ShardOutcome

#: Per-record keys of older manifests that no field carries any more.
_RETIRED_KEYS = frozenset({"worker"})


@dataclass(frozen=True)
class ShardRecord:
    """One shard's row in the manifest."""

    stage: str
    index: int
    label: str
    key: str
    status: str
    attempts: int
    duration_s: float
    error: str | None = None

    @classmethod
    def from_outcome(cls, stage: str, outcome: ShardOutcome) -> "ShardRecord":
        """Lift a pool outcome into a manifest record."""
        return cls(
            stage=stage,
            index=outcome.index,
            label=outcome.label,
            key=outcome.key,
            status=outcome.status,
            attempts=outcome.attempts,
            duration_s=outcome.duration_s,
            error=outcome.error,
        )


@dataclass
class RunManifest:
    """Everything ``repro report`` needs to tell the story of a run."""

    workers: int
    records: list[ShardRecord] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def run_id(self) -> str:
        """Stable id derived from the shard keys (not from timing)."""
        digest = hashlib.sha256(
            "\n".join(record.key for record in self.records).encode("utf-8")
        )
        return digest.hexdigest()[:16]

    @property
    def executed(self) -> int:
        """Shards computed fresh in this run."""
        return sum(1 for r in self.records if r.status == STATUS_OK)

    @property
    def cache_hits(self) -> int:
        """Shards served from the content-addressed cache."""
        return sum(1 for r in self.records if r.status == STATUS_CACHED)

    @property
    def errors(self) -> int:
        """Shards that exhausted their retries."""
        return sum(1 for r in self.records if r.status == STATUS_ERROR)

    def stage_counts(self) -> dict[str, tuple[int, int, int]]:
        """Stage name -> (executed, cached, errors), in record order."""
        counts: dict[str, list[int]] = {}
        for record in self.records:
            slot = counts.setdefault(record.stage, [0, 0, 0])
            if record.status == STATUS_OK:
                slot[0] += 1
            elif record.status == STATUS_CACHED:
                slot[1] += 1
            else:
                slot[2] += 1
        return {stage: tuple(slot) for stage, slot in counts.items()}

    def error_shards(self) -> list[ShardRecord]:
        """The failed shards, for the flaky-vantage-point table."""
        return [r for r in self.records if r.status == STATUS_ERROR]

    def render(self) -> str:
        """Human-readable summary: totals, per-stage table, failures."""
        lines = [
            f"exec run {self.run_id}: {len(self.records)} shards on "
            f"{self.workers} workers in {self.wall_s:.2f} s — "
            f"{self.executed} executed, {self.cache_hits} cached, "
            f"{self.errors} errors"
        ]
        rows = []
        for stage, (executed, cached, errors) in self.stage_counts().items():
            durations = [
                r.duration_s for r in self.records
                if r.stage == stage and r.status == STATUS_OK
            ]
            slowest = max(durations) if durations else 0.0
            rows.append((stage, executed, cached, errors, f"{slowest:.2f} s"))
        lines.append(
            format_table(["stage", "executed", "cached", "errors", "slowest shard"], rows)
        )
        for record in self.error_shards():
            lines.append(
                f"  FAILED {record.stage}/{record.label} after "
                f"{record.attempts} attempt(s): {record.error}"
            )
        return "\n".join(lines)

    def write(self, path: str | Path) -> Path:
        """Persist the manifest as JSON; returns the written path."""
        from repro.io import to_jsonable

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        body = {
            "run_id": self.run_id,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "records": to_jsonable(self.records),
        }
        target.write_text(json.dumps(body, indent=2, sort_keys=True))
        return target

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Read a manifest previously written by :meth:`write`.

        Manifests written while a second exec backend existed carry a
        top-level ``backend`` and a per-record ``worker``; both are
        dropped.
        """
        try:
            body = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ExecError(f"cannot read manifest {path}: {error}") from error
        try:
            records = [
                ShardRecord(**{k: v for k, v in record.items() if k not in _RETIRED_KEYS})
                for record in body["records"]
            ]
            return cls(workers=body["workers"], records=records, wall_s=body["wall_s"])
        except (AttributeError, KeyError, TypeError) as error:
            raise ExecError(f"malformed manifest {path}: {error}") from error
