"""Task identity: what exactly one shard of work computes.

A :class:`TaskSpec` is the *complete* description of a shard — the
experiment kind, every parameter that influences the result, the seed,
and the shard's position in the partition.  Two specs with equal
canonical forms MUST compute byte-identical payloads; the cache key is
a hash of the canonical form plus a code-version salt, so a cache hit
is always safe to serve in place of recomputation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExecError, check


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift).

    Raises :class:`ExecError` for values JSON cannot represent — a
    spec that cannot be serialized cannot be cached, and silently
    hashing ``repr()`` would alias distinct specs.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise ExecError(f"spec params are not JSON-serializable: {error}") from error


@dataclass(frozen=True)
class TaskSpec:
    """The hashable identity of one shard.

    Parameters
    ----------
    kind:
        What the shard computes, e.g. ``"longitudinal.samples"``.
        Namespaced by convention; shown in manifests.
    seed:
        The experiment seed the shard's world derives from.
    shard_index / shard_count:
        The shard's position in the partition.  ``shard_count`` is a
        function of the *work*, never of the worker count — that is
        what keeps results byte-identical at any parallelism.
    params:
        Every remaining input that influences the payload (scale,
        config knobs, sample counts...).  Must be JSON-serializable.
    """

    kind: str
    seed: int
    shard_index: int
    shard_count: int
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ExecError("spec kind must be non-empty")
        check(self.shard_count, "shard_count", gt=0, error=ExecError)
        check(self.shard_index, "shard_index", ge=0, lt=self.shard_count, error=ExecError)
        canonical_json(self.params)  # fail fast on unhashable params

    def canonical(self) -> str:
        """The spec's canonical JSON form (stable across processes)."""
        return canonical_json(
            {
                "kind": self.kind,
                "seed": self.seed,
                "shard_index": self.shard_index,
                "shard_count": self.shard_count,
                "params": self.params,
            }
        )

    def key(self, salt: str = "") -> str:
        """Content-address of this shard's result.

        ``salt`` carries the code-version component (see
        :func:`~repro.exec.cache.code_salt`): a new salt invalidates
        every cached payload without touching the cache directory.
        """
        digest = hashlib.sha256(f"{salt}\n{self.canonical()}".encode("utf-8"))
        return digest.hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable shard label for logs and manifests."""
        return f"{self.kind}[{self.shard_index}/{self.shard_count}]"
