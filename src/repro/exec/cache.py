"""Content-addressed on-disk result cache.

Each shard's payload lands in ``<root>/<key[:2]>/<key>.json`` where
``key = sha256(code salt + canonical spec)`` and the code salt hashes
the ``repro`` package's own sources (:func:`code_salt`).  Writes are
atomic (temp file + ``os.replace``) so a killed run never leaves a
torn entry — whatever made it to the cache is complete and safe to
serve on ``--resume``.  Payloads are canonical JSON, so a cached shard's
bytes are identical to a recomputed shard's bytes.

A payload that *did* get torn anyway — a truncated file from an
unclean filesystem, a hand-edited entry — is never an error: it reads
as a miss, and :meth:`ResultCache.lookup` quarantines the bad file
(renamed to ``*.corrupt``) so the shard recomputes and the evidence
survives for post-mortems.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.errors import ExecError
from repro.io import to_jsonable

#: The ``repro`` package directory whose sources salt every cache key.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def source_hash(root: str | Path) -> str:
    """sha256 over the sorted relative paths and bytes of ``root``'s ``.py`` files.

    Paths are relative, so one tree hashes alike wherever it is checked
    out; any byte of any module moving changes the hash.
    """
    root = Path(root)
    files = sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    )
    digest = hashlib.sha256()
    for relative, path in files:
        data = path.read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def code_salt() -> str:
    """Code-version component of every cache key, computed once per process.

    The :func:`source_hash` of the running ``repro`` package: any code
    change makes every older entry unreachable (and harmless) instead
    of silently wrong, with nothing to bump by hand.
    """
    return source_hash(PACKAGE_ROOT)

#: Sentinel distinguishing "no entry" from a legitimately-``None``
#: payload in :meth:`ResultCache.lookup`.
MISS = object()


class ResultCache:
    """Shard payloads addressed by spec hash under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Where ``key``'s payload lives (two-level fan-out)."""
        if len(key) < 3:
            raise ExecError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        """True when an entry file for ``key`` exists.

        Purely an existence check — a torn entry still answers True.
        Anything that *serves* payloads must go through
        :meth:`lookup`, which validates and quarantines; ``has`` is
        for cheap statistics and tests only.
        """
        return self.path_for(key).exists()

    def lookup(self, key: str) -> Any:
        """The payload stored under ``key``, or :data:`MISS`.

        A corrupt entry — truncated by an unclean filesystem (possibly
        mid multi-byte character), hand-edited, or written for a
        different key — counts as a *miss*, never an error: the bad
        file is quarantined (renamed to ``*.corrupt``) so the caller
        recomputes and the next :meth:`put` lands cleanly, while the
        evidence stays on disk for post-mortems.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return MISS
        except OSError:
            return self._quarantine(path)
        try:
            wrapped = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return self._quarantine(path)
        if not isinstance(wrapped, dict) or wrapped.get("key") != key:
            return self._quarantine(path)
        if "payload" not in wrapped:
            return self._quarantine(path)
        return wrapped["payload"]

    def get(self, key: str) -> Any | None:
        """The payload stored under ``key``, or None on a miss.

        Thin wrapper over :meth:`lookup` for callers whose payloads
        are never ``None`` (every shard payload here is a dict/list).
        """
        payload = self.lookup(key)
        return None if payload is MISS else payload

    def _quarantine(self, path: Path) -> Any:
        """Move a bad entry aside (best effort) and report a miss."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass
        return MISS

    def put(self, key: str, payload: Any) -> Path:
        """Atomically store ``payload`` under ``key``; returns the path.

        The payload is converted with
        :func:`~repro.io.to_jsonable` and written to a temp file named
        after the writing PID, then renamed into place — concurrent
        workers writing the same key race benignly (last rename wins,
        both wrote identical bytes).
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(
            {"key": key, "payload": to_jsonable(payload)},
            sort_keys=True,
            separators=(",", ":"),
        )
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(body)
        os.replace(tmp, path)
        return path

    def stats(self) -> tuple[int, int]:
        """(entry count, total bytes) currently stored under the root."""
        count = 0
        total = 0
        if not self.root.exists():
            return (0, 0)
        # Only the two-hex-prefix fan-out dirs hold entries; the root
        # also hosts ``runs/`` manifests, which are not cache content.
        for path in self.root.glob("[0-9a-f][0-9a-f]/*.json"):
            count += 1
            total += path.stat().st_size
        return (count, total)
