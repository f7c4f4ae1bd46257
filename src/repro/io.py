"""Result export: experiment outputs as JSON for downstream use.

Experiment result objects render human-readable text; users who want
to re-plot or post-process get structured dumps through this module.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Any


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/enums/tuples to JSON-safe types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
            # Live object graphs (hosts, links, trees) are not data.
            if field.name not in ("internet", "world", "tree", "pathsets", "links")
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    # Anything else (Link, Host, trees...) is summarized by name/repr.
    return getattr(value, "name", repr(value))


def dump_json(value: Any, path: str | Path) -> Path:
    """Write any experiment result as pretty-printed JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(to_jsonable(value), indent=2, sort_keys=True))
    return target

