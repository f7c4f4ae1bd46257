"""Structured decision log: every re-route, explainable after the fact.

Operators of a live overlay need to answer "why did traffic move at
02:13?"  Each :class:`DecisionRecord` captures the instant, the policy,
the before/after active sets, the policy's stated reason, and the
health transitions that triggered the re-evaluation — enough to replay
any failover from the log alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.control.health import HealthTransition


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One policy decision that changed (or confirmed) the active set."""

    at_time: float
    policy: str
    old_active: tuple[str, ...]
    new_active: tuple[str, ...]
    reason: str
    triggers: tuple[HealthTransition, ...] = ()

    @property
    def changed(self) -> bool:
        """True when the decision actually moved traffic."""
        return self.old_active != self.new_active

    def render(self) -> str:
        """One log line: ``t=123.0 [policy] a+b -> c (reason) <- triggers``."""
        old = "+".join(self.old_active) or "(none)"
        new = "+".join(self.new_active) or "(none)"
        line = f"t={self.at_time:.1f} [{self.policy}] {old} -> {new} ({self.reason})"
        if self.triggers:
            causes = ", ".join(
                f"{tr.label}:{tr.old.value}->{tr.new.value}" for tr in self.triggers
            )
            line += f" <- {causes}"
        return line


@dataclass
class DecisionLog:
    """Append-only record of the controller's routing decisions."""

    records: list[DecisionRecord] = field(default_factory=list)

    def append(self, record: DecisionRecord) -> None:
        """Add one decision (change decisions only; confirmations are noise)."""
        self.records.append(record)

    def changes(self) -> list[DecisionRecord]:
        """Only the decisions that moved traffic."""
        return [record for record in self.records if record.changed]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(self.records)

    def render(self) -> str:
        """The whole log, one line per decision."""
        return "\n".join(record.render() for record in self.records)
