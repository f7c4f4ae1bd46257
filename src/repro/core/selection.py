"""Path selection: active probing vs the paper's MPTCP approach.

Sec. VI: traditional overlay systems probe candidate paths and pick
one — which costs probe traffic and goes stale between probes.  The
paper's proposal: open an MPTCP connection with one subflow per
candidate path and let the coupled congestion control *be* the
selector — it converges onto the best path(s) using only the ACKs of
useful data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pathset import PathSet, PathType
from repro.transport.mptcp import MptcpConnection, MptcpScheme, MptcpStats


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Outcome of a selection round."""

    chosen: str  # path label ("direct" or an overlay node name)
    throughput_mbps: float
    probe_overhead_bytes: int
    stale_s: float  # age of the information the choice is based on


class ProbingSelector:
    """The classic baseline: probe every path, pick the best.

    Each ``probe()`` transfers ``probe_duration_s`` worth of traffic on
    every candidate path, overlays in split mode; between probes,
    ``select`` returns the last winner no matter how the network has
    changed since.
    """

    def __init__(self, pathset: PathSet, probe_duration_s: float = 5.0) -> None:
        self.pathset = pathset
        self.probe_duration_s = probe_duration_s
        self._last_probe_time: float | None = None
        self._last_choice: str | None = None
        self._overhead_bytes = 0

    def probe(self, at_time: float) -> SelectionResult:
        """Probe all paths now; remember and return the winner."""
        labels = ("direct", *(option.name for option in self.pathset.options))
        candidates = {
            label: self.pathset.rate(PathType.SPLIT_OVERLAY, label, at_time) for label in labels
        }
        # Probe traffic: each path carries probe_duration_s at its rate.
        overhead = int(
            sum(rate * 1e6 / 8 * self.probe_duration_s for rate in candidates.values())
        )
        self._overhead_bytes += overhead
        choice = max(sorted(candidates), key=lambda k: candidates[k])
        self._last_probe_time = at_time
        self._last_choice = choice
        return SelectionResult(
            chosen=choice,
            throughput_mbps=candidates[choice],
            probe_overhead_bytes=overhead,
            stale_s=0.0,
        )

    def select(self, at_time: float) -> SelectionResult:
        """Return the current choice (stale until the next probe)."""
        if self._last_choice is None or self._last_probe_time is None:
            return self.probe(at_time)
        # The remembered path's *current* throughput — selection decided
        # on stale data actually delivers this.
        return SelectionResult(
            chosen=self._last_choice,
            throughput_mbps=self.pathset.rate(
                PathType.SPLIT_OVERLAY, self._last_choice, at_time
            ),
            probe_overhead_bytes=0,
            stale_s=at_time - self._last_probe_time,
        )

    @property
    def total_overhead_bytes(self) -> int:
        """Cumulative probe traffic this selector has generated."""
        return self._overhead_bytes


class MptcpSelector:
    """The paper's selector: subflows on all N+1 paths, zero probes.

    "There is no separate need to probe the different paths...  the
    MPTCP congestion control will infer this information based on the
    received ACKs for every sent data segment" (Sec. VI-A).
    """

    def __init__(
        self,
        pathset: PathSet,
        scheme: MptcpScheme = MptcpScheme.OLIA,
        rwnd_bytes: int = 4_194_304,
    ) -> None:
        self.pathset = pathset
        self.connection = MptcpConnection(
            pathset.all_candidate_paths(), scheme=scheme, rwnd_bytes=rwnd_bytes
        )

    def run(
        self, at_time: float, duration_s: float, rng: np.random.Generator
    ) -> MptcpStats:
        """Transfer data; the CC does the selecting as a side effect."""
        return self.connection.run(at_time, duration_s, rng)

    def select(
        self, at_time: float, duration_s: float, rng: np.random.Generator
    ) -> SelectionResult:
        """Report which path the connection concentrated its traffic on."""
        stats = self.run(at_time, duration_s, rng)
        labels = ["direct"] + [option.name for option in self.pathset.options]
        volumes = [sub.bytes_acked for sub in stats.subflows]
        winner = max(range(len(volumes)), key=lambda i: volumes[i])
        return SelectionResult(
            chosen=labels[winner],
            throughput_mbps=stats.throughput_mbps,
            probe_overhead_bytes=0,  # data packets double as probes
            stale_s=0.0,  # decisions update every ACK
        )
