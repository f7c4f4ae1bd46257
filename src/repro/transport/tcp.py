"""A single-path TCP connection in model mode.

``TcpConnection`` pairs a resolved path with its TCP parameters and
reports the steady-state rate the path sustains at an instant.  Timed
transfers over a window live in :mod:`repro.core.measure_plan`, which
folds every leg of a batch of path sets at once.
"""

from __future__ import annotations

from repro.net.path import RouterPath
from repro.transport.throughput import TcpParams, steady_state_throughput_mbps


class TcpConnection:
    """One TCP flow over a fixed router-level path."""

    def __init__(self, path: RouterPath, params: TcpParams | None = None) -> None:
        self.path = path
        self.params = params or TcpParams()

    def throughput_at(self, t: float) -> float:
        """Instantaneous steady-state throughput (Mbps) at time ``t``."""
        return steady_state_throughput_mbps(self.path.metrics(t), self.params)
