"""NewReno AIMD: additive increase 1 segment/RTT, halve on loss."""

from __future__ import annotations

from repro.errors import TransportError, check
from repro.transport.cc.base import MIN_CWND_SEGMENTS, CongestionControl


class RenoCC(CongestionControl):
    """Classic AIMD with configurable additive/multiplicative constants."""

    def __init__(
        self,
        initial_cwnd: float = 10.0,
        additive_increase: float = 1.0,
        multiplicative_decrease: float = 0.5,
    ) -> None:
        super().__init__(initial_cwnd=initial_cwnd)
        self.additive_increase = check(
            additive_increase, "additive_increase", gt=0, error=TransportError
        )
        self.multiplicative_decrease = check(
            multiplicative_decrease, "multiplicative_decrease", gt=0, lt=1, error=TransportError
        )

    def on_round(self, lost: bool, rtt_s: float) -> None:
        """Apply one RTT of AIMD: halve on loss, otherwise grow."""
        if rtt_s <= 0:
            raise TransportError(f"RTT must be positive, got {rtt_s}")
        if lost:
            self.in_slow_start = False
            self.cwnd = max(self.cwnd * self.multiplicative_decrease, MIN_CWND_SEGMENTS)
        elif self.in_slow_start:
            self.cwnd *= 2.0
        else:
            self.cwnd += self.additive_increase
