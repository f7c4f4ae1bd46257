"""Congestion-control interfaces.

The fluid simulator advances flows in *rounds* (one RTT each).  At the
end of a round it tells the controller whether any loss was observed;
the controller updates its congestion window (measured in segments).

Multipath algorithms need to see their sibling subflows to couple the
window increases; a :class:`MultipathCoupler` owns the per-subflow
controllers and computes each one's increase from global state.
"""

from __future__ import annotations

import abc

from repro.errors import TransportError, check

#: Windows never drop below this (TCP's loss-recovery floor).
MIN_CWND_SEGMENTS = 2.0


class CongestionControl(abc.ABC):
    """Per-flow window controller driven by per-round loss feedback."""

    def __init__(self, initial_cwnd: float = 10.0) -> None:
        self.cwnd = check(initial_cwnd, "initial_cwnd", ge=MIN_CWND_SEGMENTS,
                          error=TransportError)
        #: Flows start in slow start (window doubling) until first loss.
        self.in_slow_start = True

    @abc.abstractmethod
    def on_round(self, lost: bool, rtt_s: float) -> None:
        """Advance one RTT round; ``lost`` marks a loss event in it."""

    def clamp(self, max_cwnd: float) -> None:
        """Apply the receive-window cap after an update."""
        self.cwnd = max(min(self.cwnd, max_cwnd), MIN_CWND_SEGMENTS)


class MultipathCoupler(abc.ABC):
    """Shared brain of an MPTCP connection's subflow controllers.

    Implementations compute per-subflow window increases from the
    joint state (windows and RTTs of all subflows), which is how
    coupled congestion control shifts traffic toward better paths.
    """

    def __init__(self) -> None:
        self.subflows: list["CoupledSubflowCC"] = []

    def new_subflow(self, initial_cwnd: float = 10.0) -> "CoupledSubflowCC":
        """Create and register one subflow controller."""
        subflow = CoupledSubflowCC(self, initial_cwnd=initial_cwnd)
        self.subflows.append(subflow)
        return subflow

    @abc.abstractmethod
    def increase_for(self, subflow: "CoupledSubflowCC") -> float:
        """Window increase (segments/round) for ``subflow`` right now."""

    def on_subflow_loss(self, subflow: "CoupledSubflowCC") -> None:
        """Multiplicative decrease on loss (both LIA and OLIA halve)."""
        subflow.cwnd = max(subflow.cwnd / 2.0, MIN_CWND_SEGMENTS)


class CoupledSubflowCC(CongestionControl):
    """A subflow window controller that defers increases to its coupler."""

    def __init__(self, coupler: MultipathCoupler, initial_cwnd: float = 10.0) -> None:
        super().__init__(initial_cwnd=initial_cwnd)
        self.coupler = coupler
        self.last_rtt_s = 0.1
        #: Smoothed per-round loss indicator, used by OLIA's path ranking.
        self.loss_rate_estimate = 1e-3
        self.rounds = 0

    def on_round(self, lost: bool, rtt_s: float) -> None:
        """Record one RTT of feedback and let the coupler grow the window."""
        if rtt_s <= 0:
            raise TransportError(f"RTT must be positive, got {rtt_s}")
        self.last_rtt_s = rtt_s
        self.rounds += 1
        # EWMA of per-packet loss observed this round.
        observed = (1.0 / max(self.cwnd, 1.0)) if lost else 0.0
        self.loss_rate_estimate = 0.9 * self.loss_rate_estimate + 0.1 * observed
        self.loss_rate_estimate = max(self.loss_rate_estimate, 1e-7)
        if lost:
            self.in_slow_start = False
            self.coupler.on_subflow_loss(self)
        elif self.in_slow_start:
            # Subflows slow-start independently (standard MPTCP behaviour).
            self.cwnd *= 2.0
        else:
            self.cwnd += self.coupler.increase_for(self)
