"""Transport models: TCP, split-TCP, MPTCP.

Two complementary engines:

* **model mode** — closed-form steady-state throughput from the Mathis
  relation plus window/bandwidth limits (:mod:`repro.transport.throughput`).
  Fast enough for the 6,600-path campaigns.
* **fluid mode** — a round-based congestion-window simulator
  (:mod:`repro.transport.fluid`) where flows share link capacity tick
  by tick.  Used for the MPTCP experiments where coupled congestion
  control dynamics are the object of study.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "mathis": ("MATHIS_CONSTANT", "mathis_throughput_mbps"),
        "throughput": ("FlowStats", "TcpParams", "steady_state_throughput_mbps"),
        "tcp": ("TcpConnection",),
        "split": ("SplitTcpChain",),
        "fluid": ("FluidSimulator", "FluidFlow"),
        "mptcp": ("MptcpConnection", "MptcpScheme"),
    },
)
