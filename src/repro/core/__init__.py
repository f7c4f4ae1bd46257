"""CRONets core: build-your-own overlay from cloud VMs.

The user-facing API of the reproduction:

* :class:`~repro.core.cronet.CRONet` — rent overlay nodes from a cloud
  provider and get path sets between arbitrary endpoints,
* :class:`~repro.core.pathset.PathSet` — the direct path plus one
  overlay option per node, measurable in all four of the paper's modes
  (direct / overlay / split-overlay / discrete),
* :class:`~repro.core.selection.MptcpSelector` — the paper's novel
  MPTCP-based automatic path selection (Sec. VI), with a classic
  probing selector as the baseline it replaces,
* :mod:`~repro.core.placement` — how many overlay nodes are needed
  (Sec. IV, Fig. 7 / Table I).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cronet": ("CRONet",),
        "pathset": ("OverlayPathOption", "PathSet", "PathType"),
        "measure_plan": ("FourWayMeasurement", "measure_four_ways"),
        "selection": ("MptcpSelector", "ProbingSelector", "SelectionResult"),
        "placement": ("improvement_vs_node_count", "min_nodes_for_max_throughput"),
        "proxy": ("MptcpProxyPair",),
    },
)
