"""CRONets: Cloud-Routed Overlay Networks — full reproduction.

Public API surface.  The typical flow:

>>> from repro import build_world, CRONet
>>> world = build_world(seed=7, scale="small")
>>> cronet = CRONet.build(world.internet, world.cloud, dc_names=["dallas", "amsterdam"])
>>> paths = cronet.path_set("client-0", "server-0")
>>> report = paths.measure(world.internet.now)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro._lazy import lazy_exports
from repro.errors import ReproError

__version__ = "1.0.0"

# Lazily re-export the heavyweight API so ``import repro`` stays fast:
# nothing here loads numpy or the Internet substrate until it is used.
_lazy_names, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rand": ("RandomStreams",),
        "net": ("Internet", "Topology", "TopologyConfig", "generate_topology"),
        "cloud": ("CloudProvider",),
        "core": ("CRONet", "PathSet", "MptcpSelector", "ProbingSelector"),
        "experiments.scenario": ("build_world",),
    },
)

__all__ = ["ReproError", "__version__", *_lazy_names]
