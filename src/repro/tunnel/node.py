"""The overlay node: a rented relay acting as tunnel relay or split proxy.

Relays run on either substrate — a cloud VM (the paper's deployment)
or a bare-metal server in a colocation facility (:mod:`repro.colo`).
Everything above the host (tunnels, modes) is substrate-blind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TunnelError
from repro.net.world import Host
from repro.tunnel.encap import TunnelSpec, TunnelType


class NodeMode(enum.Enum):
    """What the overlay node does with traversing traffic."""

    FORWARD = "forward"  # decapsulate, NAT, forward (plain overlay)
    SPLIT = "split"  # terminate TCP, relay bytes (split-overlay)


#: Host kinds that may run the relay software: rented cloud VMs and
#: colo bare-metal servers.  Clients/servers never relay.
RELAY_HOST_KINDS = ("cloud_vm", "colo_relay")

#: Relay efficiency of kernel forwarding (near line rate).
FORWARD_EFFICIENCY = 0.995
#: Relay efficiency of the split-TCP proxy (copies through userspace).
SPLIT_EFFICIENCY = 0.98


@dataclass
class OverlayNode:
    """A rented VM configured as a CRONets relay.

    ``host`` is the VM's attachment in the simulated Internet.  Tunnels
    are established from *client* endpoints only; the server side rides
    the node's IP masquerade (Sec. II: "without having to establish any
    tunnel with that other endpoint").  The model keeps no NAT state:
    an overlay option's two resolved legs carry both directions.
    """

    host: Host
    mode: NodeMode = NodeMode.FORWARD
    tunnels: dict[str, TunnelSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.host.kind not in RELAY_HOST_KINDS:
            raise TunnelError(
                f"overlay nodes must run on a relay host {RELAY_HOST_KINDS}, "
                f"got host kind {self.host.kind!r}"
            )

    @property
    def name(self) -> str:
        """The overlay node's name (its VM host name)."""
        return self.host.name

    def establish_tunnel(
        self, client_name: str, tunnel_type: TunnelType = TunnelType.GRE
    ) -> TunnelSpec:
        """Bring up (or return the existing) tunnel from a client."""
        existing = self.tunnels.get(client_name)
        if existing is not None:
            return existing
        spec = TunnelSpec(tunnel_type=tunnel_type)
        self.tunnels[client_name] = spec
        return spec

    def tunnel_for(self, client_name: str) -> TunnelSpec:
        """The tunnel spec for a client, which must already exist."""
        spec = self.tunnels.get(client_name)
        if spec is None:
            raise TunnelError(f"no tunnel from {client_name!r} at node {self.name}")
        return spec

    @property
    def relay_efficiency(self) -> float:
        """Throughput efficiency of the relay function in this mode."""
        return FORWARD_EFFICIENCY if self.mode is NodeMode.FORWARD else SPLIT_EFFICIENCY

    def with_mode(self, mode: NodeMode) -> "OverlayNode":
        """A view of the same node operating in a different mode.

        Shares the host and tunnels — the paper measures the same
        node both as a plain relay and as a split proxy.
        """
        return OverlayNode(host=self.host, mode=mode, tunnels=self.tunnels)
