"""Tunnels, NAT and overlay-node behaviour.

A CRONets overlay node is a rented cloud VM that (Sec. II):

* terminates a GRE or IPsec tunnel from one endpoint,
* runs IP masquerade (NAT) so *return* traffic from the far endpoint
  also rides the overlay without a second tunnel, and
* either forwards packets (plain overlay) or terminates TCP as a
  split-TCP proxy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "encap": ("TunnelSpec", "TunnelType"),
        "nat": ("MasqueradeNat", "NatBinding"),
        "node": ("NodeMode", "OverlayNode"),
    },
)
