"""Path sets: the direct path plus every one-hop overlay option.

Mirrors Sec. II's measurement design.  For a sender/receiver pair
(A, B) and overlay nodes O₁..Oₙ, a :class:`PathSet` exposes:

* the **direct** path A→B (what BGP gives you),
* per node, the **overlay** path A→Oᵢ→B as one tunneled end-to-end TCP
  connection (encapsulation shrinks the MSS; the relay shaves a little
  throughput),
* the **split-overlay** variant where Oᵢ terminates TCP (per-segment
  congestion control — the Mathis RTT lever),
* the **discrete** bound: min of the two segments measured separately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigError
from repro.net.links import mutation_epoch
from repro.net.path import RouterPath
from repro.net.world import Internet
from repro.transport.split import SplitTcpChain
from repro.transport.tcp import TcpConnection
from repro.transport.throughput import TcpParams
from repro.tunnel.node import NodeMode, OverlayNode, SPLIT_EFFICIENCY
from repro.units import DEFAULT_MSS

#: Instants the rate memo holds per path set before it starts over.
_RATE_MEMO_INSTANTS = 8192


class PathType(enum.Enum):
    """The four measurement modes of Sec. II."""

    DIRECT = "direct"
    OVERLAY = "overlay"
    SPLIT_OVERLAY = "split_overlay"
    DISCRETE_OVERLAY = "discrete_overlay"


@dataclass(frozen=True)
class OverlayPathOption:
    """One overlay node's path option between a fixed (A, B) pair."""

    node: OverlayNode
    leg_to_node: RouterPath  # A -> O
    leg_from_node: RouterPath  # O -> B

    @property
    def name(self) -> str:
        """The overlay node's name."""
        return self.node.name

    @property
    def concatenated(self) -> RouterPath:
        """The A→O→B router-level path (the tunnel overlay's view).

        Built once and cached on the instance (frozen but not slotted):
        the legs are immutable, and probe/decide loops ask for this
        path every tick.  Sharing one object also lets the fastpath
        mirror keep its per-path row indices and metric memo alive
        across ticks instead of rebuilding them per call.
        """
        cached = self.__dict__.get("_concatenated")
        if cached is None:
            cached = self.leg_to_node.concatenate(self.leg_from_node)
            object.__setattr__(self, "_concatenated", cached)
        return cached


@dataclass(frozen=True)
class PathSet:
    """Direct + overlay path options between one sender/receiver pair."""

    internet: Internet
    src_name: str
    dst_name: str
    direct: RouterPath
    options: tuple[OverlayPathOption, ...]

    @classmethod
    def build(
        cls,
        internet: Internet,
        src_name: str,
        dst_name: str,
        nodes: list[OverlayNode],
    ) -> "PathSet":
        """Resolve the direct path and both legs of every overlay option.

        Each overlay node establishes a tunnel toward the CRONets user
        (the receiver for a download); the sender side needs nothing —
        its return traffic rides the node's NAT.
        """
        direct = internet.resolve_path(src_name, dst_name)
        options = []
        for node in nodes:
            if node.host.name in (src_name, dst_name):
                raise ConfigError(
                    f"overlay node {node.name} cannot be an endpoint of the pair"
                )
            node.establish_tunnel(dst_name)
            options.append(
                OverlayPathOption(
                    node=node,
                    leg_to_node=internet.resolve_path(src_name, node.host.name),
                    leg_from_node=internet.resolve_path(node.host.name, dst_name),
                )
            )
        return cls(
            internet=internet,
            src_name=src_name,
            dst_name=dst_name,
            direct=direct,
            options=tuple(options),
        )

    # ------------------------------------------------------------------
    # connection factories per measurement mode
    # ------------------------------------------------------------------
    @cached_property
    def _connections(self) -> dict:
        """Per-instance memo for the connection factories below.

        Connections are immutable descriptions (frozen dataclasses
        evaluating metrics lazily against the clock), so one instance
        per mode serves every tick; rebuilding them per probe showed up
        in chaos-campaign profiles.
        """
        return {}

    def _receiver_params(self) -> TcpParams:
        """Base TCP parameters for this pair (receiver-window bound)."""
        cache = self._connections
        params = cache.get("params")
        if params is None:
            params = TcpParams(
                mss_bytes=DEFAULT_MSS,
                rwnd_bytes=self.internet.host(self.dst_name).rwnd_bytes,
            )
            cache["params"] = params
        return params

    def direct_connection(self) -> TcpConnection:
        """Single-path TCP over the default Internet route."""
        cache = self._connections
        conn = cache.get("direct")
        if conn is None:
            conn = TcpConnection(self.direct, self._receiver_params())
            cache["direct"] = conn
        return conn

    def overlay_connection(self, option: OverlayPathOption) -> TcpConnection:
        """End-to-end TCP through the tunnel (plain overlay mode).

        The tunnel's encapsulation reduces the MSS; the node's
        forwarding efficiency shaves the rate.
        """
        cache = self._connections
        key = ("overlay", option.name)
        conn = cache.get(key)
        if conn is None:
            conn = TcpConnection(option.concatenated, self.overlay_params(option))
            cache[key] = conn
        return conn

    def overlay_params(self, option: OverlayPathOption) -> TcpParams:
        """TCP parameters of the tunnel overlay through ``option``."""
        tunnel = option.node.tunnel_for(self.dst_name)
        forwarder = option.node.with_mode(NodeMode.FORWARD)
        return TcpParams(
            mss_bytes=tunnel.inner_mss_bytes,
            rwnd_bytes=self._receiver_params().rwnd_bytes,
            efficiency=forwarder.relay_efficiency,
        )

    def split_chain(self, option: OverlayPathOption) -> SplitTcpChain:
        """Split-TCP through the node (split-overlay mode).

        Only the client-side segment rides the tunnel (reduced MSS);
        the proxy-to-server segment is plain TCP — split mode requires
        cleartext TCP headers (Sec. II-A), so there is no IPsec on that
        side by construction.
        """
        cache = self._connections
        key = ("split", option.name)
        chain = cache.get(key)
        if chain is None:
            tunnel = option.node.tunnel_for(self.dst_name)
            params = self._receiver_params().with_mss(tunnel.inner_mss_bytes)
            chain = SplitTcpChain(
                segments=(option.leg_to_node, option.leg_from_node),
                params=params,
                proxy_efficiency=SPLIT_EFFICIENCY,
            )
            cache[key] = chain
        return chain

    # ------------------------------------------------------------------
    # instantaneous throughput per mode
    # ------------------------------------------------------------------
    @cached_property
    def _labels_by_mode(
        self,
    ) -> dict[PathType, dict[str, tuple[str, OverlayPathOption | None]]]:
        """mode -> label -> (memo key, option) for every rate :meth:`rate` knows.

        "direct" rates the same under every mode, so it has one key.
        Built once: every memo entry shares its key string, and a label
        missing from a mode's table is not a path option of that mode.
        """
        table = {}
        for mode in PathType:
            labels = table[mode] = {"direct": ("direct", None)}
            if mode is not PathType.DIRECT:
                for option in self.options:
                    name = option.name
                    labels[name] = (f"{mode.value}:{name}", option)
        return table

    @cached_property
    def _rate_memo(self) -> dict[tuple[float, int], dict[str, float]]:
        """``{(t, state id): {memo key: Mbps}}``, the memo behind :meth:`rate`.

        A rate is a pure function of (mode, label, instant, link state),
        and equal state ids mean byte-equal link state
        (:meth:`~repro.net.fastpath.FastPath.state_key`), so an entry
        survives clock rewinds: the runs of a campaign that replay one
        fault timeline against this path set reuse each other's rates.
        """
        return {}

    @cached_property
    def _rate_last(self) -> list:
        """``[(t, mutation epoch), rates]`` of the instant :meth:`rate` read last.

        While neither moves, the state id cannot have moved either, so
        the next read skips the state-id lookup.
        """
        return [None, None]

    def rate(self, mode: PathType, label: str, at_time: float) -> float:
        """Mbps that path option ``label`` delivers under ``mode`` at ``at_time``.

        ``label`` is "direct" or an overlay node's name; a dead path
        (any failed link) delivers 0.0.  This is the one place a label
        and a mode become a rate: the controller's goodput and oracle,
        the probes and the selectors all read it, so one evaluation per
        (mode, label, instant, link state) serves them all.
        """
        entry = self._labels_by_mode[mode].get(label)
        if entry is None:
            raise ConfigError(
                f"pair {self.src_name}->{self.dst_name} has no {mode.value} path {label!r}"
            )
        key, option = entry
        last = self._rate_last
        instant = (at_time, mutation_epoch())
        if last[0] == instant:
            rates = last[1]
        else:
            memo = self._rate_memo
            state = (at_time, self.internet.fastpath.state_key())
            rates = memo.get(state)
            if rates is None:
                if len(memo) >= _RATE_MEMO_INSTANTS:
                    memo.clear()
                rates = memo[state] = {}
            last[0] = instant
            last[1] = rates
        value = rates.get(key)
        if value is None:
            value = rates[key] = self._rate_cold(mode, option, at_time)
        return value

    def _rate_cold(
        self, mode: PathType, option: OverlayPathOption | None, at_time: float
    ) -> float:
        """Uncached evaluation behind :meth:`rate` (``option`` None is direct)."""
        if option is None:
            if not self.direct.is_alive():
                return 0.0
            return self.direct_connection().throughput_at(at_time)
        if not option.concatenated.is_alive():
            return 0.0
        if mode is PathType.OVERLAY:
            return self.overlay_connection(option).throughput_at(at_time)
        chain = self.split_chain(option)
        if mode is PathType.DISCRETE_OVERLAY:
            return chain.discrete_bound_at(at_time)
        return chain.throughput_at(at_time)

    def throughput(self, path_type: PathType, at_time: float) -> dict[str, float]:
        """Instantaneous throughput (Mbps) per overlay node for a mode.

        For ``PathType.DIRECT`` the single entry is keyed ``"direct"``.
        """
        if path_type is PathType.DIRECT:
            return {"direct": self.rate(path_type, "direct", at_time)}
        return {
            option.name: self.rate(path_type, option.name, at_time)
            for option in self.options
        }

    def best_overlay(self, path_type: PathType, at_time: float) -> tuple[str, float]:
        """(node name, Mbps) of the best overlay option for a mode."""
        if path_type is PathType.DIRECT:
            raise ConfigError("best_overlay needs an overlay path type")
        if not self.options:
            raise ConfigError(f"pair {self.src_name}->{self.dst_name} has no overlay options")
        per_node = self.throughput(path_type, at_time)
        name = max(sorted(per_node), key=lambda n: per_node[n])
        return name, per_node[name]

    def all_candidate_paths(self) -> list[RouterPath]:
        """Direct + every concatenated overlay path (for MPTCP N+1)."""
        return [self.direct] + [option.concatenated for option in self.options]
