"""Fast twins against their references, at drawn inputs.

Every speedup in the repository keeps a reference twin that the fast
code must reproduce bit for bit.  The fixed-input identity tests pin a
few seeds and link shapes; the properties here draw the inputs, so a
defect that shows only at some other seed, timing or link shape fails
too.  Each comparison is exact equality, not closeness.

The examples are derandomized so tier-1 stays deterministic.  For a
longer search, run::

    PYTHONPATH=src python -m pytest tests/test_twin_properties.py \\
        --hypothesis-profile thorough
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from reference import link_metrics
from reference.packetsim_scalar import PacketLevelTcp as ScalarTcp
from repro.core.measure_plan import PathSetBatch
from repro.experiments.scenario import build_world
from repro.net.diurnal import SECONDS_PER_DAY
from repro.net.path import RouterPath
from repro.transport.packetsim import PacketLevelTcp, SimLink

#: Rates in Mbps and delays in ms small enough that a drawn flow stays
#: a few thousand segments: both engines run every example.
_capacity = st.floats(1.0, 200.0)
_loss = st.one_of(st.just(0.0), st.floats(1e-4, 0.02))


@st.composite
def sim_links(draw) -> SimLink:
    """One hop: capacity, delay, loss, bulk loss, queue and shaper."""
    capacity = draw(_capacity)
    loss = draw(_loss)
    bulk = draw(st.one_of(st.none(), st.floats(loss, 0.04)))
    burst = draw(st.one_of(st.just(0), st.integers(1, 128)))
    return SimLink(
        capacity_mbps=capacity,
        prop_delay_ms=draw(st.floats(0.0, 20.0)),
        loss_prob=loss,
        queue_packets=draw(st.integers(1, 256)),
        shaper_burst_packets=burst,
        line_rate_mbps=capacity * draw(st.floats(1.0, 100.0)),
        bulk_loss_prob=bulk,
    )


def _replay(engine, links, seed, rwnd_bytes, limit_segments, duration_s):
    tcp = engine(
        links,
        np.random.default_rng(seed),
        rwnd_bytes=rwnd_bytes,
        limit_segments=limit_segments,
    )
    tcp.trace = []
    stats = tcp.run(duration_s)
    return (
        stats,
        tcp.trace,
        tcp.delivered_segments,
        tcp.retransmissions,
        tuple(tcp.rtt_samples),
        # The final sender state: a one-ulp drift in the timer or the
        # window shows here even when no traced instant moves.
        (tcp.cwnd, tcp.ssthresh, tcp.srtt_s, tcp.rttvar_s, tcp.rto_s),
    )


def _hop(capacity_mbps, prop_delay_ms, **knobs) -> SimLink:
    return SimLink(capacity_mbps, prop_delay_ms, queue_packets=1, **knobs)


@settings(derandomize=True, deadline=None)
# Divergences the search found, kept as fixed examples.  A bounded flow
# that finished just before the horizon reported the horizon when a
# stale timer lay past it:
@example(
    links=[SimLink(4.0, 0.0, queue_packets=4)],
    seed=0, rwnd_bytes=16_384, limit_segments=298, duration_s=1.25,
)
# exact time ties on zero-delay hops broke by push order:
@example(
    links=[_hop(1.0, 0.0)] * 3
    + [_hop(2.0, 0.0), _hop(1.0, 0.0, bulk_loss_prob=0.03125),
       _hop(1.0, 0.0, loss_prob=0.015625)],
    seed=0, rwnd_bytes=16_384, limit_segments=None, duration_s=1.0,
)
# and the lazy timer fired up to 1e-12 s before its deadline:
@example(
    links=[
        _hop(120.37991027439746, 13.0, shaper_burst_packets=3,
             line_rate_mbps=7914.979100541633),
        _hop(1.0, 0.0), _hop(1.0, 0.0), _hop(1.0, 1.0), _hop(1.0, 13.0),
    ],
    seed=0, rwnd_bytes=16_384, limit_segments=None, duration_s=3.0,
)
@given(
    links=st.lists(sim_links(), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    rwnd_bytes=st.sampled_from([16_384, 65_536, 262_144, 1_048_576]),
    limit_segments=st.one_of(st.none(), st.integers(1, 600)),
    duration_s=st.floats(0.1, 5.0),
)
def test_packet_engine_matches_scalar_reference(
    links, seed, rwnd_bytes, limit_segments, duration_s
):
    args = (links, seed, rwnd_bytes, limit_segments, duration_s)
    fast = _replay(PacketLevelTcp, *args)
    assert fast == _replay(ScalarTcp, *args)


# ----------------------------------------------------------------------
# link metrics: the mirror against the frozen scalar walk
# ----------------------------------------------------------------------

#: The fault effects a link can carry, as ``Link.impair`` keywords (and
#: ``fail``).  Magnitudes are drawn in [0, 1] and scaled per effect.
_EFFECTS = ("fail", "extra_loss", "extra_delay_ms", "util_surge", "bulk_extra_loss")


def _pathset(world, pair: tuple[int, int]):
    hosts = world.server_names + world.client_names()
    src = hosts[pair[0] % len(hosts)]
    dst = hosts[pair[1] % len(hosts)]
    if src == dst:
        dst = hosts[(pair[1] + 1) % len(hosts)]
    return world.cronet().path_set(src, dst)


def _paths(pathset) -> list[RouterPath]:
    """The direct path, then per overlay option its joined leg and halves."""
    paths = [pathset.direct]
    for option in pathset.options:
        paths += [option.concatenated, option.leg_to_node, option.leg_from_node]
    return paths


def _apply_faults(paths: list[RouterPath], faults) -> None:
    """Fail or impair the drawn links of ``paths`` (one ``impair`` per link)."""
    by_id = {link.link_id: link for p in paths for link in p.links}
    links = list(by_id.values())
    impairments: dict[int, dict[str, float]] = {}
    for index, effect, magnitude in faults:
        link = links[index % len(links)]
        if effect == "fail":
            link.fail()
            continue
        scale = 60.0 if effect == "extra_delay_ms" else 1.0
        impairments.setdefault(link.link_id, {})[effect] = magnitude * scale
    for link_id, knobs in impairments.items():
        by_id[link_id].impair(**knobs)


def _per_path_samples(pathset, t: float):
    """What :meth:`PathSetBatch.sample` batches, one connection at a time."""
    direct = pathset.direct.metrics(t)
    rows = [
        (
            pathset.direct_connection().throughput_at(t),
            direct.rtt_ms,
            direct.bulk_loss,
        )
    ]
    for option in pathset.options:
        chain = pathset.split_chain(option)
        tunnel = option.concatenated.metrics(t)
        first = option.leg_to_node.metrics(t)
        second = option.leg_from_node.metrics(t)
        rows += [
            (
                pathset.overlay_connection(option).throughput_at(t),
                tunnel.rtt_ms,
                tunnel.bulk_loss,
            ),
            (chain.throughput_at(t), first.rtt_ms + second.rtt_ms, first.loss),
            chain.discrete_bound_at(t),
        ]
    return rows


def _batched_samples(sample) -> list:
    rows = [tuple(sample.direct)]
    for name in sample.overlay:
        rows += [
            tuple(sample.overlay[name]),
            tuple(sample.split[name]),
            sample.discrete[name],
        ]
    return rows


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    pair=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    t=st.one_of(st.just(0.0), st.floats(0.0, 14 * SECONDS_PER_DAY)),
    faults=st.lists(
        st.tuples(st.integers(0, 255), st.sampled_from(_EFFECTS), st.floats(0.0, 1.0)),
        max_size=4,
    ),
)
def test_link_metrics_match_scalar_walk(seed, pair, t, faults):
    pathset = _pathset(build_world(seed=seed, scale="small"), pair)
    paths = _paths(pathset)
    _apply_faults(paths, faults)
    # Compared by repr, which tells every float's bits apart (-0.0 too).
    # The per-hop values are what fluid, the packet snapshot and
    # traceroute read.
    with link_metrics.object_mode():
        scalar = repr([(p.is_alive(), p.metrics(t), p.hop_metrics(t)) for p in paths])
        per_path = repr(_per_path_samples(pathset, t))
    assert repr([(p.is_alive(), p.metrics(t), p.hop_metrics(t)) for p in paths]) == scalar
    (sample,) = PathSetBatch([pathset]).sample(t)
    assert repr(_batched_samples(sample)) == per_path
