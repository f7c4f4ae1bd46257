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

from reference.packetsim_scalar import PacketLevelTcp as ScalarTcp
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
