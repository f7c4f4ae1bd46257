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

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from reference import link_metrics, policy_decide
from reference.packetsim_scalar import PacketLevelTcp as ScalarTcp
from repro.control.health import PathHealth, PathState
from repro.control.policy import (
    AnycastIngressPolicy,
    BestPathPolicy,
    C45RulePolicy,
    MptcpSubflowPolicy,
    QpsWeightedPolicy,
    StaticPolicy,
)
from repro.control.probes import ProbeResult
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


# ----------------------------------------------------------------------
# load-aware policies: the batched splits against the scalar decide
# ----------------------------------------------------------------------

#: Utilizations a relay can read in one epoch: idle, negative zero,
#: exactly the spill threshold, saturated, over-subscribed, a relay
#: whose upkeep ate its CPU (``inf``), and NaN (the fictitious-play
#: signal after two infinite snapshots, ``inf + (inf - inf) / k``).
_LOADS = (0.0, -0.0, 0.3, 0.95, 1.0, 1.7, math.inf, math.nan)


@st.composite
def _probes(draw, label: str) -> ProbeResult:
    """A failed or ok probe; ok values collide often, so ties abound."""
    if draw(st.booleans()) and draw(st.booleans()):
        return ProbeResult(
            label=label, at_time=0.0, ok=False, rtt_ms=math.inf, loss=1.0,
            throughput_mbps=None, bytes_cost=0,
        )
    return ProbeResult(
        label=label,
        at_time=0.0,
        ok=True,
        rtt_ms=draw(st.one_of(st.sampled_from((0.0, 40.0, 95.5)), st.floats(0.01, 500.0))),
        loss=0.0,
        throughput_mbps=draw(
            st.one_of(st.none(), st.sampled_from((0.0, 3.3, 10.0)), st.floats(0.001, 1e3))
        ),
        bytes_cost=0,
        ingress_rtt_ms=draw(
            st.one_of(st.none(), st.sampled_from((5.0, 21.7)), st.floats(0.01, 300.0))
        ),
    )


@st.composite
def _policy_tables(draw):
    """(health, probe rows, loads): 1-5 relays, some failed, dead rows.

    A row maps each relay to its probe or leaves it unprobed; a dead
    row probes none.  ``loads`` is one (epochs x relays) matrix row
    per epoch, over label-sorted columns.
    """
    labels = [f"r{i}" for i in range(draw(st.integers(1, 5)))]
    states = st.sampled_from(list(PathState))
    health = {label: PathHealth(label=label, state=draw(states)) for label in labels}
    row = st.tuples(*(st.one_of(st.none(), _probes(label)) for label in labels))
    rows = [
        {probe.label: probe for probe in drawn if probe is not None}
        for drawn in draw(st.lists(row, min_size=1, max_size=8))
    ]
    loads = draw(
        st.lists(
            st.lists(st.sampled_from(_LOADS), min_size=len(labels), max_size=len(labels)),
            min_size=1,
            max_size=4,
        )
    )
    return health, rows, np.array(loads)


def _split_dicts(stack: np.ndarray, labels: list[str]) -> list[list[dict[str, float]]]:
    """Each (epoch, row) split as ``{label: share}`` over its non-zero shares."""
    return [
        [{label: share for label, share in zip(labels, row) if share != 0.0} for row in epoch]
        for epoch in stack.tolist()
    ]


@settings(derandomize=True, deadline=None)
@given(table=_policy_tables())
def test_load_aware_batch_matches_scalar_decide(table):
    health, rows, loads = table
    labels = sorted(health)
    epochs = [dict(zip(labels, epoch)) for epoch in loads.tolist()]
    for policy, scalar in (
        (QpsWeightedPolicy(), policy_decide.qps_weighted),
        (AnycastIngressPolicy(), policy_decide.anycast_ingress),
    ):
        expected = [[scalar(health, probes, epoch) for probes in rows] for epoch in epochs]
        assert _split_dicts(policy.batch(health, rows)(loads), labels) == expected
    # The load-blind policies go through the base batch, which must
    # serve every epoch the one split ``decide`` gives.
    for policy in (
        StaticPolicy(labels[0]), BestPathPolicy(), C45RulePolicy(), MptcpSubflowPolicy()
    ):
        split = [
            policy_decide.split(policy.decide(0.0, health, probes, current=()))
            for probes in rows
        ]
        assert _split_dicts(policy.batch(health, rows)(loads), labels) == [split] * len(loads)
