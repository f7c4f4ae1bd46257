"""Vectorized struct-of-arrays mirror of the link state (the fastpath).

Every link metric in the library — each path's delay, loss, bulk loss
and available bandwidth, and the per-hop values the fluid engine, the
packet snapshot and traceroute read — is evaluated here.  The scalar
per-link walk these must match bit for bit is frozen in
``tests/reference/link_metrics.py``.

:class:`FastPath` evaluates the metrics over flat numpy arrays:

* **static arrays** (capacity, propagation delay, base loss, queue
  depth, diurnal parameters) gathered once per topology size, in
  link-id order — row ``i`` is the link with the ``i``-th smallest
  ``link_id``.  Ids are assigned monotonically and never reused, so a
  link's row is stable for the lifetime of the world (appends extend
  the arrays without moving existing rows): the *id-stability
  invariant* that lets paths cache their row indices forever.
* **dynamic arrays** (``failed`` mask and the four impairment fields)
  re-gathered whenever the global link :func:`mutation epoch
  <repro.net.links.mutation_epoch>` moves — every ``fail`` /
  ``restore`` / ``impair`` / ``clear_impairment`` on any link bumps
  it, so staleness detection is one integer compare per query.
* **rows read**: only links some path has folded are ever evaluated.
  A path's rows register on its first fold and get append-only
  *positions* (0, 1, 2, … in first-fold order), so a world whose
  paths touch 32 of 426 links pays for 32.
* **per-(t, state) metric lists**: one vectorized pass computes the
  one-way delay, loss, bulk loss, available bandwidth and utilization
  of every row read so far, by position, for a time instant; all paths
  queried at that instant index the same lists.  An entry cached before
  more rows were read is extended in place on its next lookup: the
  lookup key holds the current state id, so the dynamic state the
  extension reads is the one the entry was computed under.  The key is
  the *interned dynamic state* (every distinct gathered blob, over all
  links, gets a small integer id), not the epoch — campaign runs that
  rewind the clock and replay the same fault timeline re-enter
  previously seen states and hit the metric and per-path fold caches
  their predecessor runs populated.
* **batched folds**: a :class:`LegBatch` of legs (tuples of path
  segments) is folded at one instant in one pass (:meth:`FastPath.fold`)
  from a per-(t, state) operand table that is filled only at the
  positions batches read, so measuring many paths at one instant costs
  one vectorized fold, not one Python walk per path.

Each :class:`~repro.net.world.Internet` owns one mirror over its
``links_by_id``; a hand-built :class:`~repro.net.path.RouterPath` gets a
private one over its own links.  The caches live on the mirror, never
in a process-wide memo keyed by link id: ids restart in every world.

**Byte-identity.**  The vector pass reproduces the scalar formulas
operation for operation: elementwise IEEE-754 ``+ - * /``,
``minimum``/``maximum``/``where`` give the scalar results bit for bit
when the operand order matches (numpy float64 ops are the same hardware
instructions as Python float arithmetic).  Two places need care: the
diurnal cosine is evaluated with ``math.cos`` per *unique* peak hour of
the rows read (``np.cos`` may differ in the last ulp) and scattered back
through a ``np.unique`` inverse; and per-path aggregation folds
sequentially, in Python over the indexed values or with ufunc
``accumulate`` down a batch's hops (``numpy.sum`` uses pairwise
summation, which is *not* the scalar accumulation order).  The episode
overlay is each read link's own :meth:`EpisodeProcess.extra_at
<repro.net.diurnal.EpisodeProcess.extra_at>`, so episode days are drawn
only for links some path reads.  ``tests/test_twin_properties.py``
asserts bit-equal metrics against the frozen walk at drawn worlds,
instants and faults, and ``tests/test_fastpath_identity.py``
byte-identical study JSON.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import check
from repro.net.links import (
    LOSS_KNEE,
    MAX_CONGESTION_LOSS,
    MIN_FAIR_SHARE,
    QUEUE_KNEE,
    Link,
    mutation_epoch,
)
from repro.net.path import HopMetrics, LegMetrics, PathMetrics, RouterPath
from repro.units import SECONDS_PER_HOUR

#: Cap on cached per-(t, state) metric-list sets; cleared when full.
_METRIC_CACHE_MAX = 1024
#: Cap on cached per-(path, t, state) fold results; cleared when full.
_PATH_CACHE_MAX = 262144
#: Gathered operand entries per block of a batched fold (legs x hops).
_FOLD_BLOCK = 1 << 14
#: Cap on cached per-(t, state) batch operand tables; cleared when full.
_BATCH_CACHE_MAX = 128
#: A batched fold's padding column: the identity of each fold's operation.
_PADDING = np.array([0.0, 1.0, 1.0, math.inf])


class FastPath:
    """Struct-of-arrays mirror of a live ``{link id: link}`` mapping.

    The mapping is a world's ``links_by_id`` (hosts attached later add
    rows) or a hand-built path's own links.  All arrays are lazily
    (re)built on first use: ``sync()`` rebuilds the static arrays when
    the link count changed (hosts attached) and re-gathers the dynamic
    arrays when the mutation epoch moved.
    Callers never notify the mirror of individual mutations — the
    epoch compare *is* the cache-invalidation contract.
    """

    #: Class-level diurnal-cosine memo keyed (peak-hour tuple, t):
    #: campaigns rebuild the same world per scenario arm, and every
    #: rebuild walks the same tick grid, so the per-unique-peak
    #: ``math.cos`` evaluations repeat across FastPath instances.
    _cos_cache: dict[tuple, np.ndarray] = {}
    _COS_CACHE_MAX = 8192
    #: Process-wide path serial source — serials key the per-path fold
    #: cache, so they must be unique across FastPath instances (a path
    #: keeps the first serial it is ever assigned).
    _next_serial = 0

    def __init__(self, links_by_id: Mapping[int, Link]) -> None:
        self._links_by_id = links_by_id
        self._links: list = []
        self._row: dict[int, int] = {}
        self._n_links = -1
        self._epoch = -1
        #: Dynamic-state interning: the epoch says *when* link state
        #: changed, the state id says *what* it changed to.  Campaign
        #: runs replay the same fault timeline several times (one per
        #: arm × strategy), so the same state blobs — and therefore the
        #: same ids — recur with fresh epochs, letting every metric
        #: cache below survive a clock rewind.
        self._state_ids: dict[bytes, int] = {}
        self._state_id = -1
        #: Rows some path has folded, in first-fold order: ``_read[p]``
        #: is the row at position ``p`` and ``_pos`` inverts it.  Both
        #: only ever grow, so a position is as stable as a row.
        self._read: list[int] = []
        self._pos: dict[int, int] = {}
        #: Each read row's episode overlay, by position (rows never move).
        self._extra_at: list = []
        #: Number of positions the per-position arrays cover (-1: none).
        self._n_gathered = -1
        #: (t, state id) -> (one_way, loss, bulk_loss, avail, util)
        #: lists, indexed by position.
        self._mcache: dict[tuple[float, int], tuple] = {}
        #: (path serial, t, state id) -> PathMetrics.
        self._pmcache: dict[tuple[int, float, int], PathMetrics] = {}
        #: (t, state id) -> (batched-fold operands, evaluated-column
        #: mask), filled only at the positions batches read.
        self._bcache: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # synchronisation with the object world
    # ------------------------------------------------------------------
    def sync(self) -> int:
        """Bring the arrays up to date; returns the current epoch."""
        if len(self._links_by_id) != self._n_links:
            self._rebuild_static()
        epoch = mutation_epoch()
        if epoch != self._epoch:
            self._gather_dynamic()
            self._epoch = epoch
        return epoch

    def _rebuild_static(self) -> None:
        """Gather per-link constants, in link-id order (stable rows).

        Rows, positions and every cache survive: links are only ever
        appended, so no row or position moves, and a blob gathered over
        the new row set has a different length than any old blob — new
        state ids cannot collide with the ones the caches (and outside
        memos keyed on them, e.g. the pathset-shared label-rate memo)
        already hold.
        """
        links = sorted(self._links_by_id.values(), key=lambda l: l.link_id)
        self._links = links
        self._row = {link.link_id: i for i, link in enumerate(links)}
        self._n_links = len(links)
        self._capacity = np.array([l.capacity_mbps for l in links], dtype=np.float64)
        self._prop = np.array([l.prop_delay_ms for l in links], dtype=np.float64)
        self._base_loss = np.array([l.base_loss for l in links], dtype=np.float64)
        self._max_queue = np.array([l.max_queue_ms for l in links], dtype=np.float64)
        self._base_util = np.array([l.load.base_util for l in links], dtype=np.float64)
        self._amplitude = np.array([l.load.diurnal_amp for l in links], dtype=np.float64)
        self._peak_hour = np.array([l.load.peak_hour for l in links], dtype=np.float64)
        self._n_gathered = -1  # re-gather the per-position arrays
        self._epoch = -1  # force a dynamic re-gather

    def _gather_dynamic(self) -> None:
        """Re-read the mutable link fields into flat arrays.

        The ``_any_*`` flags let the metric pass skip whole vector ops
        in the (common) clean state: selecting through an all-false
        mask or adding an all-``+0.0`` vector is the identity on every
        IEEE-754 value the pipeline produces, so the skip is
        bit-invisible (and stays so on any subset of rows).
        """
        links = self._links
        self._failed = np.array([l.failed for l in links], dtype=bool)
        self._failed_list = self._failed.tolist()
        self._extra_loss = np.array([l.extra_loss for l in links], dtype=np.float64)
        self._extra_delay = np.array(
            [l.extra_delay_ms for l in links], dtype=np.float64
        )
        self._util_surge = np.array([l.util_surge for l in links], dtype=np.float64)
        self._bulk_extra = np.array(
            [l.bulk_extra_loss for l in links], dtype=np.float64
        )
        self._any_failed = bool(self._failed.any())
        self._any_extra_loss = bool((self._extra_loss > 0.0).any())
        self._any_extra_delay = bool((self._extra_delay != 0.0).any())
        self._any_surge = bool((self._util_surge != 0.0).any())
        self._any_bulk = bool((self._bulk_extra > 0.0).any())
        # Intern the full dynamic state to a small id (exact — keyed by
        # the raw bytes, so no hash-collision exposure).  Metric caches
        # key on (t, state id) and are deliberately NOT cleared here:
        # a re-gather that lands on previously seen state revalidates
        # every cached instant computed under that state.
        blob = (
            self._failed.tobytes()
            + self._extra_loss.tobytes()
            + self._extra_delay.tobytes()
            + self._util_surge.tobytes()
            + self._bulk_extra.tobytes()
        )
        state = self._state_ids.get(blob)
        if state is None:
            state = len(self._state_ids)
            self._state_ids[blob] = state
        self._state_id = state

    # ------------------------------------------------------------------
    # rows read
    # ------------------------------------------------------------------
    def _positions(self, rows: Iterable[int]) -> list[int]:
        """Positions of ``rows``, registering the ones not yet read."""
        where = self._pos
        read = self._read
        positions = []
        for r in rows:
            p = where.get(r)
            if p is None:
                p = len(read)
                where[r] = p
                read.append(r)
            positions.append(p)
        return positions

    def _gather_read(self) -> None:
        """Index the static arrays by position, over every row read.

        Runs when rows registered since the last gather (or the static
        arrays were rebuilt); the unique read peak hours key the
        class-wide cosine memo.
        """
        idx = np.array(self._read, dtype=np.intp)
        self._read_idx = idx
        self._p_capacity = self._capacity[idx]
        self._p_prop = self._prop[idx]
        self._p_base_loss = self._base_loss[idx]
        self._p_max_queue = self._max_queue[idx]
        self._p_base_util = self._base_util[idx]
        self._p_amplitude = self._amplitude[idx]
        # Hoisting MIN_FAIR_SHARE * capacity is the same multiply the
        # scalar formula performs, done once instead of per instant.
        self._p_min_fair = MIN_FAIR_SHARE * self._p_capacity
        peaks, inverse = np.unique(self._peak_hour[idx], return_inverse=True)
        self._peak_unique = peaks.tolist()
        self._peaks_key = tuple(self._peak_unique)
        self._p_peak_inverse = inverse
        links = self._links
        self._extra_at.extend(
            links[r].load._episodes.extra_at for r in self._read[len(self._extra_at) :]
        )
        # An object array, so a batch's positions index it like the rest.
        self._p_extra_at = np.empty(len(idx), dtype=object)
        self._p_extra_at[:] = self._extra_at
        self._n_gathered = len(idx)

    # ------------------------------------------------------------------
    # vectorized link metrics
    # ------------------------------------------------------------------
    def _diurnal_offset(self, t: float, sel) -> np.ndarray:
        """Diurnal swing at ``t`` of the positions ``sel`` selects.

        ``math.cos`` per *unique* read peak hour (not ``np.cos``, which
        may differ in the last ulp from the scalar path), scattered
        back through the ``np.unique`` inverse.  The per-peak cosines
        are memoized class-wide: campaign runs rebuild identical worlds
        and walk identical tick grids.
        """
        key = (self._peaks_key, t)
        cos_by_peak = FastPath._cos_cache.get(key)
        if cos_by_peak is None:
            hour = (t / SECONDS_PER_HOUR) % 24.0
            cos = math.cos
            two_pi = 2.0 * math.pi
            cos_by_peak = np.array(
                [cos(two_pi * (hour - peak) / 24.0) for peak in self._peak_unique],
                dtype=np.float64,
            )
            if len(FastPath._cos_cache) >= FastPath._COS_CACHE_MAX:
                FastPath._cos_cache.clear()
            FastPath._cos_cache[key] = cos_by_peak
        return self._p_amplitude[sel] * cos_by_peak[self._p_peak_inverse[sel]]

    def _link_metrics(self, t: float, sel) -> tuple:
        """(one_way, loss, bulk_loss, avail, util) arrays at ``t``.

        ``sel`` selects positions: a slice, or an index array of the
        positions one batch reads.  The formulas are the scalar walk's
        op for op (see the module docstring for the byte-identity
        argument); the ``_any_*``-gated skips are identity operations on
        the values they skip.  Reads the *current* dynamic arrays.
        """
        check(t, "time", ge=0)
        if self._n_gathered != len(self._read):
            self._gather_read()
        rows = self._read_idx[sel]
        # Background utilization: base + diurnal + episodes, clamped.
        util = self._p_base_util[sel] + self._diurnal_offset(t, sel)
        # Adding an all-zero overlay is the identity (the base+diurnal
        # sum is never -0.0: x + (-x) rounds to +0.0), so it is skipped.
        extra = [extra_at(t) for extra_at in self._p_extra_at[sel].tolist()]
        if any(extra):
            util = util + np.array(extra, dtype=np.float64)
        util = np.minimum(np.maximum(util, 0.0), 0.995)
        # Link utilization: surge on top, 0 when failed.  util is
        # already <= 0.995, so with no surge the min(…, 1.0) is a no-op.
        u = np.minimum(util + self._util_surge[rows], 1.0) if self._any_surge else util
        failed = self._failed[rows] if self._any_failed else None
        if failed is not None:
            u = np.where(failed, 0.0, u)
        # Queuing delay: buffers fill quadratically past QUEUE_KNEE.
        fill = (u - QUEUE_KNEE) / (1.0 - QUEUE_KNEE)
        queue = np.where(u <= QUEUE_KNEE, 0.0, self._p_max_queue[sel] * fill * fill)
        one_way = self._p_prop[sel] + queue
        if self._any_extra_delay:
            one_way = one_way + self._extra_delay[rows]
        # Loss: congestion loss grows quadratically past LOSS_KNEE.
        severity = (u - LOSS_KNEE) / (1.0 - LOSS_KNEE)
        congestion = np.where(
            u > LOSS_KNEE, MAX_CONGESTION_LOSS * severity * severity, 0.0
        )
        loss = np.minimum(self._p_base_loss[sel] + congestion, 1.0)
        if self._any_extra_loss:
            extra_loss = self._extra_loss[rows]
            composed = np.minimum(1.0 - (1.0 - loss) * (1.0 - extra_loss), 1.0)
            loss = np.where(extra_loss <= 0.0, loss, composed)
        if failed is not None:
            loss = np.where(failed, 1.0, loss)
        # Bulk loss (on the post-failure visible loss).
        if self._any_bulk:
            bulk_extra = self._bulk_extra[rows]
            bulk = np.where(
                bulk_extra <= 0.0,
                loss,
                np.minimum(1.0 - (1.0 - loss) * (1.0 - bulk_extra), 1.0),
            )
        else:
            bulk = loss
        # Available bandwidth: headroom, floored at a minimal fair share.
        avail = np.maximum((1.0 - u) * self._p_capacity[sel], self._p_min_fair[sel])
        if failed is not None:
            avail = np.where(failed, 0.0, avail)
        return one_way, loss, bulk, avail, u

    def metric_lists(self, t: float, state: int) -> tuple:
        """(one_way_ms, loss, bulk_loss, avail_mbps, util) lists at ``t``.

        Indexed by position, over every row read so far; ``state`` must
        be the current state id (:meth:`state_key`).  Cached per (t,
        state id) and handed out as plain Python lists — the per-path
        folds index them without any per-call numpy overhead.  An entry
        shorter than the rows read is extended in place: the same state
        id names the same dynamic state, so the tail computed now is
        what a full pass would have given.  State-id keying makes the
        cache rewind-proof: campaign runs that replay the same fault
        timeline hit the entries their predecessors computed.
        """
        key = (t, state)
        n = len(self._read)
        cached = self._mcache.get(key)
        if cached is None:
            if len(self._mcache) >= _METRIC_CACHE_MAX:
                self._mcache.clear()
            cached = tuple(a.tolist() for a in self._link_metrics(t, slice(0, n)))
            self._mcache[key] = cached
        elif len(cached[0]) < n:
            tail = self._link_metrics(t, slice(len(cached[0]), n))
            for values, extra in zip(cached, tail):
                values.extend(extra.tolist())
        return cached

    def state_key(self) -> int:
        """Interned id of the *current* dynamic link state (syncs).

        Equal ids guarantee byte-equal dynamic state, so any pure
        function of (t, link state) may memoize on ``(t, state_key())``
        and survive clock rewinds — the contract the controller's
        pathset-shared label-rate memo builds on.
        """
        self.sync()
        return self._state_id

    # ------------------------------------------------------------------
    # per-path queries
    # ------------------------------------------------------------------
    def _path_rows(self, path: "RouterPath") -> list[int]:
        """Row indices of a path's links (cached on the path object).

        Safe to cache forever: rows are id-stable (see module doc).
        """
        rows = path.__dict__.get("_fp_rows")
        if rows is None:
            row = self._row
            rows = [row[link.link_id] for link in path.links]
            object.__setattr__(path, "_fp_rows", rows)
        return rows

    def _path_positions(self, path: "RouterPath") -> list[int]:
        """Positions of a path's links, registered on its first fold.

        Cached on the path like its rows: positions never move, and a
        path is only ever folded by the mirror of the world that
        resolved it.
        """
        positions = path.__dict__.get("_fp_pos")
        if positions is None:
            positions = self._positions(self._path_rows(path))
            object.__setattr__(path, "_fp_pos", positions)
        return positions

    def path_alive(self, path: "RouterPath") -> bool:
        """Vectorized :meth:`RouterPath.is_alive` (registers no rows)."""
        self.sync()
        if not self._any_failed:
            return True
        failed = self._failed_list
        for r in self._path_rows(path):
            if failed[r]:
                return False
        return True

    def path_metrics(self, path: "RouterPath", t: float) -> PathMetrics:
        """:meth:`RouterPath.metrics`; a ``t < 0`` raises :class:`ConfigError`.

        The fold accumulates sequentially in link order — the scalar
        walk's accumulation order — over the shared per-instant metric
        lists; each accumulator is independent, so fusing them into
        one pass is order-preserving.
        """
        self.sync()
        state = self._state_id
        key = (t, state)
        if path.__dict__.get("_fp_mkey") == key:
            return path.__dict__["_fp_mval"]
        serial = path.__dict__.get("_fp_serial")
        if serial is None:
            serial = FastPath._next_serial
            FastPath._next_serial = serial + 1
            object.__setattr__(path, "_fp_serial", serial)
        pkey = (serial, t, state)
        metrics = self._pmcache.get(pkey)
        if metrics is not None:
            object.__setattr__(path, "_fp_mkey", key)
            object.__setattr__(path, "_fp_mval", metrics)
            return metrics
        positions = self._path_positions(path)
        one_way_l, loss_l, bulk_l, avail_l, _ = self.metric_lists(t, state)
        one_way = 0.0
        survive = 1.0
        survive_bulk = 1.0
        avail = math.inf
        for p in positions:
            one_way += one_way_l[p]
            survive *= 1.0 - loss_l[p]
            survive_bulk *= 1.0 - bulk_l[p]
            a = avail_l[p]
            if a < avail:
                avail = a
        capacity = path.__dict__.get("_fp_cap")
        if capacity is None:
            capacity = min(link.capacity_mbps for link in path.links)
            object.__setattr__(path, "_fp_cap", capacity)
        metrics = PathMetrics(
            rtt_ms=2.0 * one_way,
            loss=1.0 - survive,
            available_bw_mbps=avail,
            capacity_mbps=capacity,
            bulk_loss=1.0 - survive_bulk,
        )
        if len(self._pmcache) >= _PATH_CACHE_MAX:
            self._pmcache.clear()
        self._pmcache[pkey] = metrics
        object.__setattr__(path, "_fp_mkey", key)
        object.__setattr__(path, "_fp_mval", metrics)
        return metrics

    def hop_metrics(self, path: "RouterPath", t: float) -> HopMetrics:
        """:meth:`RouterPath.hop_metrics`: the shared lists at the path's hops."""
        self.sync()
        positions = self._path_positions(path)
        lists = self.metric_lists(t, self._state_id)
        return HopMetrics(*([values[p] for p in positions] for values in lists))

    # ------------------------------------------------------------------
    # batched folds
    # ------------------------------------------------------------------
    def _fold_plan(self, legs: Sequence[tuple["RouterPath", ...]]) -> "_FoldPlan":
        """Register a batch's legs and lay them out for :meth:`fold`.

        Each leg's positions (its segments' in order) become one column
        of a (max hops x legs) matrix of operand columns: position ``p``
        is column ``p + 1`` and padding is column 0.
        """
        segments = [self._path_positions(segment) for leg in legs for segment in leg]
        segment_lengths = np.fromiter(map(len, segments), dtype=np.int32, count=len(segments))
        per_leg = np.fromiter(map(len, legs), dtype=np.int32, count=len(legs))
        lengths = np.add.reduceat(segment_lengths, np.cumsum(per_leg) - per_leg)
        flat = np.fromiter(
            itertools.chain.from_iterable(segments),
            dtype=np.int32,
            count=int(segment_lengths.sum()),
        )
        flat += 1
        n_legs = len(legs)
        columns = np.zeros((int(lengths.max()), n_legs), dtype=np.int32)
        starts = np.cumsum(lengths, dtype=np.int32) - lengths
        hop = np.arange(len(flat), dtype=np.int32) - np.repeat(starts, lengths)
        columns[hop, np.repeat(np.arange(n_legs, dtype=np.int32), lengths)] = flat
        used = np.zeros(len(self._read) + 1, dtype=bool)
        used[flat] = True
        if self._n_gathered != len(self._read):
            self._gather_read()
        by_column = np.append(math.inf, self._p_capacity)
        capacity = np.full(n_legs, math.inf)
        for hops in columns:
            np.minimum(capacity, by_column[hops], out=capacity)
        return _FoldPlan(np.flatnonzero(used), columns, capacity)

    def _operands(self, t: float, read: np.ndarray) -> np.ndarray:
        """Fold operands at ``t``: one column per position, padding first.

        Rows are one-way delay, survival (``1 - loss``), bulk survival
        and available bandwidth; column 0 is the padding, each fold's
        identity (+0.0, 1.0, 1.0, inf), and column ``p + 1`` holds
        position ``p``.  Kept per (t, state id) and filled only at the
        columns in ``read`` that no batch has read there yet, so the
        shards of one campaign, which share their instants, evaluate the
        links they have in common once.
        """
        key = (t, self._state_id)
        width = len(self._read) + 1
        entry = self._bcache.get(key)
        if entry is None or len(entry[1]) < width:
            operands = np.empty((4, width))
            have = np.zeros(width, dtype=bool)
            if entry is None:
                operands[:, 0] = _PADDING
                have[0] = True
                if len(self._bcache) >= _BATCH_CACHE_MAX:
                    self._bcache.clear()
            else:
                operands[:, : len(entry[1])] = entry[0]
                have[: len(entry[1])] = entry[1]
            entry = self._bcache[key] = (operands, have)
        operands, have = entry
        need = read[~have[read]]
        if len(need):
            one_way, loss, bulk, avail, _ = self._link_metrics(t, need - 1)
            operands[0, need] = one_way
            operands[1, need] = 1.0 - loss
            operands[2, need] = 1.0 - bulk
            operands[3, need] = avail
            have[need] = True
        return operands

    def fold(self, batch: "LegBatch", t: float) -> LegMetrics:
        """Every leg of ``batch`` at ``t``, in one pass.

        Link metrics are evaluated for the batch's own positions only,
        not for every row read so far, so a fresh instant draws episode
        days only for the links the batch uses.  The padded column
        matrix is folded one hop at a time, left to right — the scalar
        walk's accumulation order — and the padding is the identity of
        each fold.
        """
        self.sync()
        plan = batch._plan
        if plan is None:
            plan = batch._plan = self._fold_plan(batch.legs)
        operands = self._operands(t, plan.read)
        # Blocks of hops bound the gathered operands' size.  Down a block,
        # accumulate is the sequential left fold, one hop at a time; each
        # block starts from the previous block's result (the sum from the
        # scalar's 0.0; 1.0 and inf are exact identities).
        sums = 0.0
        survive = lowest = None
        step = max(1, _FOLD_BLOCK // plan.columns.shape[1])
        for lo in range(0, len(plan.columns), step):
            block = operands.take(plan.columns[lo : lo + step], axis=1)
            block[0, 0] += sums
            if survive is not None:
                block[1:3, 0] *= survive
            sums = np.add.accumulate(block[0], axis=0)[-1]
            survive = np.multiply.accumulate(block[1:3], axis=1)[:, -1]
            low = block[3].min(axis=0)
            lowest = low if lowest is None else np.minimum(lowest, low)
        loss, bulk_loss = 1.0 - survive
        return LegMetrics(
            rtt_ms=2.0 * sums,
            loss=loss,
            bulk_loss=bulk_loss,
            available_bw_mbps=lowest,
            capacity_mbps=plan.capacity,
        ).checked()


class _FoldPlan(NamedTuple):
    """A batch's layout in one mirror (positions are stable, so it is too)."""

    #: The operand columns the batch reads, ascending.
    read: np.ndarray
    #: (max hops x legs) operand columns; 0 is the padding.
    columns: np.ndarray
    #: Each leg's bottleneck capacity (static link state).
    capacity: np.ndarray


class LegBatch:
    """Legs whose metrics are folded together, one instant at a time.

    A leg is a tuple of path segments whose links run end to end: a
    direct path is one segment, and an overlay leg is the to-node leg
    followed by the from-node leg — the link order of
    :meth:`RouterPath.concatenate`, so the batch builds no joined path.
    When every segment shares one mirror (a world's), :meth:`metrics`
    is :meth:`FastPath.fold`; otherwise (hand-built paths, or segments
    of different worlds) each leg's snapshot is its joined path's
    :meth:`RouterPath.metrics`.  Either way the arrays are bit-identical
    to the per-path snapshots.
    """

    def __init__(self, legs: Sequence[tuple[RouterPath, ...]]) -> None:
        self.legs = list(legs)
        fastpath = self.legs[0][0].__dict__.get("_fastpath") if self.legs else None
        if any(
            segment.__dict__.get("_fastpath") is not fastpath
            for leg in self.legs
            for segment in leg
        ):
            fastpath = None
        self._fastpath: FastPath | None = fastpath
        self._plan: _FoldPlan | None = None
        self._joined: list[RouterPath] | None = None

    def metrics(self, t: float) -> LegMetrics:
        """Every leg's metrics at ``t``."""
        if self._fastpath is not None:
            return self._fastpath.fold(self, t)
        if self._joined is None:
            self._joined = [
                functools.reduce(RouterPath.concatenate, leg) for leg in self.legs
            ]
        return LegMetrics.stack([path.metrics(t) for path in self._joined])
