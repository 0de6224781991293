"""Resource tables with cheap tentative (what-if) reservations.

The level-based scheduler evaluates ``F(i,k)`` for every (ready task, PE)
combination by *tentatively* scheduling the task's receiving transactions
and then restoring the tables ("the schedule tables of both links and the
PEs will be restored every time a F(i,k) is calculated").  Copying every
table per evaluation would dominate runtime, so :class:`ResourceTables`
keeps the committed tables immutable during an evaluation and layers the
tentative reservations in a small per-evaluation overlay.

Path-table cache
----------------
Fig. 3 prices a transaction by merging the busy lists of every link on
its XY route ("``path.build_schedule_table()``").  The same routes are
probed over and over — across the transactions of one evaluation, across
the PE candidates of one RTL iteration, and across the replays of the
incremental repair engine — while the underlying link tables change only
on commit.  :meth:`ResourceTables.path_busy` therefore caches the merged
*committed* busy list per route, keyed by the route's resource-id tuple
(``Route.resources``) and validated by the tuple of per-table version
counters (see
:class:`~repro.schedule.table.ScheduleTable`): a probe whose links are
all unchanged reuses the merge verbatim, and the overlay only merges
``[cached_path_table, *tentative_extras]`` on top.  Version mismatch is
the *only* invalidation rule — results are float-exact by construction,
never heuristic (soundness argument in DESIGN.md).

Two further hot-read-path economies: all scheduler-internal reads go
through zero-copy views (:meth:`ResourceTables.busy_view`; the public
:meth:`busy` / ``intervals()`` accessors keep copying for external use),
and a probe whose ready time lies at or beyond every involved horizon —
the common case at the schedule frontier — returns ``ready`` without
merging anything (the *horizon fast path*).

Counters: ``comm.path_cache_hits`` / ``comm.path_cache_misses``,
``comm.horizon_fast_path``, and ``comm.merge_intervals`` (total intervals
fed through merges — the work metric ``BENCH_commsched.json`` gates on).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.table import EPS, Interval, ScheduleTable, find_gap, merge_busy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.acg import ACG

#: shared read view of a resource that has no table yet.
_EMPTY_BUSY: Tuple[Interval, ...] = ()


class ResourceTables:
    """Committed schedule tables for a set of resources, keyed by int ids.

    Resources are created lazily: querying an unknown resource sees an
    empty table.  The keys are the ACG's resource ids: PE ``k`` is ``k``
    and a directed link is ``ACG.link_id(link)`` (``Route.resources``
    holds them per route).  A table keyed by a
    :class:`~repro.arch.topology.Link` would be a second, invisible
    table for the same channel, so code holding ``Link`` objects maps
    them through the ACG first, as :meth:`unreserve` does.

    :meth:`fork` produces a copy-on-write clone: both sides keep sharing
    the per-resource :class:`ScheduleTable` objects until one of them
    mutates a resource, at which point that table alone is copied.  The
    incremental repair engine forks the incumbent's committed state once
    per candidate move, so a candidate that only perturbs a handful of
    resources pays for copying exactly those tables.

    The paper-literal reference scheduler swaps in
    :class:`repro.core.reference.LiteralTables`, whose probes re-merge
    every route from scratch; both produce bit-identical schedules.
    """

    def __init__(self) -> None:
        self._tables: Dict[int, ScheduleTable] = {}
        #: resources whose table object is shared with a fork; mutate
        #: through :meth:`_mutable` only.
        self._shared: Set[int] = set()
        #: route resource-id tuple -> (per-link version tuple, merged
        #: committed busy list).  Entries' lists are never mutated after insertion.
        self._path_cache: Dict[
            Tuple[int, ...], Tuple[Tuple[int, ...], List[Interval]]
        ] = {}
        # Counter fetch is deferred so merely importing this module never
        # drags in the obs package (which itself imports schedule code).
        from repro import obs

        metrics = obs.get().metrics
        self._path_hits = metrics.counter("comm.path_cache_hits")
        self._path_misses = metrics.counter("comm.path_cache_misses")
        self._horizon_hits = metrics.counter("comm.horizon_fast_path")
        self._merge_work = metrics.counter("comm.merge_intervals")

    def table(self, resource: int) -> ScheduleTable:
        """Read access to one resource's table (do not mutate the result)."""
        tbl = self._tables.get(resource)
        if tbl is None:
            tbl = ScheduleTable()
            self._tables[resource] = tbl
        return tbl

    def _mutable(self, resource: int) -> ScheduleTable:
        """The resource's table, privately owned (copied if fork-shared)."""
        tbl = self.table(resource)
        if resource in self._shared:
            tbl = tbl.copy()
            self._tables[resource] = tbl
            self._shared.discard(resource)
        return tbl

    def busy(self, resource: int) -> List[Interval]:
        """Defensive copy of a resource's busy list (external/API use)."""
        tbl = self._tables.get(resource)
        return tbl.intervals() if tbl is not None else []

    def busy_view(self, resource: int) -> Sequence[Interval]:
        """Zero-copy read view of a resource's busy list.

        Callers must treat the result as immutable and must not hold it
        across a mutation of this resource (the hot probe path reads it
        and lets go; see :meth:`ScheduleTable.busy_view`).
        """
        tbl = self._tables.get(resource)
        return tbl.busy_view() if tbl is not None else _EMPTY_BUSY

    def version(self, resource: int) -> int:
        """The resource's content-version (0 for never-touched tables).

        A lazily created empty table also reports 0: both states have
        the same (empty) busy list, so the shared version is sound.
        """
        tbl = self._tables.get(resource)
        return tbl.version if tbl is not None else 0

    def path_busy(self, resources: Sequence[int]) -> Sequence[Interval]:
        """The merged committed busy list of a route, cached by version.

        The cache key is the route's resource tuple; the entry is valid
        iff every member table still has the version it was merged at —
        version equality implies byte-identical merge inputs, hence a
        byte-identical merge (DESIGN.md, "Path-table cache soundness").
        """
        key = tuple(resources)
        tables = self._tables
        versions = tuple([tables[r].version if r in tables else 0 for r in key])
        entry = self._path_cache.get(key)
        if entry is not None and entry[0] == versions:
            self._path_hits.inc()
            return entry[1]
        views = [self.busy_view(r) for r in key]
        self._merge_work.inc(sum(len(view) for view in views))
        merged = merge_busy(views)
        self._path_cache[key] = (versions, merged)
        self._path_misses.inc()
        return merged

    def reserve(self, resource: int, start: float, end: float) -> None:
        self._mutable(resource).reserve(start, end)

    def release(self, resource: int, start: float, end: float) -> None:
        self._mutable(resource).release(start, end)

    def truncate_from(self, resource: int, start: float) -> int:
        """Bulk-drop the resource's reservations beginning at/after ``start``."""
        return self._mutable(resource).truncate_from(start)

    def unreserve(
        self, tasks: Iterable[TaskPlacement], comms: Iterable[CommPlacement], acg: "ACG"
    ) -> None:
        """Undo the reservations of committed task and transaction placements.

        Each transaction's links are mapped to their resource ids through
        ``acg``.  Where a resource's undone intervals are exactly the tail of its
        busy list, one :meth:`truncate_from` drops them; otherwise each
        is released by exact match.  Undo work is proportional to the
        placements undone, not to the tables.
        """
        undo: Dict[int, List[Interval]] = {}
        for task in tasks:
            if task.finish - task.start > EPS:
                undo.setdefault(task.pe, []).append((task.start, task.finish))
        for comm in comms:
            if comm.finish - comm.start > EPS:
                for link in comm.links:
                    undo.setdefault(acg.link_id(link), []).append((comm.start, comm.finish))
        for resource, intervals in undo.items():
            intervals.sort()
            # Zero-copy read: compared, never mutated (the slice copies).
            busy = self.busy_view(resource)
            tail_at = bisect_left(busy, (intervals[0][0], -math.inf))
            if list(busy[tail_at:]) == intervals:
                self.truncate_from(resource, intervals[0][0])
            else:
                for start, end in intervals:
                    self.release(resource, start, end)

    def find_earliest(self, resource: int, ready: float, duration: float) -> float:
        return self.table(resource).find_earliest(ready, duration)

    def resources(self) -> List[int]:
        return list(self._tables)

    def copy(self) -> "ResourceTables":
        clone = self._bare_clone()
        clone._tables = {k: v.copy() for k, v in self._tables.items()}
        return clone

    def fork(self) -> "ResourceTables":
        """A copy-on-write clone sharing every table until first mutation."""
        clone = self._bare_clone()
        clone._tables = dict(self._tables)
        clone._shared = set(self._tables)
        # The parent must stop mutating shared tables in place too.
        self._shared = set(self._tables)
        return clone

    def _bare_clone(self) -> "ResourceTables":
        """A clone shell sharing config, counters and valid cache entries.

        Sharing the counter objects skips a registry round-trip per
        clone; copying the path cache keeps routes warm across repair
        forks.  Entries stay sound in both lineages because a table
        copy preserves its version and every mutation bumps it — per
        lineage, versions are strictly monotone (see DESIGN.md).
        """
        clone = type(self).__new__(type(self))
        clone._tables = {}
        clone._shared = set()
        clone._path_cache = dict(self._path_cache)
        clone._path_hits = self._path_hits
        clone._path_misses = self._path_misses
        clone._horizon_hits = self._horizon_hits
        clone._merge_work = self._merge_work
        return clone

    def overlay(self) -> "TentativeOverlay":
        """A fresh what-if layer over the committed state."""
        return TentativeOverlay(self)


class TentativeOverlay:
    """Uncommitted reservations layered over :class:`ResourceTables`.

    Reservations recorded here are visible to subsequent queries through
    the overlay (transaction n+1 must see transaction n's tentative link
    occupancy) but never touch the committed tables; dropping the overlay
    is the paper's "restore".  Resources are the int ids of
    :class:`ResourceTables`.  Per-resource tentative lists are kept
    sorted with ``bisect.insort`` so reads never re-sort them.

    The overlay also records the id of every resource whose committed
    busy state a query consulted (its *probe footprint*).  An F(i,k) evaluation's
    result is a pure function of the busy states it probed, so a later
    commit can only change the result if it reserves one of the probed
    resources — the invariant the incremental evaluation cache in
    :mod:`repro.core.eas` invalidates on.
    """

    def __init__(self, base: ResourceTables) -> None:
        self._base = base
        self._extra: Dict[int, List[Interval]] = {}
        #: per-resource max end of the tentative reservations, for the
        #: horizon fast path.
        self._extra_horizon: Dict[int, float] = {}
        self._probed: Set[int] = set()

    def _combined(self, resource: int) -> Sequence[Interval]:
        extra = self._extra.get(resource)
        base = self._base.busy_view(resource)
        if not extra:
            return base
        self._base._merge_work.inc(len(base) + len(extra))
        return merge_busy([base, extra])

    def _horizon(self, resources: Sequence[int]) -> float:
        """Latest busy end visible through the overlay on any of ``resources``.

        Reads each committed table's last interval directly: this runs
        once per path probe, over every link of the route.
        """
        tables = self._base._tables
        extra_horizon = self._extra_horizon
        horizon = 0.0
        for resource in resources:
            table = tables.get(resource)
            if table is not None:
                busy = table._busy
                if busy and busy[-1][1] > horizon:
                    horizon = busy[-1][1]
            extra = extra_horizon.get(resource)
            if extra is not None and extra > horizon:
                horizon = extra
        return horizon

    def find_earliest(self, resource: int, ready: float, duration: float) -> float:
        self._probed.add(resource)
        if ready >= self._horizon((resource,)):
            # Nothing visible ends after `ready`: find_gap would scan
            # past every interval and return `ready` unchanged.
            self._base._horizon_hits.inc()
            return ready
        return find_gap(self._combined(resource), ready, duration)

    def find_earliest_on_path(
        self, resources: Sequence[int], ready: float, duration: float
    ) -> float:
        """Earliest slot free on *all* path resources simultaneously.

        Implements Fig. 3: the path schedule table is the merge of the
        occupied slots of the comprising links.  The committed part of
        that merge comes from :meth:`ResourceTables.path_busy` and only
        the overlay's own tentative intervals are merged per probe; a
        ready time at or beyond every horizon skips the merge entirely.
        """
        if not resources:
            return ready
        self._probed.update(resources)
        base = self._base
        if ready >= self._horizon(resources):
            base._horizon_hits.inc()
            return ready
        merged = base.path_busy(resources)
        extras = [self._extra[r] for r in resources if r in self._extra]
        if extras:
            base._merge_work.inc(len(merged) + sum(len(e) for e in extras))
            merged = merge_busy([merged] + extras)
        return find_gap(merged, ready, duration)

    def reserve(self, resource: int, start: float, end: float) -> None:
        self.reserve_on_path((resource,), start, end)

    def reserve_on_path(self, resources: Iterable[int], start: float, end: float) -> None:
        """Tentatively reserve ``[start, end)`` on every resource of a path."""
        if end - start <= 0:
            return
        extra, extra_horizon = self._extra, self._extra_horizon
        interval = (start, end)
        for resource in resources:
            insort(extra.setdefault(resource, []), interval)
            if end > extra_horizon.get(resource, 0.0):
                extra_horizon[resource] = end

    def probed_resources(self) -> FrozenSet[int]:
        """Every resource whose busy state a query on this overlay read.

        This is the evaluation's *resource footprint*: its result can
        only change when one of these resources gains a reservation.
        """
        return frozenset(self._probed)

    def reservations(self) -> Dict[int, Tuple[Interval, ...]]:
        """Snapshot of the tentative reservations, keyed by resource.

        The snapshot survives :meth:`drop`, so a cached evaluation can
        replay exactly the reservations :meth:`commit` would have made.
        Per-resource intervals come back time-sorted (the storage
        order); they are mutually non-overlapping, so replay order is
        immaterial to the resulting tables.
        """
        return {resource: tuple(intervals) for resource, intervals in self._extra.items()}

    def commit(self) -> None:
        """Apply all tentative reservations to the committed tables."""
        for resource, intervals in self._extra.items():
            for start, end in intervals:
                self._base.reserve(resource, start, end)
        self._extra.clear()
        self._extra_horizon.clear()

    def drop(self) -> None:
        """Discard all tentative reservations (the paper's table restore)."""
        self._extra.clear()
        self._extra_horizon.clear()
