"""The Fig. 3 communication scheduler.

Given a candidate destination PE for a task, schedule all of the task's
*receiving* communication transactions (its LCT) onto the link schedule
tables, and return the data ready time ``DRT`` — the latest arrival among
them.  Transactions are processed in increasing sender-finish order; each
one is placed at the earliest slot where its *entire* XY path is free for
the whole transfer duration (wormhole: the path is held end to end), and
its reservation is visible to the transactions scheduled after it.

The path probe (``overlay.find_earliest_on_path``) is the single hottest
operation in the whole system — every F(i,k) evaluation and every repair
rebuild funnels through it.  It addresses link tables by the route's int
resource ids (``Route.resources``, numbered by the ACG), never by
:class:`~repro.arch.topology.Link` objects.  It is served by the version-keyed path-table
cache in :mod:`repro.schedule.overlay`: the merged committed busy list of
each route is reused until one of its link tables changes version, probes
whose ready time clears every horizon skip merging entirely, and all
reads are zero-copy.  The paper-literal reference scheduler
(``core/reference.py``) keeps the re-merge-per-probe path; cached and
literal probes return bit-identical answers (DESIGN.md, "Path-table
cache soundness").  Telemetry: ``comm.path_cache_hits`` /
``comm.path_cache_misses``, ``comm.horizon_fast_path`` and
``comm.merge_intervals``.

All reservations go through a :class:`TentativeOverlay`, so the caller
decides whether this was a what-if evaluation (drop) or the real
placement (commit) — the paper's "schedule tables ... will be restored
every time a F(i,k) is calculated".

Each transaction comes back as a :class:`Transfer` tuple; the frozen
:class:`CommPlacement` is built only for the transactions a commit or a
report keeps.

The overlay additionally records the id of every link table this pass
probed (``overlay.probed_resources()``) and the reservations it made
(``overlay.reservations()``).  Together they are the evaluation's
*resource footprint*: the F(i,k) result is a pure function of the busy
states of the probed resources, which is what lets the level-based
scheduler cache evaluations across RTL iterations and invalidate only
the ones a commit actually dirtied.  Local and zero-volume transfers
probe nothing (they hold no links), and the fixed-delay ablation skips
link tables entirely, so its footprint is the destination PE alone.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.arch.topology import Link
from repro.ctg.graph import CTG
from repro.errors import SchedulingError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import TentativeOverlay


class Transfer(NamedTuple):
    """One scheduled incoming transaction, as a plain tuple.

    The fields are those of :class:`CommPlacement`, in the same order.
    A probe builds one per incoming edge, and most probes are dropped,
    so the frozen dataclass is only built (:meth:`placement`) for the
    transactions a commit or a report actually keeps.
    """

    src_task: str
    dst_task: str
    volume: float
    src_pe: int
    dst_pe: int
    start: float
    finish: float
    links: Tuple[Link, ...]
    energy: float

    @property
    def is_local(self) -> bool:
        return not self.links

    def placement(self) -> CommPlacement:
        return CommPlacement(*self)


def schedule_incoming_transactions(
    ctg: CTG,
    acg: ACG,
    task: str,
    dst_pe: int,
    placements: Mapping[str, TaskPlacement],
    overlay: TentativeOverlay,
    contention_aware: bool = True,
    floor: float = 0.0,
) -> Tuple[float, List[Transfer]]:
    """Schedule the LCT of ``task`` assuming it runs on ``dst_pe``.

    Args:
        ctg: application graph.
        acg: platform.
        task: the receiving task.
        dst_pe: candidate destination PE index.
        placements: already-committed task placements; every predecessor
            of ``task`` must appear here (level-based scheduling only
            considers ready tasks).
        overlay: tentative layer over the committed link tables; this
            function records its reservations there and never commits.
        contention_aware: when False, link occupancy is ignored — every
            transaction pretends to start the moment its sender finishes
            (the fixed-delay model the paper's introduction criticises).
            Used only by the contention ablation; the resulting
            placements may overlap on links.
        floor: earliest time any transaction may start.  Degraded-mode
            recovery passes the fault time so nothing new is scheduled in
            the already-elapsed past; 0.0 (the default) is a no-op
            because all times are non-negative.

    Returns:
        ``(drt, transfers)`` — the data ready time (0.0 for source
        tasks) and one :class:`Transfer` per incoming edge, in the
        order they were scheduled.
    """
    lct = ctg.in_edges(task)
    if not lct:
        return 0.0, []

    for edge in lct:
        if edge.src not in placements:
            raise SchedulingError(
                f"cannot schedule transactions of {task!r}: sender {edge.src!r} unplaced"
            )

    # Fig. 3: "sort LCT by the finish time of its sender".
    lct = sorted(lct, key=lambda e: (placements[e.src].finish, e.src))

    metrics = obs.get().metrics
    link_probes = metrics.counter("comm.link_probes")
    local_transfers = metrics.counter("comm.local_transfers")

    drt = 0.0
    transfers: List[Transfer] = []
    for edge in lct:
        sender = placements[edge.src]
        volume = edge.volume
        route = acg.route(sender.pe, dst_pe)
        ready = max(sender.finish, floor)
        # ACG.comm_duration and ACG.comm_energy, on the route in hand.
        duration = 0.0 if route.is_local or volume == 0 else volume / route.bandwidth
        if duration == 0.0:
            # Same tile or zero volume: no links held, data available at
            # the moment the sender finishes (or the floor, if later).
            start = finish = ready
            local_transfers.inc()
        elif not contention_aware:
            # Fixed-delay model: transfer time only, no link arbitration.
            start = ready
            finish = start + duration
        else:
            start = overlay.find_earliest_on_path(route.resources, ready, duration)
            finish = start + duration
            overlay.reserve_on_path(route.resources, start, finish)
            link_probes.inc()
        transfers.append(
            Transfer(
                edge.src, task, volume, sender.pe, dst_pe, start, finish,
                route.links, volume * route.energy_per_bit,
            )
        )
        if finish > drt:
            drt = finish

    return drt, transfers


def incoming_comm_energy(
    ctg: CTG,
    acg: ACG,
    task: str,
    dst_pe: int,
    mapping: Mapping[str, int],
) -> float:
    """Network energy of delivering all of ``task``'s inputs to ``dst_pe``.

    Depends only on the mapping (Eq. 3's communication term), not on
    timing; used by the level-based scheduler's ``E1``/``E2`` metrics and
    by GTM's destination ordering.
    """
    total = 0.0
    for edge in ctg.in_edges(task):
        src_pe = mapping.get(edge.src)
        if src_pe is not None:
            total += acg.comm_energy(edge.volume, src_pe, dst_pe)
    return total


def outgoing_comm_energy(
    ctg: CTG,
    acg: ACG,
    task: str,
    src_pe: int,
    mapping: Mapping[str, int],
) -> float:
    """Network energy of ``task``'s outputs toward already-mapped consumers."""
    total = 0.0
    for edge in ctg.out_edges(task):
        dst_pe = mapping.get(edge.dst)
        if dst_pe is not None:
            total += acg.comm_energy(edge.volume, src_pe, dst_pe)
    return total
