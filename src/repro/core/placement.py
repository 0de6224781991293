"""The Fig. 3 placement kernel: probe a (task, PE) pair, commit a probe.

Every scheduler in the library places a task the same way.  It
tentatively schedules the task's incoming transactions on the link
tables (:func:`~repro.core.comm.schedule_incoming_transactions`), finds
the earliest gap on the PE at or after the data ready time, and then
either restores the tables (a what-if evaluation of ``F(i,k)``) or makes
the placement permanent.  This module is that procedure, once:

* :func:`probe` is the what-if half.  Its reservations live in a
  :class:`~repro.schedule.overlay.TentativeOverlay` that is never
  committed, so the tables are untouched afterwards — the paper's
  "schedule tables ... will be restored every time a F(i,k) is
  calculated".
* :func:`commit` is the permanent half.  It replays the probe's link
  reservations and PE slot verbatim instead of probing again, which is
  exact as long as no table changed since the probe.  Every caller
  commits an evaluation it has just chosen; the EAS evaluation cache
  commits only evaluations no later commit dirtied.

Level-based scheduling (``core/eas.py``), schedule rebuilds
(``core/rebuild.py``, hence Step-3 repair and fault recovery), the EDF
and energy-greedy baselines, ``explain --verify`` and the paper-literal
reference scheduler (``core/reference.py``) all place tasks through
these two functions.
"""

from __future__ import annotations

from typing import List, MutableMapping, NamedTuple, Optional

from repro.arch.acg import ACG
from repro.core.comm import Transfer, schedule_incoming_transactions
from repro.ctg.graph import CTG
from repro.errors import UnroutableError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import ResourceTables, TentativeOverlay
from repro.schedule.schedule import Schedule


class Evaluation(NamedTuple):
    """One ``F(i,k)`` probe: where ``task`` would run on ``pe`` right now.

    ``energy`` is the paper's selection energy: computation energy plus
    the network energy of the task's inputs.  ``compute_energy`` alone
    is what the committed :class:`TaskPlacement` records.
    ``transfers`` are the task's incoming transactions as plain tuples;
    :attr:`comms` turns them into placements for the few evaluations
    that are committed or reported.  ``overlay`` is the uncommitted
    layer the probe ran on: its ``reservations()`` are the probe's link
    reservations, its ``probed_resources()`` the tables the probe read,
    both keyed by resource id.
    """

    task: str
    pe: int
    start: float
    finish: float
    drt: float
    compute_energy: float
    energy: float
    transfers: List[Transfer]
    overlay: TentativeOverlay

    @property
    def comms(self) -> List[CommPlacement]:
        """The incoming transactions as :class:`CommPlacement` records."""
        return [transfer.placement() for transfer in self.transfers]


def probe(
    tables: ResourceTables,
    ctg: CTG,
    acg: ACG,
    placements: MutableMapping[str, TaskPlacement],
    task: str,
    pe: int,
    *,
    floor: float = 0.0,
    contention_aware: bool = True,
) -> Optional[Evaluation]:
    """Evaluate ``F(task, pe)`` against ``tables`` without changing them.

    ``placements`` must hold every predecessor of ``task``.  ``floor``
    bounds the transactions and the execution start from below (fault
    recovery passes the fault time); ``contention_aware=False`` is the
    fixed-delay ablation.  Returns ``None`` when the PE is unusable:
    its type cannot run the task, or a fault partition leaves no route
    from some placed sender.
    """
    cost = ctg.task(task).cost_on(acg.pe(pe).type_name)
    if not cost.feasible:
        return None
    overlay = tables.overlay()
    try:
        drt, transfers = schedule_incoming_transactions(
            ctg, acg, task, pe, placements, overlay, contention_aware=contention_aware, floor=floor
        )
    except UnroutableError:
        return None
    start = overlay.find_earliest(pe, max(drt, floor), cost.time)
    energy = cost.energy + sum(t.energy for t in transfers)
    return Evaluation(
        task, pe, start, start + cost.time, drt, cost.energy, energy, transfers, overlay
    )


def commit(
    tables: ResourceTables,
    placements: MutableMapping[str, TaskPlacement],
    schedule: Optional[Schedule],
    evaluation: Evaluation,
) -> TaskPlacement:
    """Make a probe permanent on the tables it was probed against.

    Replays the probe's link reservations and reserves the task's PE
    slot, records the placement in ``placements`` and, unless
    ``schedule`` is None, places the task and its incoming transactions
    there.  Returns the task's placement.
    """
    for resource, intervals in evaluation.overlay.reservations().items():
        for start, end in intervals:
            tables.reserve(resource, start, end)
    tables.reserve(evaluation.pe, evaluation.start, evaluation.finish)
    placement = TaskPlacement(
        task=evaluation.task,
        pe=evaluation.pe,
        start=evaluation.start,
        finish=evaluation.finish,
        energy=evaluation.compute_energy,
    )
    placements[evaluation.task] = placement
    if schedule is not None:
        schedule.place_task(placement)
        for comm in evaluation.comms:
            schedule.place_comm(comm)
    return placement
