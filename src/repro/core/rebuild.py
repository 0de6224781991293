"""Deterministic schedule reconstruction from (mapping, per-PE orders).

Search-and-repair (Step 3) explores moves in the space of task-to-PE
mappings and per-PE execution orders; after every candidate move the
timed schedule must be rebuilt from scratch with the same communication
semantics as the constructive scheduler.  :func:`rebuild_schedule` does
that: it list-schedules the tasks respecting (a) CTG precedence and
(b) the prescribed order of tasks sharing a PE, placing each task's
receiving transactions with the Fig. 3 communication scheduler.

A candidate (mapping, orders) pair can be *infeasible*: a swap may order
``a`` before ``b`` on one PE while ``b``'s descendants feed ``a``
(a cross-PE cycle).  Rebuilds detect this and raise
:class:`InfeasibleOrderError`, which the repair loop treats as a rejected
move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.core.placement import Evaluation, commit, probe
from repro.ctg.graph import CTG
from repro.errors import InfeasibleOrderError, SchedulingError, UnroutableError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class CommitStep:
    """One committed task of a rebuild, in commit order.

    The *commit trace* — the sequence of these — is what the incremental
    repair engine replays: a rebuild is fully determined by its commit
    sequence, so a recorded trace plus the deterministic selection rule
    lets a later rebuild prove how long a prefix it shares with this one
    without re-probing anything (see ``repro.core.increbuild``).
    """

    task: str
    pe: int
    placement: TaskPlacement
    comms: Tuple[CommPlacement, ...]


def rebuild_schedule(
    ctg: CTG,
    acg: ACG,
    mapping: Mapping[str, int],
    pe_orders: Mapping[int, Sequence[str]],
    algorithm: str = "rebuild",
    *,
    tables: Optional[ResourceTables] = None,
    preplaced: Optional[Schedule] = None,
    floor: float = 0.0,
) -> Schedule:
    """Rebuild a timed schedule from a mapping and per-PE task orders.

    Among the tasks eligible at each step (all predecessors placed *and*
    first unplaced task in their PE's order), the one whose execution can
    start earliest is committed first; this keeps the reconstruction
    deterministic and packs resources greedily.  The keyword arguments
    are those of :func:`rebuild_schedule_traced`.

    Raises:
        InfeasibleOrderError: the orders deadlock against the precedence
            constraints.
        SchedulingError: the mapping assigns a task to an infeasible PE.
        UnroutableError: a fault partition cuts a task off from a sender.
    """
    schedule, _trace = rebuild_schedule_traced(
        ctg, acg, mapping, pe_orders, algorithm, record_trace=False,
        tables=tables, preplaced=preplaced, floor=floor,
    )
    return schedule


def rebuild_schedule_traced(
    ctg: CTG,
    acg: ACG,
    mapping: Mapping[str, int],
    pe_orders: Mapping[int, Sequence[str]],
    algorithm: str = "rebuild",
    record_trace: bool = True,
    *,
    tables: Optional[ResourceTables] = None,
    preplaced: Optional[Schedule] = None,
    floor: float = 0.0,
) -> Tuple[Schedule, List[CommitStep]]:
    """:func:`rebuild_schedule` plus the commit trace it followed.

    With ``record_trace=False`` the trace list comes back empty (this is
    the body of :func:`rebuild_schedule`); the schedule is identical
    either way.

    ``tables`` are the resource tables to schedule on (fresh ones by
    default); they hold the final state afterwards.  ``preplaced`` is a
    partial schedule whose placements are final: its tasks are skipped
    in the orders and never re-scheduled, and its task and transaction
    placements open the result.  ``floor`` bounds every new transaction
    and execution start from below.  Degraded-mode recovery uses all
    three to rebuild over salvaged tables with the pre-fault prefix
    frozen.
    """
    for name in ctg.task_names():
        if name not in mapping:
            raise SchedulingError(f"mapping misses task {name!r}")

    # Validate the order tables: each PE's order must list exactly the
    # tasks mapped to it.
    expected: Dict[int, List[str]] = {pe.index: [] for pe in acg.pes}
    for name, pe_index in mapping.items():
        expected.setdefault(pe_index, []).append(name)
    for pe_index, order in pe_orders.items():
        for name in order:
            if mapping.get(name) != pe_index:
                raise SchedulingError(
                    f"order of PE {pe_index} lists {name!r}, mapped to PE {mapping.get(name)}"
                )
    for pe_index, names in expected.items():
        order = list(pe_orders.get(pe_index, ()))
        if sorted(order) != sorted(names):
            raise SchedulingError(
                f"PE {pe_index} order {order} does not match its mapped tasks {sorted(names)}"
            )

    schedule = Schedule(ctg, acg, algorithm=algorithm)
    placements: Dict[str, TaskPlacement] = {}
    if preplaced is not None:
        for placement in preplaced.task_placements.values():
            schedule.place_task(placement)
            placements[placement.task] = placement
        for comm in preplaced.comm_placements.values():
            schedule.place_comm(comm)
        pe_orders = {
            pe_index: [name for name in order if name not in placements]
            for pe_index, order in pe_orders.items()
        }
    unplaced = {name for name in ctg.task_names() if name not in placements}
    remaining_preds: Dict[str, int] = {
        name: sum(1 for pred in ctg.predecessors(name) if pred not in placements)
        for name in unplaced
    }
    next_slot: Dict[int, int] = {pe_index: 0 for pe_index in expected}
    trace: List[CommitStep] = []
    scheduled_counter = obs.get().metrics.counter("rebuild.tasks_scheduled")
    tables = tables if tables is not None else ResourceTables()
    for step in commit_steps(
        ctg, acg, mapping, pe_orders, next_slot, remaining_preds, unplaced,
        placements, tables, schedule, floor,
    ):
        scheduled_counter.inc()
        if record_trace:
            trace.append(step)
    return schedule, trace


def commit_steps(
    ctg: CTG,
    acg: ACG,
    mapping: Mapping[str, int],
    pe_orders: Mapping[int, Sequence[str]],
    next_slot: Dict[int, int],
    remaining_preds: Dict[str, int],
    unplaced: Set[str],
    placements: Dict[str, TaskPlacement],
    tables: ResourceTables,
    schedule: Schedule,
    floor: float = 0.0,
) -> Iterator[CommitStep]:
    """The rebuild loop: commit the earliest eligible task until none is left.

    Advances the given state in place (``next_slot``, ``remaining_preds``,
    ``unplaced``, ``placements``, ``tables``, ``schedule``) and yields
    each commit as it happens, so a caller may stop early.  Both
    :func:`rebuild_schedule_traced` and the incremental repair engine's
    dirty-cone replay run this loop.

    Raises:
        InfeasibleOrderError: the orders deadlock against precedence.
    """
    while unplaced:
        eligible = eligible_tasks(pe_orders, next_slot, remaining_preds, unplaced)
        if not eligible:
            raise InfeasibleOrderError(
                "per-PE orders deadlock against CTG precedence; "
                f"{len(unplaced)} tasks stuck"
            )
        evaluation = earliest_eligible(ctg, acg, eligible, mapping, placements, tables, floor)
        placement = commit(tables, placements, schedule, evaluation)
        chosen = evaluation.task
        unplaced.discard(chosen)
        next_slot[placement.pe] += 1
        for succ in ctg.successors(chosen):
            if succ in remaining_preds:
                remaining_preds[succ] -= 1
        yield CommitStep(
            task=chosen, pe=placement.pe, placement=placement, comms=tuple(evaluation.comms)
        )


def eligible_tasks(
    pe_orders: Mapping[int, Sequence[str]],
    next_slot: Mapping[int, int],
    remaining_preds: Mapping[str, int],
    unplaced: Set[str],
) -> List[str]:
    """Tasks that are next on their PE and whose predecessors are placed."""
    eligible = []
    for pe_index, order in pe_orders.items():
        slot = next_slot[pe_index]
        if slot < len(order):
            name = order[slot]
            if name in unplaced and remaining_preds[name] == 0:
                eligible.append(name)
    return eligible


def earliest_eligible(
    ctg: CTG,
    acg: ACG,
    eligible: Sequence[str],
    mapping: Mapping[str, int],
    placements: Dict[str, TaskPlacement],
    tables: ResourceTables,
    floor: float = 0.0,
) -> Evaluation:
    """Probe each eligible task on its mapped PE; the earliest start wins.

    Ties break on finish time, then task name.

    Raises:
        SchedulingError: a task is mapped to a PE of an infeasible type.
        UnroutableError: a fault partition cuts a task off from a sender.
    """
    best: Optional[Evaluation] = None
    best_key: Tuple[float, float, str] = (0.0, 0.0, "")
    for name in eligible:
        pe_index = mapping[name]
        evaluation = probe(tables, ctg, acg, placements, name, pe_index, floor=floor)
        if evaluation is None:
            pe_type = acg.pe(pe_index).type_name
            if not ctg.task(name).cost_on(pe_type).feasible:
                raise SchedulingError(
                    f"task {name!r} mapped to PE {pe_index} of infeasible type {pe_type!r}"
                )
            raise UnroutableError(f"task {name!r} on PE {pe_index}: no route from a sender")
        key = (evaluation.start, evaluation.finish, name)
        if best is None or key < best_key:
            best = evaluation
            best_key = key
    assert best is not None
    return best
