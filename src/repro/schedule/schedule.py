"""The Schedule result container: placements, metrics and validation.

A :class:`Schedule` is the complete static answer the paper asks for —
one :class:`TaskPlacement` per task plus one :class:`CommPlacement` per
CTG edge — together with metric helpers (total/split energy, deadline
misses, average hops per packet) and a structural validator enforcing
Definitions 3 and 4 (task and transaction compatibility) and all
dependency/deadline constraints.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.decisions import TaskDecision

from repro.arch.acg import ACG
from repro.ctg.graph import CTG
from repro.errors import ScheduleValidationError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.table import EPS, ScheduleTable


def _check_energy(what: str, energy: float, expected: float) -> None:
    """Reject a recorded energy that is not finite or not the model's.

    Every scheduler stores the model's float verbatim (the cost table's
    energy, ``volume * e(r)`` for a transaction), so the check is exact.
    """
    if not math.isfinite(energy):
        raise ScheduleValidationError(f"{what} energy {energy} is not finite")
    if energy != expected:
        raise ScheduleValidationError(f"{what} energy {energy} != model {expected}")


class Schedule:
    """A complete (or in-progress) static schedule of a CTG on an ACG."""

    def __init__(self, ctg: CTG, acg: ACG, algorithm: str = "") -> None:
        self.ctg = ctg
        self.acg = acg
        self.algorithm = algorithm
        self.task_placements: Dict[str, TaskPlacement] = {}
        self.comm_placements: Dict[Tuple[str, str], CommPlacement] = {}
        #: wall-clock seconds the scheduler spent, filled by drivers.
        self.runtime_seconds: float = 0.0
        #: decision provenance (one record per task commit) attached by
        #: schedulers when the active decision log records; empty
        #: otherwise.  Not serialized — export it via repro.obs.export.
        self.provenance: List["TaskDecision"] = []

    # -- construction ------------------------------------------------------

    def place_task(self, placement: TaskPlacement) -> None:
        if placement.task in self.task_placements:
            raise ScheduleValidationError(f"task {placement.task!r} placed twice")
        self.task_placements[placement.task] = placement

    def place_comm(self, placement: CommPlacement) -> None:
        key = (placement.src_task, placement.dst_task)
        if key in self.comm_placements:
            raise ScheduleValidationError(f"transaction {key} placed twice")
        self.comm_placements[key] = placement

    # -- lookups -------------------------------------------------------------

    def placement(self, task: str) -> TaskPlacement:
        try:
            return self.task_placements[task]
        except KeyError:
            raise ScheduleValidationError(f"task {task!r} is not scheduled") from None

    def comm(self, src: str, dst: str) -> CommPlacement:
        try:
            return self.comm_placements[(src, dst)]
        except KeyError:
            raise ScheduleValidationError(f"transaction {src}->{dst} is not scheduled") from None

    def mapping(self) -> Dict[str, int]:
        """The paper's mapping function ``M()``: task name -> PE index."""
        return {name: p.pe for name, p in self.task_placements.items()}

    def pe_order(self) -> Dict[int, List[str]]:
        """Tasks per PE in start-time order (the execution orders)."""
        orders: Dict[int, List[str]] = {pe.index: [] for pe in self.acg.pes}
        for placement in sorted(self.task_placements.values(), key=lambda p: (p.start, p.task)):
            orders[placement.pe].append(placement.task)
        return orders

    @property
    def is_complete(self) -> bool:
        return len(self.task_placements) == self.ctg.n_tasks

    # -- metrics -------------------------------------------------------------

    def computation_energy(self) -> float:
        return sum(p.energy for p in self.task_placements.values())

    def communication_energy(self) -> float:
        return sum(p.energy for p in self.comm_placements.values())

    def total_energy(self) -> float:
        """The paper's objective (Eq. 3)."""
        return self.computation_energy() + self.communication_energy()

    def makespan(self) -> float:
        if not self.task_placements:
            return 0.0
        return max(p.finish for p in self.task_placements.values())

    def deadline_misses(self) -> List[str]:
        """Names of tasks finishing after their specified deadline."""
        misses = []
        for name, placement in self.task_placements.items():
            deadline = self.ctg.task(name).deadline
            if placement.finish > deadline + EPS:
                misses.append(name)
        return sorted(misses)

    def total_tardiness(self) -> float:
        """Sum of (finish - deadline) over missing tasks; 0 when feasible."""
        tardiness = 0.0
        for name, placement in self.task_placements.items():
            deadline = self.ctg.task(name).deadline
            if math.isfinite(deadline):
                tardiness += max(0.0, placement.finish - deadline)
        return tardiness

    @property
    def meets_deadlines(self) -> bool:
        return not self.deadline_misses()

    def average_hops_per_packet(self) -> float:
        """Mean number of links traversed per unit of traffic.

        Weighted by communication volume (a packet count proxy), counting
        only data-carrying transactions.  This is the Sec. 6.2 statistic
        ("decreasing the average hops per packet from 2.55 to 1.68").
        """
        weighted = 0.0
        volume = 0.0
        for placement in self.comm_placements.values():
            if placement.volume > 0:
                weighted += placement.volume * len(placement.links)
                volume += placement.volume
        return weighted / volume if volume > 0 else 0.0

    def link_utilization(self) -> Dict:
        """Busy time per directed link (only links that carried traffic)."""
        usage: Dict = {}
        for placement in self.comm_placements.values():
            for link in placement.links:
                usage[link] = usage.get(link, 0.0) + placement.duration
        return usage

    def energy_breakdown(self) -> Dict[str, float]:
        return {
            "computation": self.computation_energy(),
            "communication": self.communication_energy(),
            "total": self.total_energy(),
        }

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ScheduleValidationError` on any broken invariant.

        Checks performed:

        1. every task and every edge has exactly one placement;
        2. task placements on one PE do not overlap (Definition 4);
        3. transactions sharing a link do not overlap (Definition 3);
        4. a transaction starts at or after its sender finishes;
        5. a task starts at or after all its receiving transactions end;
        6. placements use the routes/durations/energies the ACG defines;
        7. every specified deadline is met.
        """
        self._validate_completeness()
        self._validate_pe_exclusivity()
        self._validate_link_exclusivity()
        self._validate_dependencies()
        self._validate_against_acg()
        misses = self.deadline_misses()
        if misses:
            raise ScheduleValidationError(f"deadline misses: {misses}")

    def validate_structure(self) -> None:
        """All of :meth:`validate` except the deadline check.

        Used for EAS-base results, which are structurally sound schedules
        that may still miss deadlines (the paper's Sec. 6.1 observation).
        """
        self._validate_completeness()
        self._validate_pe_exclusivity()
        self._validate_link_exclusivity()
        self._validate_dependencies()
        self._validate_against_acg()

    def validate_consistency(self) -> None:
        """Completeness plus PE and link exclusivity only.

        The subset of :meth:`validate_structure` that holds for *any*
        well-formed schedule regardless of which platform view produced
        its routes.  Degraded-mode recovery schedules mix pre-fault
        transactions (routed on the healthy ACG) with post-fault ones
        (routed around the faults), so the route-table comparison of
        ``_validate_against_acg`` does not apply to them as a whole;
        this check still does, and ``repro.faults.recovery`` adds the
        regime-split dependency and route checks on top.
        """
        self._validate_completeness()
        self._validate_pe_exclusivity()
        self._validate_link_exclusivity()

    def _validate_completeness(self) -> None:
        for name in self.ctg.task_names():
            if name not in self.task_placements:
                raise ScheduleValidationError(f"task {name!r} is unscheduled")
        for edge in self.ctg.edges():
            if (edge.src, edge.dst) not in self.comm_placements:
                raise ScheduleValidationError(f"transaction {edge.src}->{edge.dst} is unscheduled")

    def _validate_pe_exclusivity(self) -> None:
        per_pe: Dict[int, ScheduleTable] = {}
        for placement in sorted(self.task_placements.values(), key=lambda p: p.start):
            table = per_pe.setdefault(placement.pe, ScheduleTable())
            if not table.is_free(placement.start, placement.finish):
                raise ScheduleValidationError(
                    f"task {placement.task!r} overlaps another task on PE {placement.pe}"
                )
            table.reserve(placement.start, placement.finish)

    def _validate_link_exclusivity(self) -> None:
        per_link: Dict = {}
        for placement in sorted(self.comm_placements.values(), key=lambda p: p.start):
            for link in placement.links:
                table = per_link.setdefault(link, ScheduleTable())
                if not table.is_free(placement.start, placement.finish):
                    raise ScheduleValidationError(
                        f"transaction {placement.src_task}->{placement.dst_task} "
                        f"overlaps traffic on link {link}"
                    )
                table.reserve(placement.start, placement.finish)

    def _validate_dependencies(self) -> None:
        for (src, dst), comm in self.comm_placements.items():
            sender = self.placement(src)
            receiver = self.placement(dst)
            if comm.start < sender.finish - EPS:
                raise ScheduleValidationError(
                    f"transaction {src}->{dst} starts before its sender finishes"
                )
            if receiver.start < comm.finish - EPS:
                raise ScheduleValidationError(
                    f"task {dst!r} starts before its input from {src!r} arrives"
                )

    def _validate_against_acg(self) -> None:
        for name, placement in self.task_placements.items():
            task = self.ctg.task(name)
            pe = self.acg.pe(placement.pe)
            cost = task.cost_on(pe.type_name)
            if not cost.feasible:
                raise ScheduleValidationError(
                    f"task {name!r} mapped to infeasible PE type {pe.type_name!r}"
                )
            if abs(placement.duration - cost.time) > EPS:
                raise ScheduleValidationError(
                    f"task {name!r} duration {placement.duration} != cost table {cost.time}"
                )
            _check_energy(f"task {name!r}", placement.energy, cost.energy)
        for (src, dst), comm in self.comm_placements.items():
            route = self.acg.route(comm.src_pe, comm.dst_pe)
            if tuple(route.links) != tuple(comm.links):
                raise ScheduleValidationError(
                    f"transaction {src}->{dst} does not follow the deterministic route"
                )
            expected = self.acg.comm_duration(comm.volume, comm.src_pe, comm.dst_pe)
            if abs(comm.duration - expected) > EPS:
                raise ScheduleValidationError(
                    f"transaction {src}->{dst} duration {comm.duration} != model {expected}"
                )
            _check_energy(
                f"transaction {src}->{dst}", comm.energy, comm.volume * route.energy_per_bit
            )

    # -- provenance ---------------------------------------------------------------

    def explain(self, task: str) -> str:
        """Why ``task`` was placed where it was, from decision provenance.

        Requires the schedule to have been produced under an enabled
        decision log (``obs.Instrumentation.enabled()``); returns a
        placeholder line otherwise.
        """
        for decision in self.provenance:
            if decision.task == task:
                return decision.describe()
        return f"{task}: no decision recorded (run under an enabled obs.DecisionLog)"

    # -- misc ---------------------------------------------------------------------

    def summary(self) -> str:
        misses = self.deadline_misses()
        return (
            f"Schedule[{self.algorithm}] of {self.ctg.name}: "
            f"energy={self.total_energy():.1f} nJ "
            f"(comp={self.computation_energy():.1f}, comm={self.communication_energy():.1f}), "
            f"makespan={self.makespan():.1f}, misses={len(misses)}"
        )

    def __repr__(self) -> str:
        return (
            f"Schedule(algorithm={self.algorithm!r}, tasks={len(self.task_placements)}/"
            f"{self.ctg.n_tasks}, energy={self.total_energy():.2f})"
        )
