"""The paper-literal EAS reference scheduler (the equivalence oracle).

Production EAS has four optimisations the paper does not: the Step-2
evaluation cache and energy-ordered probing (``core/eas.py``), the
version-keyed path-table cache with its horizon fast path
(``schedule/overlay.py``) and the incremental Step-3 repair engine
(``core/increbuild.py``).  Each must be invisible in the output.  This
module is EAS without them, built from three pieces:

* :class:`LiteralTables` — tables whose Fig. 3 probes merge the busy
  lists of every link on the route from scratch, every time;
* :func:`reference_level_schedule` — Step 2 re-evaluating every (ready
  task, PE) pair on every iteration through the placement kernel, with
  production's selection rule (:func:`~repro.core.eas.select_candidate`);
* :func:`reference_repair` — Step 3 with one full rebuild over
  :class:`LiteralTables` per candidate move.

:func:`reference_eas_schedule` must return byte-identical schedules
(placements, transactions, energy, decision provenance) to
:func:`~repro.core.eas.eas_schedule`.  It reports the same counter
names (``eas.evaluations``, ``comm.merge_intervals``, ``repair.*``),
but its ``eas.evaluations`` counts every (ready task, PE) pair of every
iteration, several times production's.  It never touches
``eas.cache_*``, ``comm.path_cache_*`` or ``comm.horizon_fast_path``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.core.eas import EASConfig, select_candidate, task_decision
from repro.core.placement import Evaluation, commit, probe
from repro.core.rebuild import rebuild_schedule
from repro.core.repair import RepairConfig, RepairReport, search_and_repair
from repro.core.slack import TaskBudget, compute_budgets
from repro.ctg.graph import CTG
from repro.errors import InfeasibleOrderError
from repro.obs.decisions import TaskDecision
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables, TentativeOverlay
from repro.schedule.schedule import Schedule
from repro.schedule.table import find_gap, merge_busy


class _LiteralOverlay(TentativeOverlay):
    """A tentative layer whose every probe re-merges from scratch."""

    def find_earliest(self, resource: int, ready: float, duration: float) -> float:
        self._probed.add(resource)
        return find_gap(self._combined(resource), ready, duration)

    def find_earliest_on_path(
        self, resources: Sequence[int], ready: float, duration: float
    ) -> float:
        if not resources:
            return ready
        self._probed.update(resources)
        views = [self._combined(r) for r in resources]
        self._base._merge_work.inc(sum(len(view) for view in views))
        return find_gap(merge_busy(views), ready, duration)


class LiteralTables(ResourceTables):
    """Resource tables probed the paper-literal way (Fig. 3 verbatim).

    Every path probe builds the route's schedule table by merging the
    busy lists of its links ("``path.build_schedule_table()``"); nothing
    is cached between probes.
    """

    def overlay(self) -> TentativeOverlay:
        return _LiteralOverlay(self)


def reference_level_schedule(
    ctg: CTG,
    acg: ACG,
    budgets: Mapping[str, TaskBudget],
    algorithm_name: str = "eas-base",
    contention_aware: bool = True,
) -> Schedule:
    """Step 2, literally: re-evaluate every ready (task, PE) pair each step."""
    ins = obs.get()
    eval_counter = ins.metrics.counter("eas.evaluations")
    record_decisions = ins.decisions.enabled
    decided: List[TaskDecision] = []
    schedule = Schedule(ctg, acg, algorithm=algorithm_name)
    tables = LiteralTables()
    placements: Dict[str, TaskPlacement] = {}
    remaining_preds = {name: ctg.in_degree(name) for name in ctg.task_names()}
    ready = sorted(name for name, n in remaining_preds.items() if n == 0)
    while ready:
        evaluations: Dict[str, Dict[int, Evaluation]] = {}
        for task_name in ready:
            per_pe: Dict[int, Evaluation] = {}
            for pe in acg.pes:
                if not acg.pe_available(pe.index):
                    continue
                evaluation = probe(
                    tables, ctg, acg, placements, task_name, pe.index,
                    contention_aware=contention_aware,
                )
                if evaluation is not None:
                    eval_counter.inc()
                    per_pe[pe.index] = evaluation
            evaluations[task_name] = per_pe
        chosen, pe_index, outcome = select_candidate(evaluations, budgets)
        placement = commit(tables, placements, schedule, evaluations[chosen][pe_index])
        if record_decisions:
            bd = budgets[chosen].budgeted_deadline
            decision = task_decision(algorithm_name, placement, outcome, evaluations[chosen], bd)
            ins.decisions.record(decision)
            decided.append(decision)
        ready.remove(chosen)
        for succ in ctg.successors(chosen):
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                ready.append(succ)
        ready.sort()
    schedule.provenance = decided
    return schedule


def reference_repair(
    schedule: Schedule, config: Optional[RepairConfig] = None
) -> Tuple[Schedule, RepairReport]:
    """Step 3, literally: one full rebuild over literal tables per candidate."""
    ctg, acg, algorithm = schedule.ctg, schedule.acg, schedule.algorithm

    def rebuild(
        mapping: Dict[str, int], orders: Dict[int, List[str]]
    ) -> Optional[Schedule]:
        try:
            return rebuild_schedule(
                ctg, acg, mapping, orders, algorithm=algorithm, tables=LiteralTables()
            )
        except InfeasibleOrderError:
            return None

    return search_and_repair(schedule, replace(config or RepairConfig(), rebuilder=rebuild))


def reference_eas_schedule(
    ctg: CTG, acg: ACG, config: Optional[EASConfig] = None
) -> Schedule:
    """The full EAS algorithm (Steps 1-3) without any optimisation.

    Same contract and output as :func:`~repro.core.eas.eas_schedule`.
    """
    cfg = config or EASConfig()
    with obs.timed_phase("eas_reference", ctg=ctg.name) as timing:
        budgets = compute_budgets(
            ctg, acg, weight_policy=cfg.weight_policy, include_comm=cfg.include_comm_in_slack
        )
        name = "eas-base" if cfg.contention_aware else "eas-base-nocontention"
        schedule = reference_level_schedule(ctg, acg, budgets, name, cfg.contention_aware)
        if cfg.repair and schedule.deadline_misses():
            repaired, _report = reference_repair(
                schedule, RepairConfig(max_rounds=cfg.max_repair_rounds)
            )
            repaired.provenance = schedule.provenance
            schedule = repaired
    schedule.algorithm = "eas"
    schedule.runtime_seconds = timing.seconds
    return schedule
