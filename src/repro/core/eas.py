"""EAS Step 2: level-based scheduling, plus the top-level EAS driver.

The level-based scheduler repeatedly examines the **ready task list**
(RTL — tasks whose predecessors are all scheduled).  For every
``(task, PE)`` combination it computes the earliest finish time

    ``F(i,k) = start(i,k) + r_i_k``

where ``start(i,k)`` is the earliest gap on PE ``k`` at or after the data
ready time ``DRT(i,k)`` obtained by *tentatively* scheduling the task's
receiving transactions on the link tables (Fig. 3), restoring the tables
afterwards.  Selection then follows the paper:

* if some ready task cannot meet its budgeted deadline anywhere
  (``min_F(i) > BD_i``), the most violating one is scheduled on its
  fastest PE (performance rescue);
* otherwise each task's BD-feasible PE list ``L_i`` is formed, the
  energy regret ``δE_i = E2_i - E1_i`` is computed (``E`` includes the
  communication energy of the task's inputs, whose senders are already
  placed), and the task with the largest regret is committed to its
  minimum-energy PE.

A task with exactly one BD-feasible PE gets ``δE = +inf`` — deferring a
forced placement risks losing it, so it is treated as maximal regret
(interpretation decision; see DESIGN.md).

Incremental evaluation
----------------------
Naively, Step 2 recomputes every ``F(i,k)`` on every iteration even
though a commit only mutates one PE table and the links its
transactions traverse.  The scheduler therefore caches evaluations
across iterations and, after each commit, evicts only the entries whose
*resource footprint* (the PE and link tables the evaluation probed,
reported by :class:`~repro.schedule.overlay.TentativeOverlay`)
intersects the commit's dirty set — the committed PE plus every link
the committed transactions reserved.  An untouched footprint means the
evaluation would recompute to the identical result, so cached and naive
runs produce byte-identical schedules (see DESIGN.md for the argument
and ``tests/test_eval_cache.py`` for the randomized equivalence
harness).  The naive recompute is the paper-literal reference scheduler
in :mod:`repro.core.reference`, which the equivalence tests compare
against.

The scheduler also probes only the PEs the selection needs.  A task's
selection energies are known without probing once it is ready, so its
PEs are walked cheapest first, and the walk stops once Rule 4 is
decided: two BD-feasible evaluations seen and the next PE strictly
dearer than the second.  Tasks with fewer than two BD-feasible PEs are
probed everywhere, so Rule 3 sees the exact minimum finish (DESIGN.md,
"Energy-ordered probing").
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.core.placement import Evaluation, commit, probe
from repro.obs.decisions import Candidate, TaskDecision
from repro.core.slack import TaskBudget, WeightPolicy, compute_budgets, weight_var_product
from repro.ctg.graph import CTG
from repro.errors import SchedulingError, UnroutableError
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule
from repro.schedule.table import EPS, Interval


@dataclass
class EASConfig:
    """Knobs of the EAS algorithm.

    Attributes:
        weight_policy: Step-1 slack weight function (paper default:
            ``VAR_e * VAR_r``).
        include_comm_in_slack: include mean input-transfer delay in the
            Step-1 path lengths (paper default: off).
        repair: run Step 3 (search-and-repair) when the level-based
            schedule misses deadlines.
        max_repair_rounds: safety bound on LTS/GTM alternations.
        contention_aware: schedule transactions against real link
            occupancy (the paper's approach).  When False the scheduler
            uses the fixed-delay communication model the paper's
            introduction criticises; the resulting timing is
            optimistic and its link usage may overlap — only the
            contention ablation should turn this off.
    """

    weight_policy: WeightPolicy = weight_var_product
    include_comm_in_slack: bool = False
    repair: bool = True
    max_repair_rounds: int = 64
    contention_aware: bool = True


#: resource id -> busy windows an evaluation was granted there.
Windows = Dict[int, Tuple[Interval, ...]]


def _windows_conflict(a: Windows, b: Windows) -> bool:
    """Whether two granted-window maps overlap on any shared resource.

    Plain interval overlap (``s < end and start < e``): windows that
    merely touch endpoints cannot move a ``find_gap`` result, while
    anything closer — including sub-EPS contact — conservatively
    counts as a conflict.  Window lists are tiny (one slot per
    transaction on a link), so the pairwise scan is cheap.
    """
    if len(b) < len(a):
        a, b = b, a
    for resource, intervals in a.items():
        others = b.get(resource)
        if not others:
            continue
        for start, end in intervals:
            for other_start, other_end in others:
                if other_start < end and start < other_end:
                    return True
    return False


def _candidate_from_eval(evaluation: Evaluation, bd: float) -> Candidate:
    """The schema-v2 component breakdown of one F(i,k) evaluation.

    ``evaluation.energy`` already folds in the communication energy of
    the task's inputs, so the compute share is recovered by subtracting
    the transaction energies; ``slack`` is the margin the placement
    would leave against the Step-1 budgeted deadline.
    """
    comm_energy = sum(t.energy for t in evaluation.transfers)
    return Candidate(
        pe=evaluation.pe,
        finish=evaluation.finish,
        energy=evaluation.energy,
        start=evaluation.start,
        drt=evaluation.drt,
        compute_energy=evaluation.energy - comm_energy,
        comm_energy=comm_energy,
        hops=sum(len(t.links) for t in evaluation.transfers),
        slack=bd - evaluation.finish,
    )


@dataclass
class SelectionOutcome:
    """Why the Step-2 selection picked its (task, PE) pair."""

    #: Rule-3 performance rescue (no PE meets the budgeted deadline).
    rescue: bool = False
    #: energy regret δE of the chosen task (None on a rescue, inf when
    #: the task had a single BD-feasible PE).
    regret: Optional[float] = None


def select_candidate(
    evaluations: Dict[str, Dict[int, Evaluation]],
    budgets: Mapping[str, TaskBudget],
) -> Tuple[str, int, SelectionOutcome]:
    """Apply the paper's Step-2 selection rules to the current RTL.

    ``evaluations`` maps every ready task to its F(i,k) evaluations.  A
    task with fewer than two BD-feasible PEs must have one per usable
    PE; any other task needs only those on the PEs whose selection
    energy is at most its second-cheapest BD-feasible one, which is
    what :class:`LevelBasedScheduler` probes.  Returns the chosen
    ``(task, PE)`` pair and why it won.
    """
    min_f: Dict[str, Evaluation] = {}
    for task_name, per_pe in evaluations.items():
        if not per_pe:
            raise SchedulingError(f"task {task_name!r} has no feasible PE")
        min_f[task_name] = min(
            per_pe.values(), key=lambda ev: (ev.finish, ev.energy, ev.pe)
        )

    # Rule 3: violating tasks go first, fastest PE wins.
    violations = [
        (min_f[t].finish - budgets[t].budgeted_deadline, t)
        for t in evaluations
        if min_f[t].finish > budgets[t].budgeted_deadline + EPS
    ]
    if violations:
        violations.sort(key=lambda item: (-item[0], item[1]))
        chosen = violations[0][1]
        return chosen, min_f[chosen].pe, SelectionOutcome(rescue=True)

    # Rule 4: all tasks can meet their BD somewhere; maximise regret.
    # Ties: tighter (smaller) BD first, then task name, for determinism.
    best_task: Optional[str] = None
    best_key: Tuple[float, float] = (-math.inf, -math.inf)
    best_pe = -1
    for task_name in sorted(evaluations):
        per_pe = evaluations[task_name]
        bd = budgets[task_name].budgeted_deadline
        feasible = [ev for ev in per_pe.values() if ev.finish <= bd + EPS]
        feasible.sort(key=lambda ev: (ev.energy, ev.finish, ev.pe))
        e1 = feasible[0]
        delta = math.inf if len(feasible) == 1 else feasible[1].energy - e1.energy
        key = (delta, -bd)
        if best_task is None or key > best_key:
            best_task = task_name
            best_key = key
            best_pe = e1.pe
    assert best_task is not None
    return best_task, best_pe, SelectionOutcome(regret=best_key[0])


def task_decision(
    algorithm: str,
    placement: TaskPlacement,
    outcome: SelectionOutcome,
    per_pe: Mapping[int, Evaluation],
    bd: float,
) -> TaskDecision:
    """The provenance record of one Step-2 commit.

    ``per_pe`` holds the committed task's evaluation on every usable PE;
    the one on ``placement.pe`` is the chosen candidate, the rest are
    the beaten ones in PE order.
    """
    return TaskDecision(
        task=placement.task,
        pe=placement.pe,
        algorithm=algorithm,
        rescue=outcome.rescue,
        regret=outcome.regret,
        start=placement.start,
        finish=placement.finish,
        energy=placement.energy,
        bd=bd,
        chosen=_candidate_from_eval(per_pe[placement.pe], bd),
        candidates=[
            _candidate_from_eval(ev, bd)
            for pe_index, ev in sorted(per_pe.items())
            if pe_index != placement.pe
        ],
    )


class LevelBasedScheduler:
    """Step 2 of EAS: energy-aware list scheduling steered by budgets.

    Each iteration walks every ready task's usable PEs in selection
    energy order, through the evaluation cache or a probe, and stops as
    soon as Rule 4 is decided for the task (see the module docstring).
    When decisions are recorded, the committed task's skipped PEs are
    probed too, so its decision lists every candidate.

    The three optional arguments exist for degraded-mode recovery
    (``repro.faults.recovery``), which re-runs Step 2 over the *surviving*
    tasks of a committed schedule: ``preplaced`` seeds already-final
    placements (their tasks are never re-scheduled, but their outputs
    feed transactions), ``tables`` supplies resource tables pre-loaded
    with the salvaged reservations, and ``floor`` forbids any new work
    before the fault time.  All three default to the healthy-platform
    behaviour.
    """

    def __init__(
        self,
        ctg: CTG,
        acg: ACG,
        budgets: Mapping[str, TaskBudget],
        algorithm_name: str = "eas-base",
        contention_aware: bool = True,
        preplaced: Optional[Mapping[str, TaskPlacement]] = None,
        tables: Optional[ResourceTables] = None,
        floor: float = 0.0,
    ) -> None:
        self.ctg = ctg
        self.acg = acg
        self.budgets = budgets
        self.algorithm_name = algorithm_name
        self.contention_aware = contention_aware
        self.floor = floor
        self._tables = tables if tables is not None else ResourceTables()
        self._placements: Dict[str, TaskPlacement] = (
            dict(preplaced) if preplaced else {}
        )
        #: clean F(i,k) evaluations carried across RTL iterations, with
        #: each one's probe footprint and granted windows.
        self._cache: Dict[Tuple[str, int], Tuple[Evaluation, FrozenSet[int], Windows]] = {}
        ins = obs.get()
        self._ins = ins
        self._eval_counter = ins.metrics.counter("eas.evaluations")
        self._restore_counter = ins.metrics.counter("comm.table_restores")
        self._hit_counter = ins.metrics.counter("eas.cache_hits")
        self._invalidation_counter = ins.metrics.counter("eas.cache_invalidations")

    # -- F(i,k) evaluation --------------------------------------------------

    def _energy_order(self, task_name: str) -> List[Tuple[float, int]]:
        """``(selection energy, PE)`` of each usable PE, cheapest first.

        A PE is usable when it is available and its type can run the
        task.  The selection energy of :func:`~repro.core.placement.probe`
        does not depend on timing: it is the compute energy plus each
        input's ``volume * e(r)``, summed over the LCT in the order
        Fig. 3 schedules it.  Once the task is ready its senders are
        placed, so this reproduces the probe's float bit for bit without
        probing.  A PE a fault partition cuts off from some sender gets
        ``inf``: it stays in the walk, and its probe returns ``None``.
        """
        placements = self._placements
        lct = sorted(
            self.ctg.in_edges(task_name), key=lambda e: (placements[e.src].finish, e.src)
        )
        task = self.ctg.task(task_name)
        route = self.acg.route
        order = []
        for pe in self.acg.pes:
            cost = task.cost_on(pe.type_name)
            if not (cost.feasible and self.acg.pe_available(pe.index)):
                continue
            try:
                comm = sum(
                    edge.volume * route(placements[edge.src].pe, pe.index).energy_per_bit
                    for edge in lct
                )
            except UnroutableError:
                comm = math.inf
            order.append((cost.energy + comm, pe.index))
        order.sort()
        return order

    def _evaluate(self, task_name: str, pe_index: int) -> Optional[Evaluation]:
        """Compute ``F(i,k)`` and cache it; ``None`` when the PE is unusable.

        On a fault-degraded platform a partition can leave no route from
        some already-placed sender; that simply removes the candidate.
        The cache entry records the evaluation's footprint (the PE and
        link tables the probe read) and its granted windows (the link
        reservations plus the task's own slot on the PE).
        """
        evaluation = probe(
            self._tables, self.ctg, self.acg, self._placements, task_name, pe_index,
            floor=self.floor, contention_aware=self.contention_aware,
        )
        if evaluation is None:
            return None
        self._eval_counter.inc()
        self._restore_counter.inc()
        windows = evaluation.overlay.reservations()
        windows[pe_index] = ((evaluation.start, evaluation.finish),)
        footprint = evaluation.overlay.probed_resources()
        self._cache[(task_name, pe_index)] = (evaluation, footprint, windows)
        return evaluation

    # -- cache maintenance --------------------------------------------------

    def _invalidate(self, committed: Evaluation) -> int:
        """Evict cache entries whose footprint the commit dirtied.

        A commit mutates exactly (a) the committed PE's table and (b)
        the link tables its transactions reserved; an evaluation whose
        probe footprint misses all of them would recompute to the
        identical result and stays cached.  Within a shared resource the
        check is refined to *time windows*: ``find_gap`` is monotone
        under added busy intervals and its result only moves when a new
        interval overlaps the granted slot, so a commit reserving a
        shared link at a disjoint time leaves the evaluation exact
        (sub-EPS boundary contact counts as overlap, conservatively).
        Entries of the committed task itself are consumed, not
        invalidated.  Returns the number of dirtied entries.
        """
        dirty = self._cache[(committed.task, committed.pe)][2]
        evicted = 0
        stale: List[Tuple[str, int]] = []
        for key, (_evaluation, footprint, windows) in self._cache.items():
            if key[0] == committed.task:
                stale.append(key)
            elif not footprint.isdisjoint(dirty) and _windows_conflict(dirty, windows):
                stale.append(key)
                evicted += 1
        for key in stale:
            del self._cache[key]
        if evicted:
            self._invalidation_counter.inc(evicted)
        self._ins.tracer.event(
            "eval_cache_sweep",
            task=committed.task,
            pe=committed.pe,
            dirty_resources=len(dirty),
            evicted=evicted,
            retained=len(self._cache),
        )
        return evicted

    # -- main loop ----------------------------------------------------------------

    def run(self) -> Schedule:
        """Schedule every task; returns a structurally valid schedule."""
        schedule = Schedule(self.ctg, self.acg, algorithm=self.algorithm_name)
        # Preplaced tasks count as done: they never enter the RTL and
        # their successors only wait for the remaining predecessors.
        done = set(self._placements)
        remaining_preds: Dict[str, int] = {
            name: sum(1 for p in self.ctg.predecessors(name) if p not in done)
            for name in self.ctg.task_names()
            if name not in done
        }
        ready = sorted(name for name, n in remaining_preds.items() if n == 0)

        ins = self._ins
        rescue_counter = ins.metrics.counter("eas.rescues")
        commit_counter = ins.metrics.counter("eas.commits")
        record_decisions = ins.decisions.enabled
        decided: List[TaskDecision] = []

        cache = self._cache
        #: ready task -> its usable PEs in selection-energy order.
        orders: Dict[str, List[Tuple[float, int]]] = {}
        total_hits = 0
        total_invalidations = 0

        with ins.tracer.span(
            "level_schedule",
            algorithm=self.algorithm_name,
            ctg=self.ctg.name,
            tasks=self.ctg.n_tasks,
            pes=len(self.acg.pes),
            eval_cache=True,
        ) as level_span:
            while ready:
                evaluations: Dict[str, Dict[int, Evaluation]] = {}
                with ins.tracer.span("evaluate_rtl", ready=len(ready)) as rtl_span:
                    hits = fresh = 0
                    for task_name in ready:
                        order = orders.get(task_name)
                        if order is None:
                            order = orders[task_name] = self._energy_order(task_name)
                        bd_eps = self.budgets[task_name].budgeted_deadline + EPS
                        per_pe: Dict[int, Evaluation] = {}
                        feasible = 0
                        e2 = math.inf
                        for energy, pe_index in order:
                            if energy > e2:
                                break  # Rule 4 is decided (DESIGN.md)
                            entry = cache.get((task_name, pe_index))
                            if entry is None:
                                evaluation = self._evaluate(task_name, pe_index)
                                if evaluation is None:
                                    continue
                                fresh += 1
                            else:
                                evaluation = entry[0]
                                hits += 1
                            per_pe[pe_index] = evaluation
                            if evaluation.finish <= bd_eps:
                                feasible += 1
                                if feasible == 2:
                                    e2 = evaluation.energy
                        evaluations[task_name] = per_pe
                    if hits:
                        self._hit_counter.inc(hits)
                        total_hits += hits
                    rtl_span.set_attribute("cache_hits", hits)
                    rtl_span.set_attribute("evaluations", fresh)

                chosen_task, chosen_pe, outcome = select_candidate(evaluations, self.budgets)
                chosen_eval = evaluations[chosen_task][chosen_pe]
                if record_decisions:
                    # The decision lists every candidate: probe the PEs
                    # the walk skipped.  Probes leave the tables as they
                    # are, so the commit below is unaffected.
                    per_pe = evaluations[chosen_task]
                    for _energy, pe_index in orders[chosen_task]:
                        if pe_index not in per_pe:
                            entry = cache.get((chosen_task, pe_index))
                            evaluation = (
                                entry[0] if entry is not None
                                else self._evaluate(chosen_task, pe_index)
                            )
                            if evaluation is not None:
                                per_pe[pe_index] = evaluation
                del orders[chosen_task]
                # Every evaluation the selection saw is clean, so the
                # commit replays the chosen one verbatim.
                placement = commit(self._tables, self._placements, schedule, chosen_eval)
                total_invalidations += self._invalidate(chosen_eval)
                commit_counter.inc()
                if outcome.rescue:
                    rescue_counter.inc()
                if record_decisions:
                    bd = self.budgets[chosen_task].budgeted_deadline
                    decision = task_decision(
                        self.algorithm_name, placement, outcome, evaluations[chosen_task], bd
                    )
                    ins.decisions.record(decision)
                    decided.append(decision)

                # `ready` is kept sorted: delete by binary search, insert
                # newly ready successors in order (no per-iteration sort).
                del ready[bisect_left(ready, chosen_task)]
                for succ in self.ctg.successors(chosen_task):
                    if succ not in remaining_preds:
                        continue  # preplaced successor (recovery resurrect)
                    remaining_preds[succ] -= 1
                    if remaining_preds[succ] == 0:
                        insort(ready, succ)

            level_span.set_attribute("cache_hits", total_hits)
            level_span.set_attribute("cache_invalidations", total_invalidations)

        if len(self._placements) != self.ctg.n_tasks:
            raise SchedulingError(
                "level-based scheduling finished without placing every task"
            )
        schedule.provenance = decided
        return schedule


def eas_base_schedule(
    ctg: CTG,
    acg: ACG,
    config: Optional[EASConfig] = None,
) -> Schedule:
    """EAS without Step 3 (the paper's *EAS-base*).

    The result always satisfies the structural invariants but may miss
    deadlines on tightly constrained inputs.
    """
    cfg = config or EASConfig()
    with obs.timed_phase("eas_base", ctg=ctg.name) as timing:
        budgets = compute_budgets(
            ctg,
            acg,
            weight_policy=cfg.weight_policy,
            include_comm=cfg.include_comm_in_slack,
        )
        schedule = LevelBasedScheduler(
            ctg,
            acg,
            budgets,
            algorithm_name="eas-base" if cfg.contention_aware else "eas-base-nocontention",
            contention_aware=cfg.contention_aware,
        ).run()
    schedule.runtime_seconds = timing.seconds
    return schedule


def eas_schedule(
    ctg: CTG,
    acg: ACG,
    config: Optional[EASConfig] = None,
) -> Schedule:
    """The full EAS algorithm (Steps 1-3).

    Runs the level-based scheduler and, when the result misses deadlines
    and ``config.repair`` is on, post-processes it with search-and-repair
    (local task swapping + global task migration).
    """
    from repro.core.repair import RepairConfig, search_and_repair

    cfg = config or EASConfig()
    with obs.timed_phase("eas", ctg=ctg.name) as timing:
        schedule = eas_base_schedule(ctg, acg, cfg)
        if cfg.repair and schedule.deadline_misses():
            repaired, _report = search_and_repair(
                schedule,
                RepairConfig(max_rounds=cfg.max_repair_rounds),
            )
            # Repair only reorders/remaps; the level-schedule decisions
            # remain the provenance of the original placements.
            repaired.provenance = schedule.provenance
            schedule = repaired
    schedule.algorithm = "eas"
    schedule.runtime_seconds = timing.seconds
    return schedule
