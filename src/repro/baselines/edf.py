"""The standard Earliest-Deadline-First scheduler (paper Sec. 6 baseline).

A performance-oriented list scheduler: among the ready tasks it always
serves the one with the earliest *effective* deadline (specified
deadlines propagated backwards through the graph so interior tasks are
orderable), and maps it to the PE giving the earliest finish time —
communication transactions are scheduled with the same Fig. 3 machinery
and the same contention model as EAS, so the comparison isolates the
*selection policy* (performance-greedy vs energy-aware), exactly what the
paper's experiments contrast.

Energy never enters the decisions, which is why EDF's schedules land on
fast, energy-hungry PEs and scatter communicating tasks: the behaviour
the paper quantifies as 39-55 % extra energy.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro import obs
from repro.arch.acg import ACG
from repro.core.placement import Evaluation, commit, probe
from repro.ctg.analysis import effective_deadlines
from repro.ctg.graph import CTG
from repro.errors import SchedulingError
from repro.obs.decisions import Candidate, TaskDecision
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule


def edf_schedule(ctg: CTG, acg: ACG) -> Schedule:
    """Schedule ``ctg`` on ``acg`` with EDF task selection.

    Returns a structurally valid schedule; deadline satisfaction is not
    guaranteed (EDF is a heuristic here too — the mapping problem is
    NP-hard either way).
    """
    ins = obs.get()
    eval_counter = ins.metrics.counter("edf.evaluations")
    record_decisions = ins.decisions.enabled
    decided: List[TaskDecision] = []

    with obs.timed_phase("edf", ctg=ctg.name) as timing:
        schedule = Schedule(ctg, acg, algorithm="edf")
        tables = ResourceTables()
        placements: Dict[str, TaskPlacement] = {}
        eff_deadline = effective_deadlines(ctg, acg.pe_type_names())

        remaining_preds = {name: ctg.in_degree(name) for name in ctg.task_names()}
        ready = sorted(name for name, n in remaining_preds.items() if n == 0)

        while ready:
            # EDF selection: earliest effective deadline; ties by name.
            chosen = min(ready, key=lambda name: (eff_deadline[name], name))

            best: Optional[Evaluation] = None
            best_key = (math.inf, math.inf, math.inf)
            candidates: List[Candidate] = []
            for pe in acg.pes:
                evaluation = probe(tables, ctg, acg, placements, chosen, pe.index)
                if evaluation is None:
                    continue
                eval_counter.inc()
                if record_decisions:
                    candidates.append(
                        Candidate(
                            pe=pe.index,
                            finish=evaluation.finish,
                            energy=evaluation.compute_energy,
                            start=evaluation.start,
                            drt=evaluation.drt,
                            compute_energy=evaluation.compute_energy,
                        )
                    )
                # Performance-greedy: earliest finish; energy is NOT considered.
                key = (evaluation.finish, evaluation.start, pe.index)
                if key < best_key:
                    best_key = key
                    best = evaluation
            if best is None:
                raise SchedulingError(f"task {chosen!r} has no feasible PE")

            placement = commit(tables, placements, schedule, best)
            if record_decisions:
                decision = TaskDecision(
                    task=chosen,
                    pe=best.pe,
                    algorithm="edf",
                    start=placement.start,
                    finish=placement.finish,
                    energy=placement.energy,
                    chosen=next((c for c in candidates if c.pe == best.pe), None),
                    candidates=[c for c in candidates if c.pe != best.pe],
                )
                ins.decisions.record(decision)
                decided.append(decision)
            ready.remove(chosen)
            for succ in ctg.successors(chosen):
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    ready.append(succ)
            ready.sort()

    schedule.provenance = decided
    schedule.runtime_seconds = timing.seconds
    return schedule

