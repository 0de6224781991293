"""Additional reference schedulers: energy-greedy and random.

Neither is in the paper; both bracket the EAS/EDF comparison.

* :func:`greedy_energy_schedule` is the energy-myopic extreme: every
  task goes to its locally cheapest PE with no deadline awareness — a
  lower-is-not-always-feasible reference for energy.
* :func:`random_schedule` maps tasks uniformly at random (feasible types
  only); useful as a statistical null and in property tests.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro import obs
from repro.arch.acg import ACG
from repro.core.comm import incoming_comm_energy
from repro.core.placement import commit, probe
from repro.core.rebuild import rebuild_schedule
from repro.ctg.graph import CTG
from repro.errors import SchedulingError
from repro.obs.decisions import Candidate, TaskDecision
from repro.rng import RandomLike, make_rng
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule


def greedy_energy_schedule(ctg: CTG, acg: ACG) -> Schedule:
    """Map each ready task to the PE minimising its marginal energy.

    The marginal energy of task ``i`` on PE ``k`` is its computation
    energy plus the network energy of its already-placed inputs — the
    same ``E1`` quantity EAS uses, but applied greedily with no deadline
    budget at all.
    """
    ins = obs.get()
    eval_counter = ins.metrics.counter("greedy.evaluations")
    record_decisions = ins.decisions.enabled
    decided: List[TaskDecision] = []

    with obs.timed_phase("greedy_energy", ctg=ctg.name) as timing:
        schedule = Schedule(ctg, acg, algorithm="greedy-energy")
        tables = ResourceTables()
        placements: Dict[str, TaskPlacement] = {}
        mapping: Dict[str, int] = {}

        remaining_preds = {name: ctg.in_degree(name) for name in ctg.task_names()}
        ready = sorted(name for name, n in remaining_preds.items() if n == 0)

        while ready:
            chosen = ready[0]  # FIFO over a sorted ready list: deterministic
            task = ctg.task(chosen)
            best_pe = -1
            best_energy = math.inf
            candidates: List[Candidate] = []
            for pe in acg.pes:
                cost = task.cost_on(pe.type_name)
                if not cost.feasible:
                    continue
                energy = cost.energy + incoming_comm_energy(ctg, acg, chosen, pe.index, mapping)
                eval_counter.inc()
                if record_decisions:
                    candidates.append(Candidate(pe=pe.index, energy=energy))
                if energy < best_energy:
                    best_energy = energy
                    best_pe = pe.index
            if best_pe < 0:
                raise SchedulingError(f"task {chosen!r} has no feasible PE")

            evaluation = probe(tables, ctg, acg, placements, chosen, best_pe)
            assert evaluation is not None  # best_pe's type is feasible
            placement = commit(tables, placements, schedule, evaluation)
            mapping[chosen] = best_pe
            if record_decisions:
                decision = TaskDecision(
                    task=chosen,
                    pe=best_pe,
                    algorithm="greedy-energy",
                    start=placement.start,
                    finish=placement.finish,
                    energy=placement.energy,
                    candidates=[c for c in candidates if c.pe != best_pe],
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


def random_schedule(ctg: CTG, acg: ACG, seed: RandomLike = None) -> Schedule:
    """Uniform random feasible mapping, rebuilt with topological orders."""
    rng = make_rng(seed)
    mapping: Dict[str, int] = {}
    for task in ctg.tasks():
        candidates = [
            pe.index for pe in acg.pes if task.cost_on(pe.type_name).feasible
        ]
        if not candidates:
            raise SchedulingError(f"task {task.name!r} has no feasible PE")
        mapping[task.name] = rng.choice(candidates)

    orders: Dict[int, list] = {pe.index: [] for pe in acg.pes}
    for name in ctg.topological_order():
        orders[mapping[name]].append(name)

    with obs.timed_phase("random", ctg=ctg.name) as timing:
        schedule = rebuild_schedule(ctg, acg, mapping, orders, algorithm="random")
    schedule.runtime_seconds = timing.seconds
    return schedule
