"""The schedule explainer behind ``repro-noc explain``.

Turns a committed :class:`~repro.schedule.schedule.Schedule` (plus its
schema-v2 decision provenance, when recorded) into an attribution
report answering the two triage questions a regressed Table-1/2 row or
a changed ``--bench-check`` verdict raises:

* **"why PE k for task i"** — the Step-2 selection rule that fired
  (rescue / forced / max-regret), the winning F(i,k) component
  breakdown (DRT, earliest start, energy split, hops, BD slack) and
  every losing candidate's score, straight from the
  :data:`~repro.obs.decisions.DECISION_SCHEMA_VERSION` 2 records.
* **"what chain determines the makespan / tardiness"** — the critical
  path: starting from the latest-finishing (or most tardy) task, walk
  backwards through whatever bound each start — the last-arriving input
  transaction, link contention delaying that transaction, or an earlier
  task occupying the PE — producing a chronological chain of ``exec`` /
  ``comm`` / ``link-wait`` / ``pe-wait`` segments whose spans tile the
  makespan of the chain's endpoint.

Energy attribution reuses :mod:`repro.obs.utilization` so the per-task
shares sum exactly to ``schedule.total_energy()``.

:func:`verify_decision_components` is the trust anchor: it replays the
commit sequence through the Fig. 3 placement kernel on fresh
paper-literal tables (:class:`~repro.core.reference.LiteralTables`,
which share no cache with the run being checked) and recomputes every
recorded candidate's F(i,k) components — any divergence between
captured and recomputed numbers (cache replay bugs, schema drift) comes
back as a mismatch string.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.decisions import Candidate, TaskDecision
from repro.obs.utilization import analyze_schedule, task_energy_attribution
from repro.schedule.table import EPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.acg import ACG
    from repro.core.slack import TaskBudget
    from repro.ctg.graph import CTG
    from repro.schedule.schedule import Schedule

#: bump when the explain report layout changes incompatibly.
EXPLAIN_SCHEMA_VERSION = 1

#: mismatch tolerance of the independent F(i,k) recompute.
VERIFY_TOLERANCE = 1e-9


# -- critical path ---------------------------------------------------------------


@dataclass(frozen=True)
class CriticalSegment:
    """One link of the chain that determines a task's finish time.

    ``kind`` is ``exec`` (a task runs), ``comm`` (a transaction holds
    its route), ``link-wait`` (a transaction queued behind other
    traffic after its sender finished) or ``pe-wait`` (inputs ready,
    PE busy with an earlier task).
    """

    kind: str
    start: float
    end: float
    task: str = ""
    resource: str = ""
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "task": self.task,
            "resource": self.resource,
            "detail": self.detail,
        }

    def describe(self) -> str:
        label = f"{self.kind:<9}"
        return (
            f"[{self.start:10.2f} .. {self.end:10.2f}] {label} "
            f"{self.task:<20} {self.resource}"
            + (f"  ({self.detail})" if self.detail else "")
        )


def pick_target(schedule: "Schedule") -> Optional[str]:
    """The task whose finish the chain should explain.

    The most tardy deadline task when the schedule misses, else the
    makespan-defining task; ties break by name for determinism.
    """
    if not schedule.task_placements:
        return None
    worst: Optional[str] = None
    worst_tardiness = 0.0
    for name in sorted(schedule.task_placements):
        deadline = schedule.ctg.task(name).deadline
        if not math.isfinite(deadline):
            continue
        tardiness = schedule.task_placements[name].finish - deadline
        if tardiness > worst_tardiness + EPS:
            worst, worst_tardiness = name, tardiness
    if worst is not None:
        return worst
    return max(
        sorted(schedule.task_placements),
        key=lambda name: schedule.task_placements[name].finish,
    )


def critical_path(schedule: "Schedule", target: Optional[str] = None) -> List[CriticalSegment]:
    """The deadline-driving chain ending at ``target``, oldest first.

    Walks backwards from ``target`` (default: :func:`pick_target`): a
    task's start is bound either by its last-arriving input transaction
    (follow the transaction, charging link contention separately from
    transfer time, then continue from the sender) or by the previous
    task occupying its PE (charge a ``pe-wait`` and continue from the
    blocker).  The walk ends at a task that starts the moment it could.
    """
    target = target if target is not None else pick_target(schedule)
    if target is None:
        return []
    placements = schedule.task_placements
    # Latest finisher per PE *before* a given start, for pe-wait blame.
    by_pe: Dict[int, List[Tuple[float, str]]] = {}
    for name, placement in placements.items():
        by_pe.setdefault(placement.pe, []).append((placement.finish, name))
    for rows in by_pe.values():
        rows.sort()

    segments: List[CriticalSegment] = []
    current = target
    visited = set()
    while current is not None and current not in visited:
        visited.add(current)
        placement = placements[current]
        segments.append(
            CriticalSegment(
                kind="exec",
                start=placement.start,
                end=placement.finish,
                task=current,
                resource=f"PE{placement.pe}",
            )
        )
        incoming = [
            schedule.comm_placements[(edge.src, current)]
            for edge in schedule.ctg.in_edges(current)
            if (edge.src, current) in schedule.comm_placements
        ]
        ready = max((c.finish for c in incoming), default=0.0)
        if placement.start > ready + EPS:
            # Inputs were ready earlier: the PE was busy.  Blame the
            # task on this PE finishing last at or before our start.
            blocker = None
            for finish, name in reversed(by_pe.get(placement.pe, [])):
                if name != current and finish <= placement.start + EPS:
                    blocker = (finish, name)
                    break
            if blocker is None:
                break  # start imposed by nothing visible (t=0 sources)
            segments.append(
                CriticalSegment(
                    kind="pe-wait",
                    start=max(ready, 0.0),
                    end=placement.start,
                    task=current,
                    resource=f"PE{placement.pe}",
                    detail=f"queued behind {blocker[1]}",
                )
            )
            current = blocker[1]
            continue
        if not incoming:
            break  # a source task starting as early as it could
        binding = max(incoming, key=lambda c: (c.finish, c.src_task))
        route = "->".join(
            [f"PE{binding.src_pe}", f"PE{binding.dst_pe}"]
        )
        if binding.finish > binding.start + EPS:
            segments.append(
                CriticalSegment(
                    kind="comm",
                    start=binding.start,
                    end=binding.finish,
                    task=f"{binding.src_task}->{binding.dst_task}",
                    resource=route,
                    detail=f"{len(binding.links)} hop(s)",
                )
            )
        sender = placements[binding.src_task]
        if binding.start > sender.finish + EPS:
            segments.append(
                CriticalSegment(
                    kind="link-wait",
                    start=sender.finish,
                    end=binding.start,
                    task=f"{binding.src_task}->{binding.dst_task}",
                    resource=route,
                    detail="route busy with other traffic",
                )
            )
        current = binding.src_task
    segments.reverse()
    return segments


# -- per-task explanations --------------------------------------------------------


@dataclass
class TaskExplanation:
    """Everything known about why one task landed where it did."""

    task: str
    pe: int
    start: float
    finish: float
    deadline: float
    energy_share: float
    decision: Optional[TaskDecision] = None

    @property
    def slack(self) -> float:
        return self.deadline - self.finish

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "pe": self.pe,
            "start": self.start,
            "finish": self.finish,
            "deadline": self.deadline if math.isfinite(self.deadline) else None,
            "slack": self.slack if math.isfinite(self.slack) else None,
            "energy_share": self.energy_share,
            "decision": self.decision.to_dict() if self.decision is not None else None,
        }

    def describe(self) -> List[str]:
        lines = [
            f"{self.task}: PE{self.pe}, runs [{self.start:g} .. {self.finish:g}]"
            + (
                f", deadline {self.deadline:g} (slack {self.slack:+g})"
                if math.isfinite(self.deadline)
                else ""
            )
            + f", energy share {self.energy_share:.1f} nJ"
        ]
        decision = self.decision
        if decision is None:
            lines.append("  (no decision provenance recorded for this task)")
            return lines
        lines.append("  " + decision.describe())
        rows = []
        if decision.chosen is not None:
            rows.append(("-> chosen", decision.chosen))
        rows.extend((" beaten", c) for c in decision.candidates)
        for tag, cand in rows:
            parts = [f"  {tag:>9} PE{cand.pe}"]
            if cand.finish is not None:
                parts.append(f"F={cand.finish:.4g}")
            if cand.start is not None and cand.drt is not None:
                parts.append(f"start={cand.start:.4g} (drt={cand.drt:.4g})")
            if cand.energy is not None:
                parts.append(f"E={cand.energy:.4g}")
            if cand.compute_energy is not None and cand.comm_energy is not None:
                parts.append(
                    f"(comp {cand.compute_energy:.4g} + comm {cand.comm_energy:.4g})"
                )
            if cand.hops is not None:
                parts.append(f"hops={cand.hops}")
            if cand.slack is not None and math.isfinite(cand.slack):
                parts.append(f"bd-slack={cand.slack:+.4g}")
            lines.append("  ".join(parts))
        return lines


# -- the report ------------------------------------------------------------------


@dataclass
class ExplainReport:
    """The full explanation of one schedule."""

    benchmark: str
    algorithm: str
    makespan: float
    total_energy: float
    misses: List[str]
    tardiness: float
    target: Optional[str]
    path: List[CriticalSegment]
    explanations: List[TaskExplanation]
    energy: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "algorithm": self.algorithm,
            "makespan": self.makespan,
            "total_energy": self.total_energy,
            "misses": list(self.misses),
            "tardiness": self.tardiness,
            "target": self.target,
            "critical_path": [s.to_dict() for s in self.path],
            "tasks": [e.to_dict() for e in self.explanations],
            "energy": dict(self.energy),
        }

    def format_text(self) -> str:
        lines = [
            f"Explain: {self.benchmark} [{self.algorithm}] "
            f"makespan {self.makespan:g}, energy {self.total_energy:.1f} nJ, "
            f"misses {len(self.misses)}"
            + (f" (tardiness {self.tardiness:g})" if self.misses else ""),
            "",
            f"== critical path (drives {'tardiness of ' if self.misses else 'makespan via '}"
            f"{self.target}) ==",
        ]
        if self.path:
            exec_t = sum(s.duration for s in self.path if s.kind == "exec")
            comm_t = sum(s.duration for s in self.path if s.kind == "comm")
            waits = sum(s.duration for s in self.path if s.kind.endswith("wait"))
            for segment in self.path:
                lines.append("  " + segment.describe())
            lines.append(
                f"  chain split: exec {exec_t:.1f}, comm {comm_t:.1f}, waits {waits:.1f}"
            )
        else:
            lines.append("  (empty schedule)")
        lines.append("")
        lines.append("== task decisions ==")
        if self.explanations:
            for explanation in self.explanations:
                lines.extend("  " + ln for ln in explanation.describe())
        else:
            lines.append("  (no tasks selected)")
        return "\n".join(lines)

    def format_markdown(self) -> str:
        lines = [
            f"# Explain — {self.benchmark} [{self.algorithm}]",
            "",
            f"makespan **{self.makespan:g}**, energy **{self.total_energy:.1f} nJ**, "
            f"misses **{len(self.misses)}**"
            + (f", tardiness **{self.tardiness:g}**" if self.misses else ""),
            "",
            f"## Critical path → `{self.target}`",
            "",
        ]
        if self.path:
            lines.append("| window | kind | what | resource | detail |")
            lines.append("|---|---|---|---|---|")
            for s in self.path:
                lines.append(
                    f"| {s.start:g} .. {s.end:g} | {s.kind} | {s.task} "
                    f"| {s.resource} | {s.detail} |"
                )
        else:
            lines.append("_empty schedule_")
        lines += ["", "## Task decisions", ""]
        for explanation in self.explanations:
            lines.append("```")
            lines.extend(explanation.describe())
            lines.append("```")
        return "\n".join(lines)


def format_explain(report: ExplainReport, fmt: str = "text") -> str:
    """Render an :class:`ExplainReport` as text, markdown or JSON."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=1, allow_nan=False, default=str)
    if fmt == "markdown":
        return report.format_markdown()
    if fmt == "text":
        return report.format_text()
    raise ValueError(f"unknown explain format {fmt!r}")


def explain_schedule(
    schedule: "Schedule",
    focus: Optional[str] = None,
    max_tasks: int = 8,
) -> ExplainReport:
    """Build the explanation report for ``schedule``.

    ``focus`` restricts the per-task section to one task (and anchors
    the critical path at it); otherwise the ``max_tasks`` tightest-slack
    deadline tasks are explained, critical-path tasks first.
    """
    if focus is not None and focus not in schedule.task_placements:
        raise KeyError(f"task {focus!r} is not scheduled")
    target = focus if focus is not None else pick_target(schedule)
    path = critical_path(schedule, target=target)
    decisions = {d.task: d for d in schedule.provenance}
    shares = task_energy_attribution(schedule)

    if focus is not None:
        wanted = [focus]
    else:
        on_path = [s.task for s in path if s.kind == "exec"]
        deadline_tasks = sorted(
            (
                name
                for name in schedule.task_placements
                if math.isfinite(schedule.ctg.task(name).deadline)
            ),
            key=lambda name: (
                schedule.ctg.task(name).deadline
                - schedule.task_placements[name].finish,
                name,
            ),
        )
        wanted = list(dict.fromkeys(on_path + deadline_tasks))[:max_tasks]

    explanations = []
    for name in wanted:
        placement = schedule.task_placements[name]
        explanations.append(
            TaskExplanation(
                task=name,
                pe=placement.pe,
                start=placement.start,
                finish=placement.finish,
                deadline=schedule.ctg.task(name).deadline,
                energy_share=shares.get(name, 0.0),
                decision=decisions.get(name),
            )
        )
    return ExplainReport(
        benchmark=schedule.ctg.name,
        algorithm=schedule.algorithm,
        makespan=schedule.makespan(),
        total_energy=schedule.total_energy(),
        misses=schedule.deadline_misses(),
        tardiness=schedule.total_tardiness(),
        target=target,
        path=path,
        explanations=explanations,
        energy=analyze_schedule(schedule).energy,
    )


# -- independent recompute -------------------------------------------------------


def verify_decision_components(
    ctg: "CTG",
    acg: "ACG",
    decisions: List[TaskDecision],
    contention_aware: bool = True,
    tolerance: float = VERIFY_TOLERANCE,
) -> List[str]:
    """Recompute every decision's F(i,k) components from scratch.

    Replays the commit sequence through the placement kernel on fresh
    :class:`~repro.core.reference.LiteralTables` (the paper-literal
    path, independent of every cache the scheduler used) and, *before*
    each commit, re-evaluates the recorded candidates — chosen and
    beaten — with the same Fig. 3 machinery.  Returns one human-readable
    string per mismatching component; an empty list certifies the
    captured breakdown exact.
    """
    from repro.core.placement import commit, probe
    from repro.core.reference import LiteralTables
    from repro.schedule.entries import TaskPlacement

    mismatches: List[str] = []
    tables = LiteralTables()
    placements: Dict[str, TaskPlacement] = {}
    for decision in decisions:
        recorded = list(decision.candidates)
        if decision.chosen is not None:
            recorded.append(decision.chosen)
        probed = {}
        for candidate in recorded:
            evaluation = probe(
                tables, ctg, acg, placements, decision.task, candidate.pe,
                contention_aware=contention_aware,
            )
            if evaluation is None:
                mismatches.append(
                    f"{decision.task}@PE{candidate.pe}: recorded an infeasible PE"
                )
                continue
            probed[candidate.pe] = evaluation
            comm_energy = sum(t.energy for t in evaluation.transfers)
            expected = {
                "start": evaluation.start,
                "drt": evaluation.drt,
                "finish": evaluation.finish,
                "energy": evaluation.energy,
                "compute_energy": evaluation.compute_energy,
                "comm_energy": comm_energy,
            }
            for key, value in expected.items():
                captured = getattr(candidate, key)
                if captured is None:
                    continue
                if abs(captured - value) > tolerance:
                    mismatches.append(
                        f"{decision.task}@PE{candidate.pe}: {key} captured "
                        f"{captured!r} != recomputed {value!r}"
                    )
            hops = sum(len(t.links) for t in evaluation.transfers)
            if candidate.hops is not None and candidate.hops != hops:
                mismatches.append(
                    f"{decision.task}@PE{candidate.pe}: hops captured "
                    f"{candidate.hops} != recomputed {hops}"
                )
        # Commit the chosen placement exactly as the scheduler did.
        evaluation = probed.get(decision.pe) or probe(
            tables, ctg, acg, placements, decision.task, decision.pe,
            contention_aware=contention_aware,
        )
        if evaluation is None:
            mismatches.append(f"{decision.task}: committed PE {decision.pe} is unusable")
            break  # later decisions depend on this placement
        start = commit(tables, placements, None, evaluation).start
        if abs(start - decision.start) > tolerance:
            mismatches.append(
                f"{decision.task}: committed start {decision.start!r} != "
                f"replayed {start!r}"
            )
    return mismatches
