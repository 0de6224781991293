"""Seeded Monte Carlo fault campaigns over a committed schedule.

A sweep schedules a benchmark once, generates ``n_plans`` single-event
fault plans with :func:`~repro.faults.plan.generate_fault_plans`
(horizon = the committed makespan, so every plan strikes mid-execution),
and runs :func:`~repro.faults.recovery.inject_and_recover` for each —
fanned out over the shared-nothing process pool when ``--jobs`` asks
for it.

The job protocol mirrors :mod:`repro.parallel.spec`: a worker receives a
:class:`FaultRunSpec` (benchmark seeds, the committed schedule and the
plan as serialized documents — never live objects), rebuilds everything
inside a fresh observability bundle, and ships back a
:class:`FaultRunResult` of plain deterministic numbers plus its metrics
registry and buffered ledger records.  The parent folds those in plan
order, so a sweep's report, counters and ledger are **byte-identical at
any job count** — the same contract the evalx grids honour.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.faults.plan import FAULT_KINDS, FaultPlan, generate_fault_plans
from repro.faults.recovery import UnsurvivableFaultError, inject_and_recover
from repro.obs.ledger import make_record
from repro.obs.metrics import MetricsRegistry
from repro.parallel.pool import pool_map
from repro.parallel.spec import BenchmarkSpec, run_scheduler
from repro.schedule.serialization import schedule_from_dict, schedule_to_dict


@dataclass(frozen=True)
class FaultRunSpec:
    """One pooled fault injection: plan + committed schedule, as documents."""

    benchmark: BenchmarkSpec
    scheduler: str
    plan_doc: Dict[str, Any]
    schedule_doc: Dict[str, Any]
    tag: str = ""
    ledger_run_id: Optional[str] = None


@dataclass
class FaultRunResult:
    """Deterministic per-plan outcome (no wall times in report fields)."""

    tag: str
    plan_name: str
    kind: str
    fault_time: float
    recovered: bool
    survived: bool
    reason: str = ""
    salvaged: int = 0
    rerun: int = 0
    remapped: int = 0
    misses_before: int = 0
    misses_after: int = 0
    tardiness_delta: float = 0.0
    energy_delta: float = 0.0
    makespan_delta: float = 0.0
    #: worker wall for the whole injection (telemetry only, never report).
    wall_seconds: float = 0.0
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    ledger_records: List[Dict[str, Any]] = field(default_factory=list)


def execute_fault_spec(spec: FaultRunSpec) -> FaultRunResult:
    """Worker entry: rebuild, inject, recover, summarize.

    Module-level so the pool pickles it by reference; equally valid
    in-process on the serial path.  An unsurvivable fault is a *result*
    (``recovered=False`` with the reason), not a worker crash.
    """
    wall_started = time.perf_counter()
    bundle = obs.Instrumentation.disabled()
    with obs.activate(bundle):
        ctg, acg = spec.benchmark.build()
        committed = schedule_from_dict(spec.schedule_doc, ctg, acg)
        plan = FaultPlan.from_dict(spec.plan_doc)
        try:
            recovery = inject_and_recover(committed, plan)
        except UnsurvivableFaultError as exc:
            result = FaultRunResult(
                tag=spec.tag,
                plan_name=plan.name,
                kind=plan.kind,
                fault_time=plan.fault_time,
                recovered=False,
                survived=False,
                reason=str(exc),
                misses_before=len(committed.deadline_misses()),
            )
        else:
            result = FaultRunResult(
                tag=spec.tag,
                plan_name=plan.name,
                kind=plan.kind,
                fault_time=recovery.fault_time,
                recovered=True,
                survived=recovery.survived,
                salvaged=len(recovery.salvaged),
                rerun=len(recovery.rerun),
                remapped=len(recovery.remapped),
                misses_before=recovery.misses_before,
                misses_after=recovery.misses_after,
                tardiness_delta=recovery.tardiness_delta,
                energy_delta=recovery.energy_delta,
                makespan_delta=recovery.makespan_delta,
            )
    result.wall_seconds = time.perf_counter() - wall_started
    result.metrics = bundle.metrics
    if spec.ledger_run_id is not None:
        result.ledger_records.append(
            make_record(
                "phase",
                spec.ledger_run_id,
                name="fault_plan",
                tag=spec.tag,
                plan=plan.name,
                kind=plan.kind,
                fault_time=result.fault_time,
                recovered=result.recovered,
                survived=result.survived,
                reason=result.reason,
                salvaged=result.salvaged,
                rerun=result.rerun,
                remapped=result.remapped,
                misses_before=result.misses_before,
                misses_after=result.misses_after,
                energy_delta=result.energy_delta,
                pid=os.getpid(),
                wall_seconds=result.wall_seconds,
            )
        )
    return result


@dataclass
class FaultSweepReport:
    """Campaign aggregate: survivability headline + per-plan rows."""

    benchmark: str
    scheduler: str
    seed: int
    n_plans: int
    committed_misses: int
    committed_energy: float
    committed_makespan: float
    rows: List[FaultRunResult] = field(default_factory=list)

    @property
    def recovered(self) -> int:
        return sum(1 for row in self.rows if row.recovered)

    @property
    def survived(self) -> int:
        return sum(1 for row in self.rows if row.survived)

    @property
    def survived_fraction(self) -> float:
        return self.survived / len(self.rows) if self.rows else 0.0

    def by_kind(self) -> Dict[str, Tuple[int, int]]:
        """Per fault kind: (plans, survived)."""
        out: Dict[str, Tuple[int, int]] = {}
        for row in self.rows:
            plans, survived = out.get(row.kind, (0, 0))
            out[row.kind] = (plans + 1, survived + (1 if row.survived else 0))
        return out

    def mean_energy_delta(self) -> float:
        recovered = [row.energy_delta for row in self.rows if row.recovered]
        return sum(recovered) / len(recovered) if recovered else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic document — no wall times, no pids."""
        return {
            "format": "repro-fault-sweep",
            "benchmark": self.benchmark,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "n_plans": self.n_plans,
            "committed": {
                "misses": self.committed_misses,
                "energy": round(self.committed_energy, 6),
                "makespan": round(self.committed_makespan, 6),
            },
            "recovered": self.recovered,
            "survived": self.survived,
            "survived_fraction": round(self.survived_fraction, 4),
            "mean_energy_delta": round(self.mean_energy_delta(), 6),
            "by_kind": {
                kind: {"plans": plans, "survived": survived}
                for kind, (plans, survived) in sorted(self.by_kind().items())
            },
            "plans": [
                {
                    "plan": row.plan_name,
                    "kind": row.kind,
                    "fault_time": round(row.fault_time, 6),
                    "recovered": row.recovered,
                    "survived": row.survived,
                    "reason": row.reason,
                    "salvaged": row.salvaged,
                    "rerun": row.rerun,
                    "remapped": row.remapped,
                    "misses_before": row.misses_before,
                    "misses_after": row.misses_after,
                    "tardiness_delta": round(row.tardiness_delta, 6),
                    "energy_delta": round(row.energy_delta, 6),
                    "makespan_delta": round(row.makespan_delta, 6),
                }
                for row in self.rows
            ],
        }

    def format_text(self) -> str:
        lines = [
            f"fault sweep: {self.benchmark} / {self.scheduler} "
            f"(seed {self.seed}, {self.n_plans} plans)",
            f"committed: misses={self.committed_misses} "
            f"energy={self.committed_energy:.3f} makespan={self.committed_makespan:.3f}",
            f"recovered {self.recovered}/{self.n_plans}, "
            f"survived {self.survived}/{self.n_plans} "
            f"({self.survived_fraction:.0%}); "
            f"mean energy delta {self.mean_energy_delta():+.3f} nJ",
        ]
        for kind, (plans, survived) in sorted(self.by_kind().items()):
            lines.append(f"  {kind:9s}: survived {survived}/{plans}")
        header = (
            f"  {'plan':<18s} {'kind':<9s} {'t':>8s} {'salv':>5s} {'rerun':>5s} "
            f"{'remap':>5s} {'miss':>9s} {'dE':>10s} {'verdict':<10s}"
        )
        lines.append(header)
        for row in self.rows:
            if row.recovered:
                verdict = "SURVIVED" if row.survived else "DEGRADED"
                miss = f"{row.misses_before}->{row.misses_after}"
                lines.append(
                    f"  {row.plan_name:<18s} {row.kind:<9s} {row.fault_time:>8.2f} "
                    f"{row.salvaged:>5d} {row.rerun:>5d} {row.remapped:>5d} "
                    f"{miss:>9s} {row.energy_delta:>+10.3f} {verdict:<10s}"
                )
            else:
                lines.append(
                    f"  {row.plan_name:<18s} {row.kind:<9s} {row.fault_time:>8.2f} "
                    f"{'-':>5s} {'-':>5s} {'-':>5s} {'-':>9s} {'-':>10s} UNSURVIVABLE"
                )
        return "\n".join(lines)


def run_fault_sweep(
    benchmark: BenchmarkSpec,
    scheduler: str = "eas",
    n_plans: int = 20,
    seed: int = 0,
    kinds: Sequence[str] = FAULT_KINDS,
    jobs: Optional[int] = None,
    ledger_run_id: Optional[str] = None,
) -> FaultSweepReport:
    """Schedule once, then inject ``n_plans`` seeded faults (pooled).

    The committed schedule and every plan travel to workers as JSON-safe
    documents; results come back in plan order and their telemetry is
    folded in that order, so the report is a pure function of
    ``(benchmark, scheduler, n_plans, seed, kinds)`` —
    independent of ``jobs``.
    """
    ins = obs.get()
    ledger = ins.ledger
    if ledger_run_id is None and ledger is not None:
        ledger_run_id = ledger.run_id
    with ins.tracer.span(
        "faults.sweep", n_plans=n_plans, seed=seed, scheduler=scheduler
    ):
        ctg, acg = benchmark.build()
        committed = run_scheduler(scheduler, ctg, acg)
        committed.validate_structure()
        plans = generate_fault_plans(
            acg, n_plans, seed=seed, horizon=committed.makespan(), kinds=kinds
        )
        schedule_doc = schedule_to_dict(committed)
        specs = [
            FaultRunSpec(
                benchmark=benchmark,
                scheduler=scheduler,
                plan_doc=plan.to_dict(),
                schedule_doc=schedule_doc,
                tag=plan.name,
                ledger_run_id=ledger_run_id,
            )
            for plan in plans
        ]

        def _finalize(result: FaultRunResult) -> None:
            ins.metrics.merge(result.metrics)
            if ledger is not None:
                ledger.absorb(result.ledger_records)

        results = pool_map(
            execute_fault_spec,
            specs,
            jobs=jobs,
            label="faults.sweep.pool",
            finalize=_finalize,
        )

        report = FaultSweepReport(
            benchmark=ctg.name,
            scheduler=scheduler,
            seed=seed,
            n_plans=len(plans),
            committed_misses=len(committed.deadline_misses()),
            committed_energy=committed.total_energy(),
            committed_makespan=committed.makespan(),
            rows=results,
        )
    return report
