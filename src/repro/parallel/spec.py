"""The shared-nothing job protocol: :class:`RunSpec` in, :class:`RunResult` out.

A worker process never receives live scheduler state.  It receives a
*spec* — a picklable description of how to **construct** the run from
explicit seeds (generator category/index, ACG preset name + shuffle
seed, scheduler id) — builds the benchmark from scratch inside a fresh
observability bundle, runs the
scheduler, and ships back a :class:`RunResult`: the schedule summary
numbers plus the worker's whole :class:`MetricsRegistry`, its tracer
records and its decision provenance.  The parent folds those into its
own bundle (``MetricsRegistry.merge`` / ``Tracer.absorb``) in
deterministic grid order, so pooled telemetry aggregates exactly like a
serial run's.

Determinism contract: everything a spec influences must derive from the
spec's explicit seeds.  Nothing in this module reads global
``random`` state, the clock (beyond wall-time measurement), or the
parent's instrumentation — that is what makes ``jobs=N`` output
byte-identical to ``jobs=1``.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.ledger import make_record
from repro.arch.acg import ACG
from repro.arch.presets import mesh_2x2, mesh_3x3, mesh_4x4, mesh_5x5, mesh_6x6
from repro.baselines.edf import edf_schedule
from repro.core.eas import eas_base_schedule, eas_schedule
from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG
from repro.ctg.multimedia import av_decoder_ctg, av_encoder_ctg, av_integrated_ctg
from repro.obs.decisions import TaskDecision
from repro.obs.metrics import MetricsRegistry
from repro.obs.utilization import analyze_schedule
from repro.schedule.schedule import Schedule
from repro.schedule.serialization import schedule_to_dict

#: ACG presets addressable by name (names are what travels in a spec).
ACG_PRESETS = {
    "mesh_2x2": mesh_2x2,
    "mesh_3x3": mesh_3x3,
    "mesh_4x4": mesh_4x4,
    "mesh_5x5": mesh_5x5,
    "mesh_6x6": mesh_6x6,
}

#: MSB system -> (CTG builder, ACG preset name), mirrors the paper's setups.
MSB_SYSTEMS = {
    "encoder": (av_encoder_ctg, "mesh_2x2"),
    "decoder": (av_decoder_ctg, "mesh_2x2"),
    "integrated": (av_integrated_ctg, "mesh_3x3"),
}


def run_scheduler(name: str, ctg: CTG, acg: ACG) -> Schedule:
    """The canonical scheduler dispatch shared by evalx and the pool."""
    if name == "eas":
        return eas_schedule(ctg, acg)
    if name == "eas-base":
        return eas_base_schedule(ctg, acg)
    if name == "edf":
        return edf_schedule(ctg, acg)
    raise ValueError(f"unknown scheduler {name!r}")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A picklable recipe for (CTG, ACG) — seeds, never live objects.

    ``kind="random"`` names a generated suite member (category, index,
    n_tasks, base_seed — exactly :func:`generate_category`'s arguments);
    ``kind="msb"`` names a multimedia system + clip.  The ACG comes from
    a preset name plus an explicit shuffle seed.
    """

    kind: str  # "random" | "msb"
    acg_preset: str = "mesh_4x4"
    shuffle_seed: Optional[int] = None
    # random-suite fields
    category: int = 1
    index: int = 0
    n_tasks: int = 150
    base_seed: int = 42
    # msb fields
    system: str = "encoder"
    clip: str = "foreman"

    def build(self) -> Tuple[CTG, ACG]:
        """Construct the benchmark from seeds (called inside the worker)."""
        if self.kind == "random":
            ctg = generate_category(
                self.category, self.index, n_tasks=self.n_tasks, base_seed=self.base_seed
            )
        elif self.kind == "msb":
            try:
                build_ctg, _preset = MSB_SYSTEMS[self.system]
            except KeyError:
                raise ValueError(
                    f"unknown MSB system {self.system!r}; known: {sorted(MSB_SYSTEMS)}"
                ) from None
            ctg = build_ctg(self.clip)
        else:
            raise ValueError(f"unknown benchmark kind {self.kind!r}")
        try:
            preset = ACG_PRESETS[self.acg_preset]
        except KeyError:
            raise ValueError(
                f"unknown ACG preset {self.acg_preset!r}; known: {sorted(ACG_PRESETS)}"
            ) from None
        if self.shuffle_seed is not None:
            acg = preset(shuffle_seed=self.shuffle_seed)
        else:
            acg = preset()
        return ctg, acg

    @property
    def row_name(self) -> str:
        """The table row label evalx uses (clip name for MSB tables)."""
        if self.kind == "msb":
            return self.clip
        return f"cat{self.category}-{self.index}"


@dataclass(frozen=True)
class RunSpec:
    """One pooled job: schedule ``benchmark`` with ``scheduler``."""

    scheduler: str
    benchmark: BenchmarkSpec
    #: ship tracer spans/events and decision provenance back (set by the
    #: dispatcher when the parent bundle records; costs pickling only).
    record: bool = False
    #: grid-cell identifier, for labels and error reports.
    tag: str = ""
    #: the parent CLI run's ledger run id (set by the dispatcher when a
    #: run ledger is active): the worker buffers one ``phase`` record per
    #: cell under this id and ships it home in ``RunResult``.
    ledger_run_id: Optional[str] = None
    #: ship the full committed schedule back as a serialized document
    #: (set by ``repro-noc diff`` when both endpoints are computed
    #: in-process); costs one ``schedule_to_dict`` per cell.
    return_schedule: bool = False


@dataclass
class RunResult:
    """What a worker ships back: summary numbers + telemetry snapshot."""

    tag: str
    benchmark: str  # the built CTG's name
    scheduler: str
    energy: float
    misses: int
    #: scheduler-phase wall time measured *inside the worker* (the
    #: ``timed_phase`` stamp on ``Schedule.runtime_seconds``) — never the
    #: parent's dispatch time, so TXT-RT overhead numbers stay honest.
    runtime_seconds: float
    #: total worker wall for the cell (build + schedule + analytics).
    wall_seconds: float
    comp_energy: float
    comm_energy: float
    hops: float
    peakpe: float
    cwait: float
    #: counter values at the exact point serial ``_compare`` takes its
    #: per-run delta (after validation, before utilization analytics).
    headline_counters: Dict[str, float] = field(default_factory=dict)
    #: the worker's whole registry, for ``MetricsRegistry.merge``.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: tracer records (``Tracer.export_records`` payload) when recording.
    trace: Optional[Dict[str, List[Dict[str, Any]]]] = None
    #: decision provenance records when recording.
    decisions: List[TaskDecision] = field(default_factory=list)
    #: buffered run-ledger records (plain dicts) for the parent to
    #: append in grid order — the worker never touches the ledger file.
    ledger_records: List[Dict[str, Any]] = field(default_factory=list)
    #: serialized schedule document (``schedule_to_dict``) when the spec
    #: asked for it; the parent rebuilds with ``schedule_from_dict``
    #: against a locally-built CTG/ACG pair — the roundtrip is
    #: float-exact, so diffing pooled results equals diffing in-process.
    schedule_doc: Optional[Dict[str, Any]] = None


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec inside a fresh observability bundle (worker entry).

    This is the pool's target callable — module-level so it pickles by
    reference — but it is equally valid in-process: the serial fallback
    path of :func:`repro.parallel.pool.parallel_map` calls it directly.
    """
    wall_started = time.perf_counter()
    bundle = obs.Instrumentation.enabled() if spec.record else obs.Instrumentation.disabled()
    with obs.activate(bundle):
        ctg, acg = spec.benchmark.build()
        schedule = run_scheduler(spec.scheduler, ctg, acg)
        schedule.validate_structure()
        headline_counters = bundle.metrics.counter_values()
        report = analyze_schedule(schedule)
        report.register(bundle.metrics, prefix=f"util.{spec.scheduler}.")
    ledger_records: List[Dict[str, Any]] = []
    if spec.ledger_run_id is not None:
        # One ``phase`` cell record per spec, under the *parent's* run
        # id: the ledger reconstructs the whole grid — which cell, its
        # exact construction seeds, which worker pid ran it and how long
        # it took — without workers ever opening the ledger file.
        ledger_records.append(
            make_record(
                "phase",
                spec.ledger_run_id,
                name="cell",
                tag=spec.tag,
                scheduler=spec.scheduler,
                benchmark=ctg.name,
                spec=asdict(spec.benchmark),
                pid=os.getpid(),
                runtime_seconds=schedule.runtime_seconds,
                wall_seconds=time.perf_counter() - wall_started,
                energy=schedule.total_energy(),
                misses=len(schedule.deadline_misses()),
            )
        )
    return RunResult(
        tag=spec.tag,
        benchmark=ctg.name,
        scheduler=spec.scheduler,
        energy=schedule.total_energy(),
        misses=len(schedule.deadline_misses()),
        runtime_seconds=schedule.runtime_seconds,
        wall_seconds=time.perf_counter() - wall_started,
        comp_energy=schedule.computation_energy(),
        comm_energy=schedule.communication_energy(),
        hops=schedule.average_hops_per_packet(),
        peakpe=round(report.peak_pe_utilization, 3),
        cwait=round(report.total_contention_wait, 1),
        headline_counters=headline_counters,
        metrics=bundle.metrics,
        trace=bundle.tracer.export_records() if spec.record else None,
        decisions=list(bundle.decisions) if spec.record else [],
        ledger_records=ledger_records,
        schedule_doc=schedule_to_dict(schedule) if spec.return_schedule else None,
    )
