"""Experiment runners regenerating every table and figure of the paper.

Each ``run_*`` function reproduces one evaluation artefact:

========  =============================================================
FIG5      energy of EAS-base / EAS / EDF on 10 category-I random graphs
FIG6      same on 10 category-II random graphs (tighter deadlines)
TAB1-3    A/V encoder / decoder / integrated MSB energies per clip
FIG7      energy vs unified performance ratio on the integrated MSB
TXT-RT    search-and-repair runtime overhead
========  =============================================================

Absolute joules differ from the paper (different profiled constants);
the reproduced quantities are the *relationships*: who wins, by what
factor, and how the gap moves with deadline tightness.

Scale: the paper's random graphs have ~500 tasks.  The default here is
150 tasks (minutes-to-seconds difference under pytest); set the
environment variable ``REPRO_FULL=1`` — or pass ``n_tasks=500`` — to run
the paper-scale configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.arch.presets import mesh_2x2, mesh_3x3, mesh_4x4
from repro.core.eas import eas_base_schedule
from repro.core.repair import RepairReport, search_and_repair
from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG
from repro.ctg.multimedia import CLIP_NAMES, av_decoder_ctg, av_encoder_ctg, av_integrated_ctg
from repro.obs.utilization import analyze_schedule
from repro.parallel.pool import parallel_map, resolve_jobs
from repro.parallel.spec import BenchmarkSpec, RunResult, RunSpec, run_scheduler
from repro.schedule.schedule import Schedule

#: Number of random benchmarks per category, as in the paper.
N_RANDOM_BENCHMARKS = 10


def default_n_tasks() -> int:
    """150 tasks by default, 500 (paper scale) under ``REPRO_FULL=1``."""
    return 500 if os.environ.get("REPRO_FULL") == "1" else 150


@dataclass
class ExperimentRow:
    """One benchmark's outcome across the compared schedulers."""

    benchmark: str
    energies: Dict[str, float]
    misses: Dict[str, int]
    runtimes: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    #: per-scheduler observability counters (e.g. ``"eas:evals"``),
    #: captured as deltas of the active obs metrics registry per run.
    metrics: Dict[str, float] = field(default_factory=dict)

    def ratio(self, numerator: str, denominator: str) -> float:
        return self.energies[numerator] / self.energies[denominator]

    def savings_pct(self, better: str, worse: str) -> float:
        """Paper-style savings: 100 * (worse - better) / worse."""
        return 100.0 * (self.energies[worse] - self.energies[better]) / self.energies[worse]


@dataclass
class FigureSeries:
    """An x-axis plus one named y-series per scheduler (a line plot)."""

    x_label: str
    x_values: List[float]
    series: Dict[str, List[float]]


# -- Fig. 5 / Fig. 6: random benchmark suites -----------------------------------


def run_random_category(
    category: int,
    n_benchmarks: int = N_RANDOM_BENCHMARKS,
    n_tasks: Optional[int] = None,
    schedulers: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> List[ExperimentRow]:
    """The Sec. 6.1 experiment for one category of random benchmarks.

    Compares ``eas-base`` (no repair), ``eas`` (with repair) and ``edf``
    on a 4x4 heterogeneous mesh, exactly the paper's setup.  ``jobs`` > 1
    fans the (benchmark x scheduler) grid out over a process pool
    (``None``/``0`` defers to ``REPRO_JOBS``; 1 keeps the serial
    reference path); rows come back in grid order with identical
    contents either way.
    """
    n_tasks = n_tasks if n_tasks is not None else default_n_tasks()
    wanted = tuple(schedulers) if schedulers else ("eas-base", "eas", "edf")
    if resolve_jobs(jobs) > 1:
        specs = [
            RunSpec(
                scheduler=name,
                benchmark=BenchmarkSpec(
                    kind="random",
                    category=category,
                    index=index,
                    n_tasks=n_tasks,
                    acg_preset="mesh_4x4",
                    shuffle_seed=100 + index,
                ),
                tag=f"cat{category}[{index}]:{name}",
            )
            for index in range(n_benchmarks)
            for name in wanted
        ]
        rows = _rows_from_results(parallel_map(specs, jobs=jobs), wanted)
        if progress is not None:
            for index, row in enumerate(rows):
                progress(f"cat{category} benchmark {index}: " + _row_brief(row))
        return rows
    rows: List[ExperimentRow] = []
    for index in range(n_benchmarks):
        ctg = generate_category(category, index, n_tasks=n_tasks)
        acg = mesh_4x4(shuffle_seed=100 + index)
        row = _compare(ctg, acg, wanted)
        rows.append(row)
        if progress is not None:
            progress(f"cat{category} benchmark {index}: " + _row_brief(row))
    return rows


def run_fig5(**kwargs) -> List[ExperimentRow]:
    """Fig. 5: category-I comparison (loose deadlines)."""
    return run_random_category(1, **kwargs)


def run_fig6(**kwargs) -> List[ExperimentRow]:
    """Fig. 6: category-II comparison (tight deadlines)."""
    return run_random_category(2, **kwargs)


# -- Tables 1-3: multimedia system benchmarks ----------------------------------

_MSB_BUILDERS: Dict[str, Tuple[Callable[[str], CTG], Callable[[], ACG]]] = {
    "encoder": (av_encoder_ctg, mesh_2x2),
    "decoder": (av_decoder_ctg, mesh_2x2),
    "integrated": (av_integrated_ctg, mesh_3x3),
}


#: MSB system -> ACG preset name, for the pooled (picklable) spec path.
_MSB_ACG_PRESETS = {"encoder": "mesh_2x2", "decoder": "mesh_2x2", "integrated": "mesh_3x3"}


def run_msb_table(
    system: str,
    clips: Sequence[str] = CLIP_NAMES,
    schedulers: Sequence[str] = ("eas", "edf"),
    jobs: Optional[int] = None,
) -> List[ExperimentRow]:
    """Tables 1-3: one row per clip for the chosen multimedia system.

    ``system`` is ``"encoder"`` (Table 1, 24 tasks, 2x2), ``"decoder"``
    (Table 2, 16 tasks, 2x2) or ``"integrated"`` (Table 3, 40 tasks,
    3x3).  Rows carry the computation/communication split and average
    hops per packet, reproducing the Sec. 6.2 textual statistics.
    ``jobs`` > 1 pools the (clip x scheduler) grid; 1 (the default
    resolution) is the serial reference path.
    """
    try:
        build_ctg, build_acg = _MSB_BUILDERS[system]
    except KeyError:
        raise ValueError(f"unknown MSB system {system!r}; known: {sorted(_MSB_BUILDERS)}") from None
    wanted = tuple(schedulers)
    if resolve_jobs(jobs) > 1:
        specs = [
            RunSpec(
                scheduler=name,
                benchmark=BenchmarkSpec(
                    kind="msb",
                    system=system,
                    clip=clip,
                    acg_preset=_MSB_ACG_PRESETS[system],
                ),
                tag=f"{system}[{clip}]:{name}",
            )
            for clip in clips
            for name in wanted
        ]
        return _rows_from_results(
            parallel_map(specs, jobs=jobs), wanted, row_names=list(clips)
        )
    rows = []
    for clip in clips:
        ctg = build_ctg(clip)
        acg = build_acg()
        row = _compare(ctg, acg, wanted, benchmark_name=clip)
        rows.append(row)
    return rows


# -- Fig. 7: performance/energy trade-off ----------------------------------------


def run_fig7(
    ratios: Sequence[float] = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6),
    clip: str = "foreman",
    schedulers: Sequence[str] = ("eas", "edf"),
) -> FigureSeries:
    """Fig. 7: energy vs required performance on the integrated MSB.

    A unified performance ratio ``r`` raises both the encoding and the
    decoding rate by ``r`` — i.e. divides every deadline by ``r`` — and
    the schedule energy is recorded per scheduler.  A ``float('nan')``
    entry marks a point where a scheduler could not meet the deadlines
    even after repair.
    """
    series: Dict[str, List[float]] = {name: [] for name in schedulers}
    for ratio in ratios:
        ctg = av_integrated_ctg(
            clip,
            encoder_deadline_scale=1.0 / ratio,
            decoder_deadline_scale=1.0 / ratio,
        )
        acg = mesh_3x3()
        ledger = obs.get().ledger
        for name in schedulers:
            schedule = run_scheduler(name, ctg, acg)
            energy = schedule.total_energy()
            if schedule.deadline_misses():
                energy = float("nan")
            series[name].append(energy)
            if ledger is not None:
                ledger.phase(
                    "cell",
                    tag=f"fig7[{ratio:g}]:{name}",
                    scheduler=name,
                    benchmark=ctg.name,
                    runtime_seconds=schedule.runtime_seconds,
                    energy=schedule.total_energy(),
                    misses=len(schedule.deadline_misses()),
                )
    return FigureSeries(
        x_label="unified performance ratio",
        x_values=list(ratios),
        series=series,
    )


# -- Sec. 6.1 runtime discussion ---------------------------------------------------


def run_repair_runtime(
    category: int = 2,
    n_benchmarks: int = N_RANDOM_BENCHMARKS,
    n_tasks: Optional[int] = None,
    deadline_scale: float = 1.0,
    repair: Optional[Callable[[Schedule], Tuple[Schedule, RepairReport]]] = None,
) -> List[ExperimentRow]:
    """Runtime overhead of search-and-repair on the miss-y benchmarks.

    Reproduces the Sec. 6.1 observation that repair fixes all misses at
    negligible energy cost but measurably longer scheduler runtime.
    Only benchmarks where EAS-base actually misses produce a row.

    ``deadline_scale`` < 1 tightens every deadline by that factor — the
    guaranteed-miss preset knob (at the default scale whole suites can
    be schedulable, and this experiment silently produces no rows).
    ``repair`` replaces :func:`~repro.core.repair.search_and_repair` as
    the Step-3 implementation timed, so callers can A/B it against the
    paper-literal reference (``repro.core.reference.reference_repair``)
    on identical inputs.
    """
    n_tasks = n_tasks if n_tasks is not None else default_n_tasks()
    rows: List[ExperimentRow] = []
    for index in range(n_benchmarks):
        ctg = generate_category(category, index, n_tasks=n_tasks)
        if deadline_scale != 1.0:
            ctg = ctg.with_scaled_deadlines(deadline_scale)
        acg = mesh_4x4(shuffle_seed=100 + index)
        base = eas_base_schedule(ctg, acg)
        if not base.deadline_misses():
            continue
        with obs.timed_phase("repair_runtime.repair", ctg=ctg.name) as timing:
            repaired, report = (repair or search_and_repair)(base)
        repair_seconds = timing.seconds
        rows.append(
            ExperimentRow(
                benchmark=ctg.name,
                energies={"eas-base": base.total_energy(), "eas": repaired.total_energy()},
                misses={
                    "eas-base": len(base.deadline_misses()),
                    "eas": len(repaired.deadline_misses()),
                },
                runtimes={
                    "eas-base": base.runtime_seconds,
                    "eas": base.runtime_seconds + repair_seconds,
                },
                extras={
                    "swaps_accepted": report.swaps_accepted,
                    "migrations_accepted": report.migrations_accepted,
                },
            )
        )
    return rows


# -- diff support ---------------------------------------------------------------------


def schedules_for_specs(
    specs: Sequence[RunSpec], jobs: Optional[int] = None
) -> List[Schedule]:
    """Run ``specs`` (pooled via ``jobs``) and return the full schedules.

    The engine behind in-process ``repro-noc diff`` endpoints: each spec
    is forced to record decision provenance and ship its committed
    schedule home as a serialized document; the parent rebuilds it
    against a locally-built CTG/ACG pair.  The serialize/rebuild
    roundtrip is float-exact and the rebuild order is spec order, so
    ``jobs=2`` yields schedules identical to ``jobs=1``.
    """
    from dataclasses import replace

    from repro.schedule.serialization import schedule_from_dict

    prepared = [replace(spec, record=True, return_schedule=True) for spec in specs]
    results = parallel_map(prepared, jobs=jobs)
    schedules: List[Schedule] = []
    for spec, result in zip(prepared, results):
        if result.schedule_doc is None:
            raise ValueError(f"spec {spec.tag!r} returned no schedule document")
        ctg, acg = spec.benchmark.build()
        schedule = schedule_from_dict(result.schedule_doc, ctg, acg)
        if not schedule.provenance and result.decisions:
            schedule.provenance = list(result.decisions)
        schedules.append(schedule)
    return schedules


# -- shared helpers -------------------------------------------------------------------


def _rows_from_results(
    results: Sequence[RunResult],
    schedulers: Tuple[str, ...],
    row_names: Optional[Sequence[str]] = None,
) -> List[ExperimentRow]:
    """Reassemble pooled per-cell results into serial-identical rows.

    ``results`` is the flat grid in (benchmark-major, scheduler-minor)
    spec order; every group of ``len(schedulers)`` cells becomes one
    :class:`ExperimentRow` with the same dict key order, rounding and
    metric columns the serial ``_compare`` produces.  ``row_names``
    overrides the benchmark label per row (the MSB tables label rows by
    clip, not by CTG name).
    """
    width = len(schedulers)
    if width == 0 or len(results) % width:
        raise ValueError(
            f"result grid of {len(results)} cells does not tile {width} schedulers"
        )
    rows: List[ExperimentRow] = []
    for start in range(0, len(results), width):
        cells = results[start : start + width]
        energies: Dict[str, float] = {}
        misses: Dict[str, int] = {}
        runtimes: Dict[str, float] = {}
        extras: Dict[str, float] = {}
        metrics: Dict[str, float] = {}
        for name, cell in zip(schedulers, cells):
            if cell.scheduler != name:
                raise ValueError(
                    f"grid cell {cell.tag!r} is {cell.scheduler!r}, expected {name!r}"
                )
            energies[name] = cell.energy
            misses[name] = cell.misses
            runtimes[name] = cell.runtime_seconds
            extras[f"{name}:comp"] = cell.comp_energy
            extras[f"{name}:comm"] = cell.comm_energy
            extras[f"{name}:hops"] = cell.hops
            metrics.update(_headline_metrics(name, {}, cell.headline_counters))
            metrics[f"{name}:peakpe"] = cell.peakpe
            metrics[f"{name}:cwait"] = cell.cwait
        benchmark = cells[0].benchmark
        if row_names is not None:
            benchmark = row_names[start // width]
        rows.append(
            ExperimentRow(
                benchmark=benchmark,
                energies=energies,
                misses=misses,
                runtimes=runtimes,
                extras=extras,
                metrics=metrics,
            )
        )
    return rows


def _compare(
    ctg: CTG,
    acg: ACG,
    schedulers: Tuple[str, ...],
    benchmark_name: Optional[str] = None,
) -> ExperimentRow:
    registry = obs.get().metrics
    energies: Dict[str, float] = {}
    misses: Dict[str, int] = {}
    runtimes: Dict[str, float] = {}
    extras: Dict[str, float] = {}
    metrics: Dict[str, float] = {}
    ledger = obs.get().ledger
    for name in schedulers:
        before = registry.counter_values()
        schedule = run_scheduler(name, ctg, acg)
        schedule.validate_structure()
        energies[name] = schedule.total_energy()
        misses[name] = len(schedule.deadline_misses())
        runtimes[name] = schedule.runtime_seconds
        if ledger is not None:
            # Mirror of the pooled per-cell record (see execute_spec):
            # the ledger reconstructs serial grids cell by cell too.
            ledger.phase(
                "cell",
                tag=f"{benchmark_name or ctg.name}:{name}",
                scheduler=name,
                benchmark=ctg.name,
                runtime_seconds=schedule.runtime_seconds,
                energy=energies[name],
                misses=misses[name],
            )
        extras[f"{name}:comp"] = schedule.computation_energy()
        extras[f"{name}:comm"] = schedule.communication_energy()
        extras[f"{name}:hops"] = schedule.average_hops_per_packet()
        metrics.update(_headline_metrics(name, before, registry.counter_values()))
        # Per-resource analytics: peak PE load and link contention wait,
        # as table columns and as ``util.<scheduler>.*`` gauges.
        report = analyze_schedule(schedule)
        report.register(registry, prefix=f"util.{name}.")
        metrics[f"{name}:peakpe"] = round(report.peak_pe_utilization, 3)
        metrics[f"{name}:cwait"] = round(report.total_contention_wait, 1)
    return ExperimentRow(
        benchmark=benchmark_name or ctg.name,
        energies=energies,
        misses=misses,
        runtimes=runtimes,
        extras=extras,
        metrics=metrics,
    )


def _headline_metrics(
    scheduler: str, before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Per-run counter deltas condensed to the reporting columns.

    ``<scheduler>:evals`` sums every ``*.evaluations`` counter the run
    incremented; ``<scheduler>:moves`` sums accepted repair moves;
    ``<scheduler>:hits`` is the evaluation-cache hit count (0 for
    non-EAS schedulers).
    """
    delta = {key: after[key] - before.get(key, 0.0) for key in after}
    return {
        f"{scheduler}:evals": sum(
            value for key, value in delta.items() if key.endswith(".evaluations")
        ),
        f"{scheduler}:moves": delta.get("repair.lts_moves", 0.0)
        + delta.get("repair.gtm_moves", 0.0),
        f"{scheduler}:hits": delta.get("eas.cache_hits", 0.0),
    }


def _row_brief(row: ExperimentRow) -> str:
    parts = [f"{name}={energy:.3e}" for name, energy in row.energies.items()]
    miss = ", ".join(f"{name}:{n}" for name, n in row.misses.items() if n)
    return " ".join(parts) + (f" misses[{miss}]" if miss else "")


def average_extra_energy_pct(rows: Sequence[ExperimentRow], worse: str, better: str) -> float:
    """Paper headline metric: mean of ``(worse/better - 1) * 100`` over rows."""
    ratios = [row.ratio(worse, better) for row in rows]
    return 100.0 * (sum(ratios) / len(ratios) - 1.0)
