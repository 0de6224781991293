"""COMMSCHED — version-keyed path-table cache vs literal per-probe merges.

Every F(i,k) evaluation probes the earliest free slot on a whole XY
route, which used to mean re-merging the committed busy lists of every
link on the path (plus the overlay's tentative extras) from scratch for
every transaction of every candidate PE.  The path-table cache
(``src/repro/schedule/overlay.py``) memoizes each route's merged
committed list keyed by its link-table version counters, and probes
whose ready time clears every link horizon skip merging entirely.

This bench runs full ``eas_schedule`` passes against the paper-literal
reference scheduler (``src/repro/core/reference.py``, which has neither
the path cache nor the evaluation cache) on category-1 presets over
mesh_5x5 and mesh_6x6, asserts the two produce bit-identical schedules,
and records the interval-merge work (``comm.merge_intervals`` — total
intervals fed through ``merge_busy``) into ``BENCH_commsched.json``.

Gates (CI runs ``test_commsched_smoke`` under ``--bench-check``):

* merged-interval work must drop >= ``MIN_MERGE_RATIO`` (2x) — a
  deterministic operation count, never waived;
* scheduler wall time must not regress (``MIN_WALL_SPEEDUP``) — waived
  on single-CPU hosts, where timing is too noisy to gate.
"""

import os
import time
from typing import Any, Dict

from repro import obs
from repro.arch.presets import mesh_5x5, mesh_6x6
from repro.core.eas import eas_schedule
from repro.core.reference import reference_eas_schedule
from repro.ctg.generator import generate_category
from repro.schedule.serialization import schedule_to_json

from benchmarks.conftest import run_once

#: (label, mesh factory, benchmark index, task count).
POINTS = [
    ("mesh5x5-100t", mesh_5x5, 0, 100),
    ("mesh6x6-160t", mesh_6x6, 0, 160),
]

SMOKE_POINT = ("mesh5x5-smoke", mesh_5x5, 0, 60)

MIN_MERGE_RATIO = 2.0
MIN_WALL_SPEEDUP = 1.0


def _run_variant(ctg, acg, scheduler):
    """One full EAS pass; returns (json, wall, metrics)."""
    bundle = obs.Instrumentation.disabled()
    with obs.activate(bundle):
        started = time.perf_counter()
        schedule = scheduler(ctg, acg)
        wall = time.perf_counter() - started
    # The serialization embeds the driver's wall-clock stamp; zero it so
    # the bit-identity assert compares only the scheduling decisions.
    schedule.runtime_seconds = 0.0
    return schedule_to_json(schedule), wall, bundle.metrics


def _commsched_point(mesh, index: int, n_tasks: int) -> Dict[str, Any]:
    ctg = generate_category(1, index, n_tasks=n_tasks)
    acg = mesh()

    literal_json, literal_wall, literal_metrics = _run_variant(ctg, acg, reference_eas_schedule)
    cached_json, cached_wall, cached_metrics = _run_variant(ctg, acg, eas_schedule)

    # Exactness before speed: the cache must be invisible in the output.
    assert cached_json == literal_json, "path-table cache changed the schedule"

    merged_literal = literal_metrics.counter("comm.merge_intervals").value
    merged_cached = cached_metrics.counter("comm.merge_intervals").value
    hits = cached_metrics.counter("comm.path_cache_hits").value
    misses = cached_metrics.counter("comm.path_cache_misses").value
    return {
        "tasks": n_tasks,
        "pes": acg.n_pes,
        "link_probes": cached_metrics.counter("comm.link_probes").value,
        "merged_literal": merged_literal,
        "merged_cached": merged_cached,
        "merge_ratio": round(merged_literal / max(merged_cached, 1.0), 2),
        "path_cache_hits": hits,
        "path_cache_misses": misses,
        "hit_rate_pct": round(100.0 * hits / max(hits + misses, 1.0), 1),
        "horizon_fast_path": cached_metrics.counter("comm.horizon_fast_path").value,
        "wall_literal_s": round(literal_wall, 4),
        "wall_cached_s": round(cached_wall, 4),
        "wall_speedup": round(literal_wall / cached_wall, 2),
        "misses": 0,
    }


def _describe(points: Dict[str, Dict[str, Any]]) -> str:
    lines = ["COMMSCHED: production EAS vs the paper-literal reference (per-probe merges)"]
    for label, p in points.items():
        lines.append(
            f"  {label}: {p['link_probes']:.0f} probes, merged intervals "
            f"{p['merged_literal']:.0f} -> {p['merged_cached']:.0f} "
            f"(x{p['merge_ratio']:.2f}), hit rate {p['hit_rate_pct']:.1f}%, "
            f"{p['horizon_fast_path']:.0f} horizon skips, wall "
            f"{p['wall_literal_s']:.3f} -> {p['wall_cached_s']:.3f} s "
            f"(x{p['wall_speedup']:.2f})"
        )
    return "\n".join(lines)


def _check_gates(point: Dict[str, Any]) -> None:
    # The merge-work gate is a deterministic op count — never waived.
    assert point["merge_ratio"] >= MIN_MERGE_RATIO, (
        f"merged-interval reduction {point['merge_ratio']}x below "
        f"{MIN_MERGE_RATIO}x floor"
    )
    # The wall gate needs believable timing; waive on 1-CPU runners.
    if (os.cpu_count() or 1) > 1:
        assert point["wall_speedup"] >= MIN_WALL_SPEEDUP, (
            f"comm scheduler wall speedup {point['wall_speedup']}x below "
            f"{MIN_WALL_SPEEDUP}x floor"
        )


def test_commsched(benchmark, show):
    """Both mesh presets, gates enforced on each."""

    def experiment():
        points = {
            label: _commsched_point(mesh, index, n)
            for label, mesh, index, n in POINTS
        }
        show(_describe(points))
        for point in points.values():
            _check_gates(point)
        flat: Dict[str, Any] = {
            f"{label}.{k}": v for label, p in points.items() for k, v in p.items()
        }
        flat["misses"] = points[POINTS[0][0]]["misses"]
        return flat

    run_once(benchmark, experiment)


def test_commsched_smoke(benchmark, show):
    """Small fast point for quick local runs and CI; merge gate applies."""

    def experiment():
        label, mesh, index, n_tasks = SMOKE_POINT
        point = _commsched_point(mesh, index, n_tasks)
        show(_describe({label: point}))
        assert point["merge_ratio"] >= MIN_MERGE_RATIO
        return point

    run_once(benchmark, experiment)
