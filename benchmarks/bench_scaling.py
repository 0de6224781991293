"""SCALING — evaluation-engine cost beyond paper scale.

The paper's Step 2 recomputes every F(i,k) each RTL iteration; the
incremental evaluation cache (see ``src/repro/core/eas.py``) makes that
cost proportional to what a commit actually dirties, and the
energy-ordered walk probes only the PEs the selection rules need.  This
bench runs
production EAS against the paper-literal reference scheduler
(``src/repro/core/reference.py``: no evaluation cache, no path cache,
full rebuilds in repair) on generated CTGs of ~50/100/200 tasks mapped
onto growing meshes (4x4 -> 6x6), checks the two agree exactly, and
records the speedup trajectory — Fig. 3 evaluation counts, wall times,
ratios — into ``BENCH_scaling.json`` via the benchstore.

``test_scaling_smoke`` is the CI gate: the smallest size only, run with
``--bench-check`` so a >10 % median wall-time regression of the cached
engine fails the build.
"""

import time
from typing import Any, Dict

from repro import obs
from repro.arch.presets import mesh_4x4, mesh_5x5, mesh_6x6
from repro.core.eas import eas_schedule
from repro.core.reference import reference_eas_schedule
from repro.ctg.generator import generate_category

from benchmarks.conftest import run_once

#: (label, task count, platform builder) per scaling point.
SIZES = [
    ("50", 50, mesh_4x4),
    ("100", 100, mesh_5x5),
    ("200", 200, mesh_6x6),
]

#: acceptance floor at the 200-task point: the evaluation cache and the
#: energy-ordered walk must cut full Fig. 3 evaluations by at least
#: this factor.
MIN_EVAL_RATIO_AT_200 = 10.0


def _run_variant(ctg, acg, scheduler):
    """One full-EAS run; returns (schedule, evaluations, wall seconds)."""
    ins = obs.Instrumentation.disabled()
    with obs.activate(ins):
        started = time.perf_counter()
        schedule = scheduler(ctg, acg)
        wall = time.perf_counter() - started
    return schedule, ins.metrics.counter("eas.evaluations").value, wall


def _scaling_point(label: str, n_tasks: int, mesh) -> Dict[str, Any]:
    ctg = generate_category(1, 0, n_tasks=n_tasks)
    acg = mesh(shuffle_seed=100)
    naive, naive_evals, naive_wall = _run_variant(ctg, acg, reference_eas_schedule)
    cached, cached_evals, cached_wall = _run_variant(ctg, acg, eas_schedule)
    # The cache must be invisible in the output before its speed counts.
    assert cached.task_placements == naive.task_placements
    assert cached.comm_placements == naive.comm_placements
    return {
        "tasks": n_tasks,
        "pes": len(acg.pes),
        "evals_naive": naive_evals,
        "evals_cached": cached_evals,
        "eval_ratio": round(naive_evals / cached_evals, 2),
        "wall_naive_s": round(naive_wall, 4),
        "wall_cached_s": round(cached_wall, 4),
        "speedup": round(naive_wall / cached_wall, 2),
        "energy_nJ": cached.total_energy(),
        "misses": len(cached.deadline_misses()),
    }


def _describe(points: Dict[str, Dict[str, Any]]) -> str:
    lines = ["SCALING: production EAS vs the paper-literal reference"]
    for label, p in points.items():
        lines.append(
            f"  {p['tasks']:>4} tasks / {p['pes']:>2} PEs: "
            f"evals {p['evals_naive']:.0f} -> {p['evals_cached']:.0f} "
            f"(x{p['eval_ratio']:.2f}), wall {p['wall_naive_s'] * 1e3:.0f} -> "
            f"{p['wall_cached_s'] * 1e3:.0f} ms (x{p['speedup']:.2f})"
        )
    return "\n".join(lines)


def test_scaling(benchmark, show):
    """Full trajectory: 50/100/200 tasks on 4x4/5x5/6x6 meshes."""

    def experiment():
        points = {label: _scaling_point(label, n, mesh) for label, n, mesh in SIZES}
        show(_describe(points))
        flat: Dict[str, Any] = {f"{label}.{k}": v for label, p in points.items() for k, v in p.items()}
        flat["energy_nJ"] = points["200"]["energy_nJ"]
        flat["misses"] = points["200"]["misses"]
        # Acceptance: the 200-task point must show the engine working.
        assert points["200"]["eval_ratio"] >= MIN_EVAL_RATIO_AT_200
        assert points["200"]["wall_cached_s"] < points["200"]["wall_naive_s"]
        return flat

    run_once(benchmark, experiment)


def test_scaling_smoke(benchmark, show):
    """CI smoke: smallest size only, gated with ``--bench-check``."""

    def experiment():
        label, n_tasks, mesh = SIZES[0]
        point = _scaling_point(label, n_tasks, mesh)
        show(_describe({label: point}))
        assert point["eval_ratio"] >= 5.0
        return point

    run_once(benchmark, experiment)
