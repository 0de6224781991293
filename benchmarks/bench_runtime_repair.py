"""TXT-RT — runtime overhead of search-and-repair (Sec. 6.1 text).

Paper: on the four benchmarks where EAS-base missed deadlines, repair
fixed every miss with negligible energy increase but raised the
scheduler runtime (e.g. 2.45 s -> 12.29 s on one graph).  This bench
reproduces the relationship: repair fixes the misses, costs measurable
extra seconds, and barely moves the energy.
"""

import pytest

from benchmarks.conftest import run_once
from repro.core.reference import reference_repair
from repro.evalx.experiments import run_repair_runtime


def test_repair_runtime_overhead(benchmark, show):
    rows = run_once(benchmark, lambda: run_repair_runtime(category=2))
    if not rows:
        pytest.skip("no EAS-base deadline misses at this scale (try REPRO_FULL=1)")
    lines = ["benchmark  misses  runtime base->full (s)  energy base->full (nJ)"]
    for row in rows:
        lines.append(
            f"  {row.benchmark:>8}  {row.misses['eas-base']:>3}->"
            f"{row.misses['eas']:<3} "
            f"{row.runtimes['eas-base']:8.2f} -> {row.runtimes['eas']:8.2f}   "
            f"{row.energies['eas-base']:10.4g} -> {row.energies['eas']:10.4g}"
        )
    show("\n".join(lines))

    for row in rows:
        # Repair helps (usually fixing everything) ...
        assert row.misses["eas"] <= row.misses["eas-base"]
        # ... costs extra runtime ...
        assert row.runtimes["eas"] >= row.runtimes["eas-base"]
        # ... and the energy increase is negligible (paper's wording).
        assert row.energies["eas"] <= row.energies["eas-base"] * 1.25


def test_repair_runtime_preset(benchmark, show):
    """Guaranteed-miss preset: deadlines tightened so repair always runs.

    The default-scale test above can skip when every suite happens to be
    schedulable; this preset tightens deadlines to half so CI always
    exercises the TXT-RT relationship, and runs both the paper-literal
    reference repair and the production engine on identical inputs to
    surface the incremental speedup.
    """
    preset = dict(category=2, n_benchmarks=2, n_tasks=60, deadline_scale=0.5)

    def experiment():
        full = run_repair_runtime(repair=reference_repair, **preset)
        incremental = run_repair_runtime(**preset)
        return full, incremental

    full, incremental = run_once(benchmark, experiment)
    assert full and incremental, "tightened preset must always produce misses"
    assert len(full) == len(incremental)

    lines = [
        "benchmark  misses  repair seconds reference -> incremental  energy ratio"
    ]
    for f, inc in zip(full, incremental):
        assert f.benchmark == inc.benchmark
        # Reference and engine repair the same schedule to the same result.
        assert f.misses == inc.misses
        assert f.energies == inc.energies
        full_repair = f.runtimes["eas"] - f.runtimes["eas-base"]
        inc_repair = inc.runtimes["eas"] - inc.runtimes["eas-base"]
        lines.append(
            f"  {f.benchmark:>8}  {f.misses['eas-base']:>3}->{f.misses['eas']:<3} "
            f"{full_repair:10.2f} -> {inc_repair:10.2f}   "
            f"{f.energies['eas'] / f.energies['eas-base']:.4f}"
        )
        assert f.misses["eas"] <= f.misses["eas-base"]
        assert f.energies["eas"] <= f.energies["eas-base"] * 1.25
    show("\n".join(lines))
