"""repro.parallel — shared-nothing process-pool execution engine.

The engine turns the repo's embarrassingly parallel workloads — the
evalx (benchmark x scheduler) grids, multi-start repair portfolios,
benchmark sweeps — into grids of picklable :class:`RunSpec` jobs fanned
out over a ``ProcessPoolExecutor`` and reassembled in deterministic
order, so ``jobs=N`` output is byte-identical to the ``jobs=1`` serial
reference path.  See DESIGN.md ("Parallel execution engine") for the
determinism contract and the telemetry merge semantics.

Typical use::

    from repro.parallel import BenchmarkSpec, RunSpec, parallel_map

    specs = [
        RunSpec(scheduler=s, benchmark=BenchmarkSpec(kind="random", index=i))
        for i in range(10) for s in ("eas-base", "eas", "edf")
    ]
    results = parallel_map(specs, jobs=8)   # spec order preserved
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.parallel.pool": ("JOBS_ENV_VAR", "parallel_map", "pool_map", "resolve_jobs"),
        "repro.parallel.spec": (
            "ACG_PRESETS",
            "MSB_SYSTEMS",
            "BenchmarkSpec",
            "RunResult",
            "RunSpec",
            "execute_spec",
            "run_scheduler",
        ),
    },
)
